//! Remote: the two-binary deployment in one process — an S2 listener on a real
//! loopback TCP socket, a session opened on it with [`DataOwner::connect_remote`] —
//! the same session type `connect` opens, only its transport differs — and a full
//! `Qry_F` query over the wire.
//!
//! ```text
//! cargo run --release -p sectopk-examples --example remote
//! ```
//!
//! For the genuine multi-process topology (`sectopk-s2d` + `sectopk-cli`), run
//! `scripts/tcp_demo.sh`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{DataOwner, Query, QueryVariant, Session, TransportKind, VariantChoice};
use sectopk_protocols::TcpCloudServer;
use sectopk_storage::{ObjectId, Relation, Row};

fn main() {
    let mut rng = StdRng::seed_from_u64(41);

    // --- Crypto cloud S2: a TCP listener that holds no keys and no data -----------------
    // Every accepted connection provisions its own engine over the handshake, exactly
    // as the `sectopk-s2d` daemon does.
    let server = TcpCloudServer::bind("127.0.0.1:0", 2).expect("bind loopback listener");
    let addr = server.local_addr().to_string();
    println!("[s2]      listening on {addr} (no keys, no data)");

    // --- Data owner: keys + outsourced relation -----------------------------------------
    println!("[owner]   generating keys and encrypting the relation…");
    let owner = DataOwner::new(128, 3, &mut rng).expect("key generation");
    let relation = Relation::new(
        vec!["price".into(), "rating".into(), "freshness".into()],
        vec![
            Row { id: ObjectId(1), values: vec![30, 9, 4] },
            Row { id: ObjectId(2), values: vec![80, 7, 9] },
            Row { id: ObjectId(3), values: vec![55, 8, 8] },
            Row { id: ObjectId(4), values: vec![10, 3, 2] },
            Row { id: ObjectId(5), values: vec![95, 9, 1] },
            Row { id: ObjectId(6), values: vec![40, 6, 7] },
        ],
    );
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("relation encryption");

    // --- Client: a networked session through the same Session front door ----------------
    let mut remote = owner.connect_remote(&outsourced, &addr, 0xBEEF).expect("connect");
    println!("[client]  session {:?} connected to {}", remote.clouds().transport_kind(), addr);

    let query = Query::top_k(2)
        .attribute_indices([0, 1, 2])
        .variant(VariantChoice::Fixed(QueryVariant::Full))
        .build()
        .expect("query builds");
    let resolved = remote.execute(&query).expect("networked Qry_F");
    for (rank, result) in resolved.results.iter().enumerate() {
        match result.object {
            Some(id) => println!(
                "[client]  #{rank}: object {} (score bounds [{}, {}])",
                id.0, result.worst, result.best
            ),
            None => println!("[client]  #{rank}: neutralised placeholder"),
        }
    }
    let metrics = remote.metrics();
    println!(
        "[client]  rounds={} bytes={} ciphertexts={}",
        metrics.rounds, metrics.bytes, metrics.ciphertexts
    );

    // --- Byte-identity against the in-process reference ---------------------------------
    // Same seeds, no socket anywhere: the wire is unobservable in results, metrics, and
    // leakage ledgers (the transport_equivalence suite pins this for every transport).
    let mut reference = owner
        .connect_with(&outsourced, 0xBEEF, TransportKind::InProcess, true)
        .expect("in-process reference");
    let expected = reference.execute(&query).expect("reference Qry_F");
    let identical = resolved.results == expected.results
        && remote.metrics() == reference.metrics()
        && remote.s2_ledger().events() == reference.s2_ledger().events();
    println!("[check]   TCP == in-process (results, metrics, S2 ledger): {identical}");
    assert!(identical, "the wire must be unobservable");
}
