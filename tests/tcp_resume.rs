//! Session resumption through the public API: a TCP session whose connection dies
//! mid-query — by injected fault or by server-side severing — transparently reconnects,
//! resumes its parked server-side state, and finishes with results, channel metrics and
//! leakage ledgers **byte-identical** to a run where the connection never dropped.
//!
//! The exactly-once contract is asserted from both ends:
//!
//! * a request whose *reply* was lost is answered from the server's per-session replay
//!   cache (`MultiplexServer::replayed_replies` ticks; the engine never re-executes);
//! * a request that never *reached* the server is re-executed exactly once (the replay
//!   counter stays flat).
//!
//! `tests/tcp_transport.rs` covers the complementary fail-fast contract (no
//! [`RetryPolicy`], `park_ttl` zero): severed sessions surface typed errors and are
//! reaped immediately.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, FaultPlan, Outsourced, Query, QueryVariant, RetryPolicy, Session, TcpOptions,
    TransportKind, VariantChoice,
};
use sectopk_protocols::{MultiplexServer, SessionId, TcpCloudServer, DEFAULT_PARK_TTL};
use sectopk_storage::{ObjectId, Relation, Row};
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// The worked example every transport suite shares.
fn fixed_relation() -> Relation {
    Relation::new(
        vec!["r1".into(), "r2".into(), "r3".into()],
        vec![
            Row { id: ObjectId(1), values: vec![10, 3, 2] },
            Row { id: ObjectId(2), values: vec![8, 8, 0] },
            Row { id: ObjectId(3), values: vec![5, 7, 6] },
            Row { id: ObjectId(4), values: vec![3, 2, 8] },
            Row { id: ObjectId(5), values: vec![1, 1, 1] },
        ],
    )
}

fn fixture(seed: u64) -> (DataOwner, Outsourced) {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fixed_relation(), &mut rng).expect("encryption");
    (owner, outsourced)
}

fn bind_server(workers: usize, park_ttl: Duration) -> TcpCloudServer {
    TcpCloudServer::serve_pool("127.0.0.1:0", Arc::new(MultiplexServer::new(workers)), park_ttl)
        .expect("bind ephemeral loopback listener")
}

fn fixed_query() -> Query {
    Query::top_k(2)
        .attribute_indices([0, 1, 2])
        .variant(VariantChoice::Fixed(QueryVariant::Full))
        .build()
        .expect("query builds")
}

/// A tight-but-patient retry policy for loopback tests.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 10,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        deadline: Duration::from_secs(30),
    }
}

fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Execute `queries` full queries on a fresh in-process session and return everything
/// deterministic about the run — the oracle every resumed TCP run must match.
fn reference_run(
    owner: &DataOwner,
    outsourced: &Outsourced,
    seed: u64,
    queries: usize,
) -> Vec<sectopk_core::ResolvedTopK> {
    let mut session = owner
        .connect_with(outsourced, seed, TransportKind::InProcess, true)
        .expect("in-process reference session");
    (0..queries).map(|_| session.execute(&fixed_query()).expect("reference query")).collect()
}

#[test]
fn server_side_drop_between_queries_resumes_transparently_and_byte_identically() {
    let server = bind_server(2, DEFAULT_PARK_TTL);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0x7E5A_0001);
    let seed = 0x51ED;

    let expected = reference_run(&owner, &outsourced, seed, 2);

    let mut session = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            seed,
            TcpOptions::default().with_session(SessionId(7)).with_retry(test_retry()),
        )
        .expect("retry-enabled session connects");

    let first = session.execute(&fixed_query()).expect("query before the drop");

    // Sever the connection server-side.  The session parks (default `park_ttl` is
    // generous); the client notices only on its next exchange, reconnects with its
    // resume token, and the query runs to completion as if nothing happened.
    assert!(server.drop_session(SessionId(7)), "the session's connection is registered");
    let second = session.execute(&fixed_query()).expect("query across the drop");

    assert_eq!(first.results, expected[0].results, "pre-drop results diverge");
    assert_eq!(second.results, expected[1].results, "post-drop results diverge");
    assert_eq!(
        second.outcome.top_k, expected[1].outcome.top_k,
        "post-drop encrypted result ciphertexts diverge"
    );
    assert_eq!(server.resumed_sessions(), 1, "exactly one resumption");

    // Accounting survived the drop bit for bit: same metrics and ledgers as a session
    // that never lost its socket.
    let mut unbroken = owner
        .connect_with(&outsourced, seed, TransportKind::InProcess, true)
        .expect("unbroken oracle");
    for _ in 0..2 {
        unbroken.execute(&fixed_query()).expect("oracle query");
    }
    assert_eq!(session.metrics(), unbroken.metrics(), "channel metrics diverge");
    assert_eq!(session.s1_ledger().events(), unbroken.s1_ledger().events(), "S1 ledger diverges");
    assert_eq!(session.s2_ledger().events(), unbroken.s2_ledger().events(), "S2 ledger diverges");
}

#[test]
fn lost_reply_is_answered_from_the_replay_cache_not_reexecuted() {
    let server = bind_server(2, DEFAULT_PARK_TTL);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0x7E5A_0002);
    let seed = 0xCAFE;

    let expected = reference_run(&owner, &outsourced, seed, 1);

    // Every 5th logical frame: the request is written, then the connection is severed
    // before the reply is read — the reply is lost in flight.  The resumed connection
    // resends the same sequence number and must be answered from the server's replay
    // cache; re-executing would double every ledger event of that exchange.
    let faults = FaultPlan::none().with_drop_after_send_every(5);
    let mut session = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            seed,
            TcpOptions::default().with_retry(test_retry()).with_faults(faults),
        )
        .expect("fault-injected session connects");

    let resolved = session.execute(&fixed_query()).expect("query under lost-reply faults");
    assert_eq!(resolved.results, expected[0].results, "results diverge under faults");
    assert!(
        server.pool().replayed_replies() >= 1,
        "at least one retried request must be served from the replay cache"
    );
    assert!(server.resumed_sessions() >= 1, "the drops really reconnected");

    let mut oracle = owner
        .connect_with(&outsourced, seed, TransportKind::InProcess, true)
        .expect("fault-free oracle");
    oracle.execute(&fixed_query()).expect("oracle query");
    assert_eq!(session.metrics(), oracle.metrics(), "a replayed reply must not re-meter");
    assert_eq!(
        session.s2_ledger().events(),
        oracle.s2_ledger().events(),
        "a replayed reply must not re-execute (S2 ledger would double)"
    );
}

#[test]
fn lost_request_is_reexecuted_exactly_once_with_batching_all_or_nothing() {
    let server = bind_server(2, DEFAULT_PARK_TTL);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0x7E5A_0003);
    let seed = 0xB00C;

    let expected = reference_run(&owner, &outsourced, seed, 1);

    // Every 4th logical frame is severed *before* the request is written: the server
    // never saw it, so the resend must execute it — once.  With batching on, the lost
    // frame is a whole `Batch` of sub-requests, so this also proves the batch is
    // all-or-nothing: no half-applied batch survives on the server.
    let faults = FaultPlan::none().with_drop_before_send_every(4);
    let mut session = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            seed,
            TcpOptions::default().with_retry(test_retry()).with_faults(faults),
        )
        .expect("fault-injected session connects");

    let resolved = session.execute(&fixed_query()).expect("query under lost-request faults");
    assert_eq!(resolved.results, expected[0].results, "results diverge under faults");
    assert_eq!(
        server.pool().replayed_replies(),
        0,
        "a request the server never saw has nothing to replay"
    );
    assert!(server.resumed_sessions() >= 1, "the drops really reconnected");

    let mut oracle = owner
        .connect_with(&outsourced, seed, TransportKind::InProcess, true)
        .expect("fault-free oracle");
    oracle.execute(&fixed_query()).expect("oracle query");
    assert_eq!(session.metrics(), oracle.metrics(), "re-executed requests must meter once");
    assert_eq!(
        session.s2_ledger().events(),
        oracle.s2_ledger().events(),
        "re-execution must happen exactly once (S2 ledger would double)"
    );
}

#[test]
fn park_ttl_expiry_reaps_the_parked_session_and_frees_its_id() {
    let server = bind_server(1, Duration::from_millis(50));
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0x7E5A_0004);

    let mut session = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            0xD1ED,
            TcpOptions::default().with_session(SessionId(21)),
        )
        .expect("session connects");
    session.execute(&fixed_query()).expect("query before the drop");

    assert!(server.drop_session(SessionId(21)), "sever the session");
    eventually("session parked", || server.parked_sessions() == 1);
    eventually("park TTL expired and session reaped", || {
        server.parked_sessions() == 0 && server.active_sessions() == 0
    });

    // The id is free again: a *fresh* hello (no resume token) claims it.
    let mut revenant = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            0xD1ED,
            TcpOptions::default().with_session(SessionId(21)),
        )
        .expect("expired session id is free for reuse");
    let resolved = revenant.execute(&fixed_query()).expect("reused id serves a full query");
    assert_eq!(resolved.results.len(), 2);
    assert_eq!(server.resumed_sessions(), 0, "reuse after expiry is a fresh session, not a resume");
}
