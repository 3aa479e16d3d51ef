//! Session resumption through the public API: a TCP session whose connection dies
//! mid-query — dropped on the wire by a [`Relay`] in front of the listener, or severed
//! server-side — transparently reconnects, resumes its parked server-side state, and
//! finishes with results, channel metrics and leakage ledgers **byte-identical** to a
//! run where the connection never dropped.
//!
//! The exactly-once contract is asserted from both ends, on a bare socket transport and
//! on a whole query:
//!
//! * a request whose *reply* was lost is answered from the server's per-session replay
//!   cache (`MultiplexServer::replayed_replies` ticks; the engine never re-executes);
//! * a request that never *reached* the server is re-executed exactly once (the replay
//!   counter stays flat).
//!
//! The relay faults every Nth round of a session and nothing else, so a session absorbs
//! exactly `rounds / N` faults.
//!
//! Recovery is how every socket session works, so the default door
//! (`DataOwner::connect_remote`) resumes too.  `tests/tcp_transport.rs`
//! covers the complementary contract (`park_ttl` zero): a session that cannot be
//! resumed fails typed, and its neighbours are unharmed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, Outsourced, Query, QueryVariant, Session, TransportKind, VariantChoice,
};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
use sectopk_metrics::TraceHook;
use sectopk_protocols::{
    EngineProvision, InProcessTransport, MultiplexServer, S1Request, SessionId, TcpCloudServer,
    Transport, DEFAULT_PARK_TTL,
};
use sectopk_storage::{ObjectId, Relation, Row};
use sectopk_tests::{connect_remote_as, Faults, Relay, TEST_EHL_KEYS, TEST_MODULUS_BITS};

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

    let mut session = connect_remote_as(&owner, &outsourced, &addr, seed, SessionId(7))
        .expect("session connects");

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

/// Severs `session`'s connection on `server` as round `at` (1-based) begins.
struct SeverAtRound {
    server: Arc<TcpCloudServer>,
    session: SessionId,
    at: u64,
    rounds: AtomicU64,
    severed: AtomicBool,
}

impl TraceHook for SeverAtRound {
    fn enter(&self, _span: &str) {
        if self.rounds.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            self.severed.store(self.server.drop_session(self.session), Ordering::Relaxed);
        }
    }
}

#[test]
fn default_door_resumes_a_session_severed_mid_query() {
    // No option on either side: the default listener parks a dirty session for
    // `DEFAULT_PARK_TTL`, and the default session resumes it.
    let server = Arc::new(TcpCloudServer::bind("127.0.0.1:0", 2).expect("bind loopback"));
    assert_eq!(server.park_ttl(), DEFAULT_PARK_TTL);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0x7E5A_0005);
    let seed = 0xD00D;

    let mut session = owner.connect_remote(&outsourced, &addr, seed).expect("session connects");
    let sever = Arc::new(SeverAtRound {
        server: Arc::clone(&server),
        // The first id a fresh listener assigns.
        session: SessionId((1 << 32) + 1),
        at: 3,
        rounds: AtomicU64::new(0),
        severed: AtomicBool::new(false),
    });
    session.clouds_mut().set_trace_hook(sever.clone());
    let resolved = session.execute(&fixed_query()).expect("query across the drop");
    assert!(sever.severed.load(Ordering::Relaxed), "round 3 began on a severed connection");
    assert_eq!(session.clouds().faults_absorbed(), 1, "one drop, one recovery");
    assert_eq!(server.resumed_sessions(), 1, "exactly one resumption");

    let mut oracle = owner
        .connect_with(&outsourced, seed, TransportKind::InProcess, true)
        .expect("in-process oracle");
    let expected = oracle.execute(&fixed_query()).expect("oracle query");
    assert_eq!(resolved.results, expected.results, "results diverge");
    assert_eq!(resolved.outcome.top_k, expected.outcome.top_k, "result ciphertexts diverge");
    assert_eq!(session.metrics(), oracle.metrics(), "channel metrics diverge");
    assert_eq!(session.s1_ledger().events(), oracle.s1_ledger().events(), "S1 ledger diverges");
    assert_eq!(session.s2_ledger().events(), oracle.s2_ledger().events(), "S2 ledger diverges");
}

#[test]
fn lost_reply_is_answered_from_the_replay_cache_not_reexecuted() {
    let server = bind_server(2, DEFAULT_PARK_TTL);
    let (owner, outsourced) = fixture(0x7E5A_0002);
    let seed = 0xCAFE;

    let expected = reference_run(&owner, &outsourced, seed, 1);

    // Every 5th round: the request reaches the server, then the relay drops the
    // connection and the reply with it.  The resumed connection resends the same
    // sequence number and must be answered from the server's replay cache;
    // re-executing would double every ledger event of that exchange.
    let relay =
        Relay::start(server.local_addr(), Faults { drop_after_every: 5, ..Faults::default() });
    let mut session = owner
        .connect_remote(&outsourced, &relay.addr().to_string(), seed)
        .expect("fault-injected session connects");

    let resolved = session.execute(&fixed_query()).expect("query under lost-reply faults");
    assert_eq!(resolved.results, expected[0].results, "results diverge under faults");
    let faults = session.clouds().faults_absorbed();
    assert_eq!(faults, session.metrics().rounds / 5, "one lost reply per 5 rounds");
    assert_eq!(
        server.pool().replayed_replies(),
        faults,
        "every retried request must be served from the replay cache"
    );
    assert_eq!(server.resumed_sessions(), faults, "every drop really reconnected");

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
    let (owner, outsourced) = fixture(0x7E5A_0003);
    let seed = 0xB00C;

    let expected = reference_run(&owner, &outsourced, seed, 1);

    // Every 4th round the relay drops the connection *before* forwarding the request:
    // the server never saw it, so the resend must execute it — once.  With batching on,
    // the lost frame is a whole `Batch` of sub-requests, so this also proves the batch
    // is all-or-nothing: no half-applied batch survives on the server.
    let relay =
        Relay::start(server.local_addr(), Faults { drop_before_every: 4, ..Faults::default() });
    let mut session = owner
        .connect_remote(&outsourced, &relay.addr().to_string(), seed)
        .expect("fault-injected session connects");

    let resolved = session.execute(&fixed_query()).expect("query under lost-request faults");
    assert_eq!(resolved.results, expected[0].results, "results diverge under faults");
    let faults = session.clouds().faults_absorbed();
    assert_eq!(faults, session.metrics().rounds / 4, "one lost request per 4 rounds");
    assert_eq!(
        server.pool().replayed_replies(),
        0,
        "a request the server never saw has nothing to replay"
    );
    assert_eq!(server.resumed_sessions(), faults, "every drop really reconnected");

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

    let mut session = connect_remote_as(&owner, &outsourced, &addr, 0xD1ED, SessionId(21))
        .expect("session connects");
    session.execute(&fixed_query()).expect("query before the drop");

    assert!(server.drop_session(SessionId(21)), "sever the session");
    eventually("session parked", || server.parked_sessions() == 1);
    eventually("park TTL expired and session reaped", || {
        server.parked_sessions() == 0 && server.active_sessions() == 0
    });

    // The id is free again: a *fresh* hello (no resume token) claims it.
    let mut revenant = connect_remote_as(&owner, &outsourced, &addr, 0xD1ED, SessionId(21))
        .expect("expired session id is free for reuse");
    let resolved = revenant.execute(&fixed_query()).expect("reused id serves a full query");
    assert_eq!(resolved.results.len(), 2);
    assert_eq!(server.resumed_sessions(), 0, "reuse after expiry is a fresh session, not a resume");
}

fn master(seed: u64) -> MasterKeys {
    let mut rng = StdRng::seed_from_u64(seed);
    MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen")
}

fn provision_for(master: &MasterKeys, engine_seed: u64) -> EngineProvision {
    let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xABCD);
    let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).expect("keygen");
    EngineProvision::new(master.s2_view(), own_pk, engine_seed)
}

fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
    let blinded = master.paillier_public.encrypt_i64(value, rng).expect("encrypt");
    S1Request::Compare { blinded: vec![blinded], context: "test".into() }
}

/// Runs one compare per value over a bare socket transport through a relay injecting
/// `faults`, and over an in-process oracle of the same engine seed: every reply and its
/// traffic, and S2's ledger after every compare (a control frame between requests),
/// must match, and the session's teardown must reach S2 (nothing is left parked).
/// `seeds`: the master keys', the engine's and the requests'.  Returns the faults the
/// socket absorbed and the replies S2 replayed.
fn compares_through_relay(faults: Faults, seeds: [u64; 3], values: &[i64]) -> (u64, u64) {
    let [master_seed, engine_seed, request_seed] = seeds;
    let master = master(master_seed);
    let server = TcpCloudServer::bind("127.0.0.1:0", 1).expect("bind loopback");
    let relay = Relay::start(server.local_addr(), faults);
    let mut tcp = sectopk_protocols::tcp::connect(
        relay.addr(),
        provision_for(&master, engine_seed),
        SessionId(0),
    )
    .expect("connect through the relay");
    let mut oracle = InProcessTransport::new(provision_for(&master, engine_seed).build());

    let mut rng_a = StdRng::seed_from_u64(request_seed);
    let mut rng_b = StdRng::seed_from_u64(request_seed);
    for &value in values {
        let a = tcp.round_trip(compare_request(&master, value, &mut rng_a)).expect("over TCP");
        let b = oracle.round_trip(compare_request(&master, value, &mut rng_b)).expect("oracle");
        assert_eq!(a, b, "same reply, same traffic");
        assert_eq!(tcp.s2_ledger().events(), oracle.s2_ledger().events());
    }
    let absorbed = tcp.faults_absorbed();
    drop(tcp);
    eventually("the disconnect closed the session", || server.pool().active_sessions() == 0);
    (absorbed, server.pool().replayed_replies())
}

#[test]
fn drop_after_send_fault_is_answered_from_the_replay_cache() {
    // Frame 2 reaches the server, then the relay drops the connection before its reply:
    // the server executes it exactly once and the resend replays the cached reply.
    let faults = Faults { drop_after_every: 2, ..Faults::default() };
    let (absorbed, replayed) = compares_through_relay(faults, [50, 88, 21], &[3, -9]);
    assert_eq!(absorbed, 1);
    assert_eq!(replayed, 1, "the faulted frame must be served from the cache, not re-executed");
}

#[test]
fn drop_before_send_fault_reexecutes_exactly_once() {
    let faults = Faults { drop_before_every: 2, ..Faults::default() };
    let (absorbed, replayed) = compares_through_relay(faults, [51, 89, 22], &[1, 2, 3, 4]);
    assert_eq!(absorbed, 2, "frames 2 and 4 are dropped before they reach the server");
    assert_eq!(replayed, 0, "a never-delivered request has nothing cached to replay");
}

#[test]
fn the_relay_faults_each_new_request_once_and_nothing_else() {
    // Every logical frame is dropped before it reaches the server.  Each request is
    // faulted once and its re-send passes; the ledger fetches between requests and the
    // closing disconnect are never faulted.
    let faults = Faults { drop_before_every: 1, ..Faults::default() };
    let (absorbed, replayed) = compares_through_relay(faults, [52, 90, 23], &[5, -5, 7]);
    assert_eq!(absorbed, 3, "one recovery per request");
    assert_eq!(replayed, 0, "a never-delivered request has nothing cached to replay");
}
