//! The transport implementations must be observationally identical: for a fixed seed,
//! running the same workload over `InProcessTransport` (the direct call) and over
//! `EnvelopeTransport` — every message serialized through the binary wire codec into
//! session-tagged envelopes for an S2 worker pool — on both of its pipes, the pool's
//! in-memory conduit (`Multiplex`) and a real loopback socket on an ephemeral port with
//! the envelopes length-prefix-framed (`Tcp`), must produce **byte-identical** query
//! results, identical leakage ledgers on both sides, and identical channel
//! metrics.  Any divergence means the wire format is lossy, S2 state leaked around the
//! message boundary, or the framing perturbed the protocol.
//!
//! The same holds one level up, for every *door* a session can be opened through
//! (`connect_with` on each transport, `connect_remote` to a listener,
//! `QueryServer::open_session`): one table-driven case reads each of them through the
//! provided `Session` methods and requires the same bytes.
//!
//! Beyond the fixed worked examples, a property-test conformance harness drives random
//! relations and random `TopKQuery`s through every transport.

use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{
    DataOwner, DirectSession, PlanDecision, Query, QueryConfig, QueryOutcome, Session,
    VariantChoice,
};
use sectopk_protocols::{
    ChannelMetrics, LeakageLedger, LinkProfile, ScoredItem, SessionId, TransportKind, TwoClouds,
};
use sectopk_server::QueryServer;
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// Every transport implementation under test.
const ALL_TRANSPORTS: [TransportKind; 3] =
    [TransportKind::InProcess, TransportKind::Multiplex, TransportKind::Tcp];

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

/// Run one fixed-seed query on the given transport, through the `Session` front door,
/// and return everything observable.
fn run_on(kind: TransportKind, config: &QueryConfig) -> (DirectSession, QueryOutcome) {
    let mut rng = StdRng::seed_from_u64(0xE9_51);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let relation = fixed_relation();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    let query = Query::from_spec(TopKQuery::sum(vec![0, 1, 2], 2))
        .with_variant(VariantChoice::Fixed(config.variant));
    let mut session = owner.connect_with(&outsourced, 0xBEEF, kind, true).expect("cloud setup");
    let outcome = session.execute(&query).expect("query").outcome;
    (session, outcome)
}

fn assert_items_byte_identical(a: &[ScoredItem], b: &[ScoredItem], kind: impl std::fmt::Debug) {
    assert_eq!(a.len(), b.len(), "{kind:?}: result lengths differ");
    for (x, y) in a.iter().zip(b.iter()) {
        // ScoredItem equality is group-element equality: byte-identical ciphertexts.
        assert_eq!(x, y, "{kind:?}: transports produced different ciphertexts");
    }
}

/// Everything observable from one execution, in comparable form.
struct Observation {
    top_k: Vec<ScoredItem>,
    s1_ledger: LeakageLedger,
    s2_ledger: LeakageLedger,
    metrics: ChannelMetrics,
    depths_scanned: usize,
    halted: bool,
    /// `(n, M, link)` as the session reports them.
    shape: (usize, usize, LinkProfile),
    plan: Option<PlanDecision>,
}

/// Reads the session through the *provided* `Session` methods only, and generically: a
/// session type that overrode one of the defaults would be observed through its
/// override here, and diverge.
fn observe<S: Session>(session: &S, outcome: &QueryOutcome) -> Observation {
    Observation {
        top_k: outcome.top_k.clone(),
        s1_ledger: session.s1_ledger(),
        s2_ledger: session.s2_ledger(),
        metrics: session.metrics(),
        depths_scanned: outcome.stats.depths_scanned,
        halted: outcome.stats.halted,
        shape: (session.num_objects(), session.num_attributes(), session.link()),
        plan: outcome.stats.plan.clone(),
    }
}

fn assert_observations_equal(
    reference: &Observation,
    other: &Observation,
    kind: impl std::fmt::Debug + Copy,
) {
    assert_items_byte_identical(&reference.top_k, &other.top_k, kind);
    assert_eq!(reference.shape, other.shape, "{kind:?}: session shapes diverge");
    assert_eq!(reference.plan, other.plan, "{kind:?}: planner decisions diverge");
    assert_eq!(
        reference.s1_ledger.events(),
        other.s1_ledger.events(),
        "{kind:?}: S1 ledgers diverge"
    );
    assert_eq!(
        reference.s2_ledger.events(),
        other.s2_ledger.events(),
        "{kind:?}: S2 ledgers diverge"
    );
    // Bytes are measured from the same wire encoding on every transport.
    assert_eq!(reference.metrics, other.metrics, "{kind:?}: channel metrics diverge");
    assert_eq!(reference.depths_scanned, other.depths_scanned);
    assert_eq!(reference.halted, other.halted);
}

fn assert_equivalent(config: &QueryConfig) {
    let (session_ip, outcome_ip) = run_on(TransportKind::InProcess, config);
    let reference = observe(&session_ip, &outcome_ip);
    for kind in [TransportKind::Multiplex, TransportKind::Tcp] {
        let (session, outcome) = run_on(kind, config);
        assert_observations_equal(&reference, &observe(&session, &outcome), kind);
    }
}

#[test]
fn full_privacy_query_is_transport_invariant() {
    assert_equivalent(&QueryConfig::full());
}

#[test]
fn dup_elim_query_is_transport_invariant() {
    assert_equivalent(&QueryConfig::dup_elim());
}

/// One door's row of the table: plan, execute and observe through the front door, then
/// check that `reset_accounting` really empties what was observed.
fn through<'d, S: Session>(
    door: &'d str,
    session: sectopk_core::Result<S>,
    query: &Query,
) -> (&'d str, Observation) {
    let mut session = session.unwrap_or_else(|e| panic!("{door}: cannot open a session: {e}"));
    let planned = session.plan(query);
    let outcome = session.execute(query).unwrap_or_else(|e| panic!("{door}: {e}")).outcome;
    assert_eq!(outcome.stats.plan.as_ref(), Some(&planned), "{door}: plan() ≠ the plan run");
    let observed = observe(&session, &outcome);
    assert!(observed.metrics.rounds > 0 && !observed.s2_ledger.is_empty(), "{door}: idle");
    session.reset_accounting();
    assert_eq!(session.metrics(), ChannelMetrics::default(), "{door}: metrics survive a reset");
    assert!(session.s1_ledger().is_empty(), "{door}: S1 ledger survives a reset");
    assert!(session.s2_ledger().is_empty(), "{door}: S2 ledger survives a reset");
    (door, observed)
}

#[test]
fn every_door_opens_onto_the_same_bytes() {
    let mut rng = StdRng::seed_from_u64(0xD0_0E);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fixed_relation(), &mut rng).expect("encryption");
    let server = QueryServer::new(owner.keys(), outsourced.clone(), 2);
    let listener = server.listen("127.0.0.1:0").expect("listener");
    let addr = listener.local_addr().to_string();
    let query = Query::from_spec(TopKQuery::sum(vec![0, 2], 2)).with_variant(VariantChoice::Auto);

    let seed = 0x5EED;
    let dedicated = |kind| owner.connect_with(&outsourced, seed, kind, true);
    let pooled = server.open_session(SessionId(7), seed, true, LinkProfile::ideal());
    let table = [
        through("connect_with(InProcess)", dedicated(TransportKind::InProcess), &query),
        through("connect_with(Multiplex)", dedicated(TransportKind::Multiplex), &query),
        through("connect_with(Tcp)", dedicated(TransportKind::Tcp), &query),
        through("connect_remote", owner.connect_remote(&outsourced, &addr, seed), &query),
        through("QueryServer::open_session", pooled, &query),
    ];
    let (_, reference) = &table[0];
    for (door, observed) in &table[1..] {
        assert_observations_equal(reference, observed, door);
    }
}

#[test]
fn multiplex_transport_traffic_is_nonzero_and_round_counted() {
    let (session, outcome) = run_on(TransportKind::Multiplex, &QueryConfig::full());
    assert_eq!(session.clouds().transport_kind(), TransportKind::Multiplex);
    let metrics = session.metrics();
    assert!(metrics.bytes > 0);
    assert!(metrics.rounds > 0);
    assert!(metrics.ciphertexts > 0);
    assert!(outcome.stats.depths_scanned > 0);
}

#[test]
fn tcp_transport_traffic_is_nonzero_and_round_counted() {
    let (session, outcome) = run_on(TransportKind::Tcp, &QueryConfig::full());
    assert_eq!(session.clouds().transport_kind(), TransportKind::Tcp);
    let metrics = session.metrics();
    assert!(metrics.bytes > 0);
    assert!(metrics.rounds > 0);
    assert!(metrics.ciphertexts > 0);
    assert!(outcome.stats.depths_scanned > 0);
}

#[test]
fn join_pipeline_is_transport_invariant() {
    use sectopk_core::{encrypt_for_join, join_token, top_k_join, JoinQuery};

    let run = |kind: TransportKind| {
        let mut rng = StdRng::seed_from_u64(0x0001_0152);
        let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
        let keys = owner.keys();
        let left = Relation::new(
            vec!["A".into(), "C".into()],
            vec![
                Row { id: ObjectId(1), values: vec![1, 10] },
                Row { id: ObjectId(2), values: vec![2, 20] },
            ],
        );
        let right = Relation::new(
            vec!["B".into(), "D".into()],
            vec![
                Row { id: ObjectId(1), values: vec![2, 5] },
                Row { id: ObjectId(2), values: vec![9, 7] },
            ],
        );
        let enc_left = encrypt_for_join(&left, keys, "join/left", &mut rng).unwrap();
        let enc_right = encrypt_for_join(&right, keys, "join/right", &mut rng).unwrap();
        let query = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 2 };
        let token = join_token(keys, 2, 2, &query, &[1], &[1]).unwrap();
        let mut clouds = TwoClouds::with_transport(keys, 0xCAFE, kind, true).unwrap();
        let outcome = top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();
        (clouds.channel(), clouds.s2_ledger(), outcome)
    };

    let (metrics_ip, ledger_ip, outcome_ip) = run(TransportKind::InProcess);
    for kind in [TransportKind::Multiplex, TransportKind::Tcp] {
        let (metrics, ledger, outcome) = run(kind);
        assert_eq!(metrics_ip, metrics, "{kind:?}: join metrics diverge");
        assert_eq!(ledger_ip.events(), ledger.events(), "{kind:?}: join ledgers diverge");
        assert_eq!(outcome_ip.matching_pairs, outcome.matching_pairs);
        assert_eq!(
            outcome_ip.top_k, outcome.top_k,
            "{kind:?}: joined tuples must be byte-identical"
        );
    }
}

// ====================================================================================
// Property-test conformance harness: random relations × random queries × every
// transport.  Each case builds a fresh random relation and query workload from the
// proptest-chosen seed, runs it once per transport, and requires every observable to
// coincide with the in-process reference.
// ====================================================================================

fn random_relation(rng: &mut StdRng) -> Relation {
    let num_attributes = rng.gen_range(2usize..=4);
    let rows = rng.gen_range(3usize..=6);
    let names = (0..num_attributes).map(|i| format!("a{i}")).collect();
    let rows = (1..=rows)
        .map(|id| Row {
            id: ObjectId(id as u64),
            values: (0..num_attributes).map(|_| rng.gen_range(0..16)).collect(),
        })
        .collect();
    Relation::new(names, rows)
}

fn random_query(rng: &mut StdRng, num_attributes: usize) -> TopKQuery {
    let m = rng.gen_range(1..=num_attributes);
    let mut attrs: Vec<usize> = (0..num_attributes).collect();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..=i));
    }
    attrs.truncate(m);
    attrs.sort_unstable();
    TopKQuery::sum(attrs, rng.gen_range(1..=3))
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]
    #[test]
    fn random_workloads_are_transport_invariant(case_seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(case_seed ^ 0xC0F0);
        let relation = random_relation(&mut rng);
        let query = random_query(&mut rng, relation.num_attributes());
        let config =
            if rng.gen() { QueryConfig::full() } else { QueryConfig::dup_elim() };
        let keygen_seed = rng.gen::<u64>();
        let cloud_seed = rng.gen::<u64>();

        let run = |kind: TransportKind| {
            let mut rng = StdRng::seed_from_u64(keygen_seed);
            let owner =
                DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
            let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
            let built = Query::from_spec(query.clone())
                .with_variant(VariantChoice::Fixed(config.variant));
            let mut session = owner
                .connect_with(&outsourced, cloud_seed, kind, true)
                .expect("cloud setup");
            let outcome = session.execute(&built).expect("query").outcome;
            observe(&session, &outcome)
        };

        let reference = run(TransportKind::InProcess);
        assert!(reference.metrics.bytes > 0);
        for kind in ALL_TRANSPORTS {
            if kind != TransportKind::InProcess {
                assert_observations_equal(&reference, &run(kind), kind);
            }
        }
    }
}
