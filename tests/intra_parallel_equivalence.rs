//! Intra-query parallelism must be unobservable: for a fixed seed, a query executed
//! with `intra_workers = 4` — or with the default, each party's share of the machine —
//! must produce **byte-identical** results, leakage ledgers (both parties) and channel
//! metrics as the same query executed fully serially — on every transport.  Worker
//! count is a local resource decision, never protocol state; any divergence means
//! randomness was drawn in a scheduling-dependent order or the parallel compute phase
//! leaked into the serial commit order.  Sessions computing at once share `par_map`'s
//! process-wide helper threads, and that must not show either.
//!
//! The serving shape gets the same treatment: two sessions seated in one S2 pool and
//! computing at once reproduce their answers, ledgers and channel metrics exactly with
//! both parties at one worker, at four — S1 through `TwoClouds::set_intra_workers`, the
//! session's engine through `S2Engine::set_intra_workers`, which parallelizes S2's
//! compute phase — or on their share.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    encrypt_for_join, join_token, top_k_join, DataOwner, DirectSession, JoinQuery, LinkProfile,
    Query, QueryConfig, Session, VariantChoice,
};
use sectopk_crypto::pool::shard_seed;
use sectopk_crypto::MasterKeys;
use sectopk_datasets::QueryWorkload;
use sectopk_protocols::{
    ChannelMetrics, LeakageLedger, MultiplexServer, ScoredItem, SessionId, TransportKind, TwoClouds,
};
use sectopk_server::SessionReport;
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

const ALL_TRANSPORTS: [TransportKind; 3] =
    [TransportKind::InProcess, TransportKind::Multiplex, TransportKind::Tcp];

fn relation_with_duplicates() -> Relation {
    // Duplicate score rows so the dup-elim variant exercises SecDedup's replace/keep
    // paths (the parallel dedup decrypts and the nonce pools' dry batches).
    Relation::new(
        vec!["r1".into(), "r2".into(), "r3".into()],
        vec![
            Row { id: ObjectId(1), values: vec![10, 3, 2] },
            Row { id: ObjectId(2), values: vec![8, 8, 0] },
            Row { id: ObjectId(3), values: vec![5, 7, 6] },
            Row { id: ObjectId(4), values: vec![5, 7, 6] },
            Row { id: ObjectId(5), values: vec![3, 2, 8] },
            Row { id: ObjectId(6), values: vec![1, 1, 1] },
        ],
    )
}

struct Observation {
    top_k: Vec<ScoredItem>,
    s1_ledger: LeakageLedger,
    s2_ledger: LeakageLedger,
    metrics: ChannelMetrics,
}

/// One query on a fresh session; `workers: None` leaves S1 on its default.
fn run_with_workers(
    kind: TransportKind,
    config: &QueryConfig,
    workers: Option<usize>,
) -> Observation {
    let mut rng = StdRng::seed_from_u64(0x1A7A);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let relation = relation_with_duplicates();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    let query = Query::from_spec(TopKQuery::sum(vec![0, 1, 2], 2))
        .with_variant(VariantChoice::Fixed(config.variant));
    let mut session = owner.connect_with(&outsourced, 0xF00D, kind, true).expect("cloud setup");
    if let Some(workers) = workers {
        session.clouds_mut().set_intra_workers(workers);
    }
    let outcome = session.execute(&query).expect("query").outcome;
    Observation {
        top_k: outcome.top_k,
        s1_ledger: session.s1_ledger(),
        s2_ledger: session.s2_ledger(),
        metrics: session.metrics(),
    }
}

fn assert_byte_identical(serial: &Observation, parallel: &Observation, label: &str) {
    assert_eq!(
        serial.top_k, parallel.top_k,
        "{label}: parallel execution changed result ciphertexts"
    );
    assert_eq!(
        serial.s1_ledger.events(),
        parallel.s1_ledger.events(),
        "{label}: S1 ledgers diverge"
    );
    assert_eq!(
        serial.s2_ledger.events(),
        parallel.s2_ledger.events(),
        "{label}: S2 ledgers diverge"
    );
    assert_eq!(serial.metrics, parallel.metrics, "{label}: channel metrics diverge");
}

#[test]
fn intra_parallelism_is_byte_invariant_on_every_transport() {
    for config in [QueryConfig::full(), QueryConfig::dup_elim()] {
        for kind in ALL_TRANSPORTS {
            let serial = run_with_workers(kind, &config, Some(1));
            for workers in [None, Some(2), Some(4), Some(7)] {
                let parallel = run_with_workers(kind, &config, workers);
                assert_byte_identical(
                    &serial,
                    &parallel,
                    &format!("{kind:?} / {:?} / {workers:?} workers", config.variant),
                );
            }
        }
    }
}

#[test]
fn sessions_contending_for_the_helpers_match_their_serial_runs() {
    // `par_map`'s helper threads are process-wide: two sessions at 2 S1 workers each, on
    // two threads, post jobs to the same helpers and claim items beside them at once.
    // The threads run the variants in opposite orders, so different sub-protocols meet.
    let configs = [QueryConfig::full(), QueryConfig::dup_elim()];
    let serial = configs.map(|config| run_with_workers(TransportKind::InProcess, &config, Some(1)));
    let run = |config: QueryConfig| run_with_workers(TransportKind::InProcess, &config, Some(2));
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| configs.map(run));
        let backward = scope.spawn(|| [configs[1], configs[0]].map(run));
        let join = |thread: std::thread::ScopedJoinHandle<'_, _>| thread.join().expect("a run");
        (join(forward), join(backward))
    });
    for (i, config) in configs.iter().enumerate() {
        let label = |thread: &str| format!("{thread} thread / {:?}", config.variant);
        assert_byte_identical(&serial[i], &forward[i], &label("forward"));
        assert_byte_identical(&serial[i], &backward[1 - i], &label("backward"));
    }
}

#[test]
fn two_sessions_in_one_pool_match_at_one_four_and_shared_workers() {
    // Both parties of each session at one count: S1's loops and the session's S2 engine,
    // so this covers the engine's parallel compute / serial commit pipeline end to end;
    // `None` leaves both on their share of the machine.
    let mut rng = StdRng::seed_from_u64(0x5E11);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let relation = relation_with_duplicates();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    let workload = QueryWorkload {
        queries: vec![
            TopKQuery::sum(vec![0, 1, 2], 2),
            TopKQuery::sum(vec![0, 1], 3),
            TopKQuery::sum(vec![1, 2], 1),
            TopKQuery::sum(vec![0, 2], 2),
        ],
    };
    let streams = workload.partition(2);
    let serve = |workers: Option<usize>| -> Vec<SessionReport> {
        let pool = MultiplexServer::new(2);
        let run_session = |(i, queries): (usize, &Vec<TopKQuery>)| {
            let id = SessionId(i as u64 + 1);
            let seed = shard_seed(0xD00D, id.0);
            let mut clouds = TwoClouds::over_transport(owner.keys(), seed, |provision| {
                let mut engine = provision.build();
                if let Some(workers) = workers {
                    engine.set_intra_workers(workers);
                }
                Ok(Box::new(pool.connect(id, engine, LinkProfile::ideal())?))
            })
            .expect("seat a session");
            if let Some(workers) = workers {
                clouds.set_intra_workers(workers);
            }
            let mut session =
                DirectSession::new(clouds, outsourced.clone(), owner.keys().clone(), seed);
            let outcomes = queries
                .iter()
                .map(|spec| {
                    let query = Query::from_spec(spec.clone()).with_variant(VariantChoice::Auto);
                    session.execute(&query).expect("query").outcome
                })
                .collect();
            SessionReport::new(id, seed, &session, outcomes, Vec::new())
        };
        std::thread::scope(|scope| {
            let threads: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|job| scope.spawn(move || run_session(job)))
                .collect();
            threads.into_iter().map(|thread| thread.join().expect("a session")).collect()
        })
    };

    let serial = serve(Some(1));
    assert_same_reports(&serial, &serve(Some(4)));
    assert_same_reports(&serial, &serve(None));
}

fn assert_same_reports(serial: &[SessionReport], parallel: &[SessionReport]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.session, p.session);
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.failures.len(), p.failures.len(), "failure counts diverge");
        assert_eq!(s.metrics, p.metrics, "session {:?}: channel metrics diverge", s.session);
        assert_eq!(
            s.s1_ledger.events(),
            p.s1_ledger.events(),
            "session {:?}: S1 ledgers diverge",
            s.session
        );
        assert_eq!(
            s.s2_ledger.events(),
            p.s2_ledger.events(),
            "session {:?}: S2 ledgers diverge",
            s.session
        );
        assert_eq!(s.outcomes.len(), p.outcomes.len());
        for (so, po) in s.outcomes.iter().zip(p.outcomes.iter()) {
            assert_eq!(
                so.top_k, po.top_k,
                "session {:?}: worker count changed result ciphertexts",
                s.session
            );
            assert_eq!(so.stats.depths_scanned, po.stats.depths_scanned);
            assert_eq!(so.stats.halted, po.stats.halted);
        }
    }
}

#[test]
fn a_top_k_join_is_byte_invariant_at_one_and_four_workers() {
    // SecJoin, SecFilter — whose own-key unblinding runs on S1's workers — and the final
    // selection: the answer, both ledgers and the channel metrics, on every transport.
    let join = |kind: TransportKind, workers: usize| {
        let mut rng = StdRng::seed_from_u64(0x701E);
        let keys =
            MasterKeys::generate(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
        let rows = |rows: &[(u64, u64, u64)]| {
            let rows = rows
                .iter()
                .map(|&(id, key, score)| Row { id: ObjectId(id), values: vec![key, score] });
            Relation::new(vec!["key".into(), "score".into()], rows.collect())
        };
        let left = rows(&[(1, 7, 50), (2, 8, 10), (3, 7, 20), (4, 9, 30)]);
        let right = rows(&[(1, 7, 5), (2, 9, 99), (3, 8, 1)]);
        let query = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 2 };
        let enc_left = encrypt_for_join(&left, &keys, "join/left", &mut rng).expect("left");
        let enc_right = encrypt_for_join(&right, &keys, "join/right", &mut rng).expect("right");
        let token = join_token(&keys, 2, 2, &query, &[0, 1], &[1]).expect("token");
        let mut clouds = TwoClouds::with_transport(&keys, 0x7017, kind, true).expect("clouds");
        clouds.set_intra_workers(workers);
        let outcome = top_k_join(&mut clouds, &enc_left, &enc_right, &token).expect("join");
        assert_eq!(outcome.matching_pairs, 4);
        let ledgers = (clouds.s1_ledger().events(), clouds.s2_ledger().events());
        (outcome.top_k, ledgers, clouds.channel())
    };
    for kind in ALL_TRANSPORTS {
        assert_eq!(join(kind, 1), join(kind, 4), "{kind:?}: the worker count showed");
    }
}
