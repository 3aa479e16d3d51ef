//! The observability layer must be *strictly observational*: metrics on or off, the
//! protocol's observable behaviour — resolved ciphertexts, planner decisions, channel
//! metrics, both leakage ledgers — is byte-identical, on every transport and at every
//! intra-query worker count.  A metric that perturbs protocol bytes would invalidate
//! the leakage goldens and the transport-equivalence guarantees at once, so this suite
//! is the fence around the whole `sectopk-metrics` integration.
//!
//! Three layers of assertion:
//!
//! 1. **Invariance** — serving runs (multiplex and TCP) and direct single-session runs
//!    (every transport) with an enabled registry vs a disabled one produce
//!    identical reports.
//! 2. **Exactness** — deterministic counters (requests by kind, sessions attached,
//!    planner variants, idle refills, admission rejects, absorbed faults) are asserted
//!    to exact values or exact identities against the always-on accounting.
//! 3. **Structure** — timing histograms are asserted structurally (count = Σ bucket
//!    counts, round-latency count = round counter), never on wall-clock values.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    execute_with_clouds, resolution_rng, DataOwner, FaultPlan, Outsourced, Query, TcpOptions,
    VariantChoice,
};
use sectopk_datasets::{fig3_relation, QueryWorkload, WorkloadSpec};
use sectopk_metrics::{MetricsSnapshot, Registry};
use sectopk_protocols::{
    MultiplexServer, PoolLimits, TcpCloudServer, TransportKind, TwoClouds, DEFAULT_PARK_TTL,
};
use sectopk_server::{QueryServer, ServeConfig};
use sectopk_tests::{assert_sessions_identical, TEST_EHL_KEYS, TEST_MODULUS_BITS};

fn fixture(seed: u64, queries: usize) -> (DataOwner, Outsourced, QueryWorkload) {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fig3_relation(), &mut rng).expect("encryption");
    let spec = WorkloadSpec { queries, m_range: (1, 3), k_range: (1, 3) };
    let workload = QueryWorkload::generate(&spec, 3, seed ^ 0x77);
    (owner, outsourced, workload)
}

/// Every histogram must be internally consistent: total count equals the sum of its
/// bucket counts.  Values are never asserted — timing is host-dependent.
fn assert_histograms_structural(snapshot: &MetricsSnapshot) {
    for (name, h) in &snapshot.histograms {
        let bucketed: u64 = h.buckets.iter().map(|b| b.count).sum();
        assert_eq!(h.count, bucketed, "histogram {name}: count != sum of bucket counts");
    }
}

/// Metrics on vs off, multiplex and TCP serving, 1 and 4 intra-query workers: the
/// per-session reports must be byte-identical in every comparable field.
#[test]
fn serving_reports_are_identical_with_metrics_on_and_off() {
    let (owner, outsourced, workload) = fixture(0x0B5E_0001, 8);
    for intra in [1usize, 4] {
        for tcp in [false, true] {
            let config = ServeConfig::new(2, 0x0B5E_C0DE)
                .with_variant(VariantChoice::Auto)
                .with_intra_workers(intra);
            let run = |registry: Registry| {
                let server =
                    QueryServer::with_metrics(owner.keys(), outsourced.clone(), 2, registry);
                if tcp {
                    server.serve_tcp(&workload, &config)
                } else {
                    server.serve(&workload, &config)
                }
                .expect("serve")
            };
            let on = run(Registry::enabled());
            let off = run(Registry::disabled());
            let context = format!("intra={intra} tcp={tcp}");
            assert_eq!(on.sessions.len(), off.sessions.len(), "{context}");
            for (a, b) in on.sessions.iter().zip(off.sessions.iter()) {
                assert_sessions_identical(a, b, &format!("{context} session {}", a.session));
                // Both sides ran the same (fault-free) plan, so here even the
                // absorbed-fault counts must agree.
                assert_eq!(a.transport_failures, b.transport_failures, "{context}");
            }
            // The disabled run records literally nothing; the enabled one recorded the
            // same protocol — and its histograms are structurally sound.
            assert_eq!(
                off.metrics,
                MetricsSnapshot::default(),
                "{context}: disabled registry leaked"
            );
            assert!(
                !on.metrics.counters.is_empty(),
                "{context}: enabled registry recorded nothing"
            );
            assert_histograms_structural(&on.metrics);
        }
    }
}

/// Metrics on vs off across every transport on a bare [`TwoClouds`]: ciphertexts,
/// ledgers and channel metrics are unchanged by instrumentation.
#[test]
fn direct_transports_are_identical_with_metrics_on_and_off() {
    let kinds = [TransportKind::InProcess, TransportKind::Multiplex, TransportKind::Tcp];
    for kind in kinds {
        let run = |registry: &Registry| {
            let mut rng = StdRng::seed_from_u64(0x0B5E_0002);
            let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
            let (outsourced, _) = owner.outsource(&fig3_relation(), &mut rng).expect("encryption");
            let mut clouds =
                TwoClouds::with_transport(owner.keys(), 0xD00D, kind, true).expect("cloud setup");
            clouds.set_metrics(registry, "direct");
            let query = Query::top_k(2).attribute_indices([0, 1]).build().expect("query builds");
            let mut res_rng = resolution_rng(0xD00D);
            let resolved = execute_with_clouds(
                &mut clouds,
                outsourced.er(),
                outsourced.object_ids(),
                owner.keys(),
                &mut res_rng,
                &query,
            )
            .expect("query");
            (resolved.outcome, clouds.channel(), clouds.s1_ledger().clone(), clouds.s2_ledger())
        };
        let enabled = Registry::enabled();
        let (outcome_on, channel_on, s1_on, s2_on) = run(&enabled);
        let (outcome_off, channel_off, s1_off, s2_off) = run(&Registry::disabled());
        assert_eq!(outcome_on.top_k, outcome_off.top_k, "{kind:?}: ciphertexts diverge");
        assert_eq!(outcome_on.stats.plan, outcome_off.stats.plan, "{kind:?}: plans diverge");
        assert_eq!(channel_on, channel_off, "{kind:?}: channel metrics diverge");
        assert_eq!(s1_on.events(), s1_off.events(), "{kind:?}: S1 ledgers diverge");
        assert_eq!(s2_on.events(), s2_off.events(), "{kind:?}: S2 ledgers diverge");
        // The mirrored round counter agrees exactly with the always-on accounting.
        let snapshot = enabled.snapshot();
        assert_eq!(
            snapshot.counters.get("session.direct.rounds").copied(),
            Some(channel_on.rounds),
            "{kind:?}: mirrored round counter diverges from ChannelMetrics"
        );
        let rounds_hist =
            snapshot.histograms.get("session.direct.round_nanos").expect("round histogram");
        assert_eq!(rounds_hist.count, channel_on.rounds, "{kind:?}: round timings != rounds");
        assert_histograms_structural(&snapshot);
    }
}

/// The deterministic counters are exact: request mix vs rounds, attachments, planner
/// variants, idle refills — all asserted as identities against the protocol's own
/// accounting, not as "nonzero".
#[test]
fn deterministic_counters_are_exact() {
    let (owner, outsourced, workload) = fixture(0x0B5E_0003, 8);
    let registry = Registry::enabled();
    let server = QueryServer::with_metrics(owner.keys(), outsourced, 2, registry.clone());
    let config = ServeConfig::new(2, 0x0B5E_0003).with_variant(VariantChoice::Auto);
    let report = server.serve(&workload, &config).expect("serve");
    assert_eq!(report.query_failures(), 0, "fixture workload must serve cleanly");
    let snapshot = report.metrics;

    // Two sessions attached to the pool, nothing evicted or replayed.
    assert_eq!(snapshot.counters.get("pool.attached").copied(), Some(2));
    assert_eq!(snapshot.counters.get("pool.evicted").copied().unwrap_or(0), 0);
    assert_eq!(snapshot.counters.get("pool.replayed").copied().unwrap_or(0), 0);

    // Each session's mirrored round counter matches its ChannelMetrics exactly.
    let mut total_rounds = 0u64;
    for session in &report.sessions {
        let name = format!("session.{}.rounds", session.session.0);
        assert_eq!(
            snapshot.counters.get(&name).copied(),
            Some(session.metrics.rounds),
            "{name} diverges from the session's ChannelMetrics"
        );
        total_rounds += session.metrics.rounds;
    }

    // Request-mix identity: every round carries exactly one top-level request, and a
    // Batch counts itself plus its inner requests — so the sum of all by-kind counters
    // minus the inner-request total (the batch-size histogram's sum) is the round
    // count.  An off-by-anything here means requests are double- or under-counted.
    let by_kind: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.requests."))
        .map(|(_, v)| *v)
        .sum();
    let inner: u64 = snapshot.histograms.get("engine.batch_size").map_or(0, |h| h.sum);
    assert_eq!(
        by_kind - inner,
        total_rounds,
        "engine request counters do not reconcile with the round count"
    );

    // The planner recorded exactly one variant decision per successful query.
    let planned: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.planner."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(planned, report.queries as u64, "one planner decision per query");

    assert_histograms_structural(&snapshot);

    // The live polling API sees at least everything the report snapshotted.
    let live = server.metrics_snapshot();
    assert_eq!(live.counters, snapshot.counters, "live poll diverges from report snapshot");
}

/// Admission control under a session burst: the accept and per-code reject counters
/// are exact, and they reconcile with the typed errors the clients saw.
#[test]
fn overload_rejects_and_accepts_are_exact() {
    let (owner, outsourced, _) = fixture(0x0B5E_0004, 1);
    let registry = Registry::enabled();
    let listener = TcpCloudServer::serve_pool(
        "127.0.0.1:0",
        std::sync::Arc::new(MultiplexServer::with_limits_and_metrics(
            2,
            PoolLimits { max_sessions: 2 },
            registry.clone(),
        )),
        DEFAULT_PARK_TTL,
    )
    .expect("capped listener binds");
    let addr = listener.local_addr().to_string();

    let admitted: Vec<_> = (1..=2u64)
        .map(|i| {
            owner
                .connect_remote_with(&outsourced, &addr, 0x5EA7 + i, TcpOptions::default())
                .expect("seat admitted")
        })
        .collect();
    owner
        .connect_remote_with(&outsourced, &addr, 0x5EA7, TcpOptions::default())
        .map(|_| ())
        .expect_err("third session must be shed by admission control");

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counters.get("tcp.server.accepts").copied(), Some(2));
    assert_eq!(snapshot.counters.get("tcp.server.rejects.full").copied(), Some(1));
    assert_eq!(snapshot.counters.get("pool.attached").copied(), Some(2));
    drop(admitted);
}

/// Fault-injected TCP serving: zero query failures (retry absorbs everything), a
/// nonzero absorbed-fault count, and the client-side fault counters reconcile exactly
/// with the per-session `transport_failures` totals.
#[test]
fn injected_faults_are_counted_and_absorbed_without_query_failures() {
    let (owner, outsourced, workload) = fixture(0x0B5E_0005, 8);
    let registry = Registry::enabled();
    let server = QueryServer::with_metrics(owner.keys(), outsourced, 2, registry.clone());
    let config = ServeConfig::new(2, 0x0B5E_0005)
        .with_variant(VariantChoice::Auto)
        .with_faults(FaultPlan::none().with_drop_after_send_every(17));
    let report = server.serve_tcp(&workload, &config).expect("faulted TCP serve");

    // The failure-count split: query failures stay zero — absorbed transport faults are
    // accounted separately and must be nonzero here (faults *were* injected).
    assert_eq!(report.query_failures(), 0, "retry must absorb every injected fault");
    assert!(report.transport_failures() > 0, "injected faults must be counted as absorbed");

    // Exact reconciliation: every absorbed fault is a reconnect-resume recovery, and
    // each increments the client's counter exactly once.
    let snapshot = &report.metrics;
    let reconnects = snapshot.counters.get("tcp.client.reconnects").copied().unwrap_or(0);
    assert_eq!(
        reconnects,
        report.transport_failures(),
        "client fault counters do not reconcile with the absorbed-fault total"
    );
    // Dropped-after-send faults exercise resumption and the server replay cache.
    assert!(snapshot.counters.get("tcp.server.resumed").copied().unwrap_or(0) > 0);
    assert!(snapshot.counters.get("pool.replayed").copied().unwrap_or(0) > 0);
    assert_histograms_structural(snapshot);
}

/// A session's raw protocol work is visible through the trace hook: one enter and one
/// exit per round, span names matching the request kinds.
#[test]
fn trace_hook_sees_every_round() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct CountingTrace {
        enters: AtomicU64,
        exits: AtomicU64,
    }
    impl sectopk_metrics::TraceHook for CountingTrace {
        fn enter(&self, _span: &str) {
            self.enters.fetch_add(1, Ordering::Relaxed);
        }
        fn exit(&self, _span: &str) {
            self.exits.fetch_add(1, Ordering::Relaxed);
        }
    }

    let mut rng = StdRng::seed_from_u64(0x0B5E_0006);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fig3_relation(), &mut rng).expect("encryption");
    let mut clouds =
        TwoClouds::with_transport(owner.keys(), 0x7ACE, TransportKind::InProcess, true)
            .expect("cloud setup");
    let trace = Arc::new(CountingTrace::default());
    clouds.set_trace_hook(trace.clone());
    let query = Query::top_k(1).attribute_indices([0, 1]).build().expect("query builds");
    let mut res_rng = resolution_rng(0x7ACE);
    execute_with_clouds(
        &mut clouds,
        outsourced.er(),
        outsourced.object_ids(),
        owner.keys(),
        &mut res_rng,
        &query,
    )
    .expect("query");
    let rounds = clouds.channel().rounds;
    assert!(rounds > 0);
    assert_eq!(trace.enters.load(Ordering::Relaxed), rounds, "one span enter per round");
    assert_eq!(trace.exits.load(Ordering::Relaxed), rounds, "one span exit per round");
}
