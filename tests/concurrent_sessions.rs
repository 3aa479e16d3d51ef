//! Concurrency stress suite for the multi-session query server: N sessions served
//! *concurrently* against one shared S2 pool must be observationally identical —
//! byte-identical encrypted results, identical per-session metrics and leakage ledgers —
//! to the same N sessions served one after another, and nothing recorded for one
//! session may bleed into another's view.
//!
//! These properties are what make the serving layer analyzable: the paper's leakage
//! profiles are stated per query/client, so "what did S2 observe while serving client
//! i" must stay a deterministic, isolation-respecting question under concurrency.
//!
//! The suite also covers failure isolation: one session submitting garbage (an invalid
//! query in its stream, or a raw malformed protocol request answered by S2's typed error
//! frame) must not take down the pool or perturb its neighbours.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, Outsourced, Query, QueryVariant, SecTopKError, Session, VariantChoice,
};
use sectopk_datasets::{fig3_relation, QueryWorkload, WorkloadSpec};
use sectopk_protocols::{LinkProfile, SessionId};
use sectopk_server::{QueryServer, ServeConfig, ServeReport, SessionReport};
use sectopk_storage::TopKQuery;
use sectopk_tests::{assert_sessions_identical, TEST_MODULUS_BITS};

fn fixture(seed: u64) -> (DataOwner, Outsourced, QueryWorkload) {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let relation = fig3_relation();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    let spec = WorkloadSpec { queries: 16, m_range: (1, 3), k_range: (1, 3) };
    let workload = QueryWorkload::generate(&spec, 3, seed ^ 0x77);
    (owner, outsourced, workload)
}

fn assert_reports_identical(parallel: &ServeReport, serial: &ServeReport) {
    assert_eq!(parallel.sessions.len(), serial.sessions.len());
    for (p, s) in parallel.sessions.iter().zip(serial.sessions.iter()) {
        assert_sessions_identical(p, s, &format!("{}", p.session));
    }
}

#[test]
fn sixteen_concurrent_sessions_match_serial_execution() {
    let (owner, outsourced, workload) = fixture(0xC0C0);
    let server = QueryServer::new(owner.keys(), outsourced, 4);
    let config =
        ServeConfig::new(16, 0xBA5E).with_variant(VariantChoice::Fixed(QueryVariant::Full));

    let parallel = server.serve(&workload, &config).expect("concurrent serve");
    let serial = server.serve_serial(&workload, &config).expect("serial serve");

    assert_eq!(parallel.queries, 16);
    assert_eq!(parallel.sessions.len(), 16);
    assert_eq!(parallel.query_failures(), 0);
    assert_reports_identical(&parallel, &serial);

    // The sessions really did distinct work (distinct queries ⇒ distinct S2 views for
    // at least one pair); byte-identity above must not come from idle sessions.
    let total_queries: usize = parallel.sessions.iter().map(|s| s.outcomes.len()).sum();
    assert_eq!(total_queries, 16);
    assert!(parallel.sessions.iter().all(|s| s.metrics.rounds > 0));
}

#[test]
fn auto_planned_serving_is_also_schedule_invariant() {
    // The adaptive planner is deterministic in the query shape, so `variant(Auto)`
    // serving must stay byte-identical between concurrent and serial execution, and
    // every outcome must record its decision.
    let (owner, outsourced, workload) = fixture(0xD0D0);
    let server = QueryServer::new(owner.keys(), outsourced, 3);
    let config = ServeConfig::new(8, 0x1CE).with_variant(VariantChoice::Auto);

    let parallel = server.serve(&workload, &config).expect("concurrent serve");
    let serial = server.serve_serial(&workload, &config).expect("serial serve");
    assert_reports_identical(&parallel, &serial);

    for session in &parallel.sessions {
        for plan in session.plans() {
            assert!(plan.auto, "Auto serving must record planner-made decisions");
            // fig3 is five rows: the planner must keep full privacy.
            assert_eq!(plan.variant, QueryVariant::Full);
        }
    }
}

#[test]
fn session_views_match_isolated_replay_so_ledgers_cannot_bleed() {
    let (owner, outsourced, workload) = fixture(0xE0E0);
    let config = ServeConfig::new(4, 0xF00D);

    // Serve the whole workload with 4 concurrent sessions sharing one S2 pool...
    let server = QueryServer::new(owner.keys(), outsourced.clone(), 4);
    let report = server.serve(&workload, &config).expect("concurrent serve");

    // ...then replay each session *alone* on a fresh server (same id, same derived
    // seed, same query slice).  If any state — ledger events, RNG positions, nonce
    // streams — leaked between concurrent sessions, the lone replay would differ.
    let partitions = workload.partition(4);
    for (session, queries) in report.sessions.iter().zip(partitions.iter()) {
        let lone_server = QueryServer::new(owner.keys(), outsourced.clone(), 1);
        // A serving run batches round trips over an ideal link; the replay says so itself.
        let mut lone = lone_server
            .open_session(session.session, session.seed, true, LinkProfile::ideal())
            .expect("isolated session");
        // The session keeps no answers (that is the serving loop's job), so the replay
        // collects what `execute` hands back and builds the report, as the loop does.
        let mut outcomes = Vec::new();
        for query in queries {
            let built = Query::from_spec(query.clone()).with_variant(config.variant);
            outcomes.push(lone.execute(&built).expect("isolated query").outcome);
        }
        let lone = SessionReport::new(session.session, session.seed, &lone, outcomes, Vec::new());
        assert_sessions_identical(session, &lone, &format!("isolated {}", session.session));
    }

    // Sanity: the per-session S2 views are genuinely per-session (different query
    // slices produce different equality patterns for at least one pair of sessions).
    let distinct = report
        .sessions
        .iter()
        .map(|s| s.s2_ledger.events().len())
        .collect::<std::collections::BTreeSet<_>>();
    assert!(
        distinct.len() > 1 || report.sessions.is_empty(),
        "all sessions recorded identical ledgers — isolation test is vacuous"
    );
}

#[test]
fn a_failing_session_does_not_disturb_its_neighbours() {
    // The serving loop deals query `j` to session `j mod 2 + 1`.  In the noisy run the
    // first query of session 1's stream names an attribute the 3-column relation lacks,
    // and a third session, seated in the same pool beside the run, sends S2 a raw
    // malformed request (which S2 answers with a typed error frame).  The server must
    // keep serving, the loop must record the invalid query under its index in session
    // 1's report, and session 2 must come out byte-identical to a run without the noise.
    let (owner, outsourced, workload) = fixture(0xF1F1);
    let config = ServeConfig::new(2, 0xABAD);

    let serve = |noisy: bool| {
        let server = QueryServer::new(owner.keys(), outsourced.clone(), 2);
        let mut stream = workload.clone();
        if noisy {
            stream.queries[0] = TopKQuery::sum(vec![9], 1);

            use sectopk_protocols::{ProtocolError, WireErrorCode};
            let mut rogue = server
                .open_session(SessionId(3), 0x0BAD, true, LinkProfile::ideal())
                .expect("open the rogue session");
            let malformed = sectopk_tests::malformed_request(rogue.clouds_mut());
            let err = rogue.clouds_mut().raw_round_trip(malformed).expect_err("must fail");
            assert!(
                matches!(&err, ProtocolError::Remote(e) if e.code == WireErrorCode::MalformedRequest),
                "typed wire error, got {err:?}"
            );
            // The rogue session itself is still usable after its failure.
            let valid = Query::from_spec(workload.queries[0].clone()).with_variant(config.variant);
            rogue.execute(&valid).expect("a session survives its own malformed request");
        }
        server.serve(&stream, &config).expect("serving survives a bad query")
    };

    let noisy = serve(true);
    let clean = serve(false);

    let bad = &noisy.sessions[0];
    assert_eq!(bad.failures.len(), 1, "the invalid query is recorded: {:?}", bad.failures);
    assert_eq!(bad.failures[0].index, 0);
    assert!(bad.failures[0].error.is_invalid_query(), "{:?}", bad.failures[0].error);
    assert_eq!(bad.outcomes.len(), clean.sessions[0].outcomes.len() - 1, "the rest ran");
    assert_eq!(noisy.query_failures(), 1);

    assert_sessions_identical(&noisy.sessions[1], &clean.sessions[1], "clean neighbour");
}

#[test]
fn a_session_is_reported_and_metered_under_the_id_it_is_seated_under() {
    // `SessionId(0)` means "assign one" to the pool, which then seats the session under
    // another id.  A session opened as 0 would be reported, and metered as
    // `session.0.round_nanos`, under an id it does not hold — and two of them would merge
    // there.  So this door refuses the non-id with a typed, permanent error: the id a
    // session is opened under is the id it is seated, reported and metered under.
    let (owner, outsourced, workload) = fixture(0xA1A1);
    let server = QueryServer::new(owner.keys(), outsourced, 2);
    let open =
        |id: u64, seed: u64| server.open_session(SessionId(id), seed, true, LinkProfile::ideal());
    for seed in [1, 2] {
        let err = open(0, seed).expect_err("SessionId(0) names no session");
        assert!(matches!(err, SecTopKError::Protocol(_)), "typed error, got {err:?}");
        assert!(!err.is_transient(), "retrying the same non-id cannot succeed: {err:?}");
    }
    let histograms = server.metrics_snapshot().histograms;
    assert!(!histograms.keys().any(|name| name.starts_with("session.0.")), "{histograms:?}");

    // Two sessions with ids of their own stay apart in the report and in the registry.
    let query = Query::from_spec(workload.queries[0].clone())
        .with_variant(VariantChoice::Fixed(QueryVariant::Full));
    let (mut first, mut second) = (open(1, 1).expect("session 1"), open(2, 2).expect("session 2"));
    first.execute(&query).expect("session 1 query");
    second.execute(&query).expect("session 2 query");
    second.execute(&query).expect("session 2 again");
    let err = open(2, 3).expect_err("id 2 is seated");
    assert!(matches!(err, SecTopKError::Protocol(_)), "typed error, got {err:?}");

    let histograms = server.metrics_snapshot().histograms;
    let (first, second) = (first.metrics(), second.metrics());
    let timed = |name: &str| histograms.get(name).map(|h| h.count);
    assert_eq!(timed("session.1.round_nanos"), Some(first.rounds));
    assert_eq!(timed("session.2.round_nanos"), Some(second.rounds));
    assert!(second.rounds > first.rounds);
}
