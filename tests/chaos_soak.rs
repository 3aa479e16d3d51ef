//! Chaos soak: the serving layer under sustained connection faults.
//!
//! [`QueryServer::serve_tcp`] runs a whole workload over real loopback sockets through
//! a [`Relay`] in front of the listener, which severs connections before requests reach
//! S2, after S2 has answered them, and delays replies, on a deterministic schedule of
//! each session's frames, while every socket session turns each injected failure into a
//! reconnect-resume-resend.  The invariant under soak is total: the faulted run's
//! per-session reports — resolved results, encrypted ciphertexts, planner decisions,
//! channel metrics, **both leakage ledgers** — must be byte-identical to the fault-free
//! in-process [`QueryServer::serve`] of the same configuration, with zero recorded
//! failures.  Ledger identity against the fault-free run is what pins the leakage
//! goldens: `tests/leakage_golden.rs` freezes the fault-free profiles, so equality here
//! proves faults cause zero golden drift and zero duplicate side effects.
//!
//! `SECTOPK_SOAK_QUERIES` scales the workload (default 24; CI's chaos job runs
//! hundreds).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{DataOwner, Outsourced, QueryVariant, VariantChoice};
use sectopk_datasets::{fig3_relation, QueryWorkload, WorkloadSpec};
use sectopk_server::{QueryServer, ServeConfig};
use sectopk_tests::{assert_sessions_identical, Faults, Relay, TEST_MODULUS_BITS};

fn soak_queries() -> usize {
    std::env::var("SECTOPK_SOAK_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
}

fn fixture(seed: u64, queries: usize) -> (DataOwner, Outsourced, QueryWorkload) {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fig3_relation(), &mut rng).expect("encryption");
    let spec = WorkloadSpec { queries, m_range: (1, 3), k_range: (1, 3) };
    let workload = QueryWorkload::generate(&spec, 3, seed ^ 0x77);
    (owner, outsourced, workload)
}

/// The soak proper: for each variant shape, serve the workload fault-free in-process,
/// then over TCP through a relay injecting `faults`, and require bit-for-bit identical
/// reports.
fn soak(faults: Faults, seed: u64) {
    let (owner, outsourced, workload) = fixture(seed, soak_queries());
    let server = QueryServer::new(owner.keys(), outsourced, 4);

    for (name, variant) in [
        ("Qry_F", VariantChoice::Fixed(QueryVariant::Full)),
        ("Qry_E", VariantChoice::Fixed(QueryVariant::DupElim)),
        ("auto", VariantChoice::Auto),
    ] {
        let config = ServeConfig::new(4, seed ^ 0xBA5E).with_variant(variant);
        let baseline = server.serve(&workload, &config).expect("fault-free in-process serve");
        let listener = server.listen("127.0.0.1:0").expect("bind the listener");
        let relay = Relay::start(listener.local_addr(), faults);
        let faulted = server
            .serve_tcp(&workload, &config, &relay.addr().to_string())
            .expect("faulted TCP serve");

        assert_eq!(baseline.query_failures(), 0, "{name}: fault-free run must be clean");
        assert_eq!(
            faulted.query_failures(),
            0,
            "{name}: every injected fault must be recovered transparently"
        );
        assert_eq!(faulted.sessions.len(), baseline.sessions.len());
        for (f, b) in faulted.sessions.iter().zip(baseline.sessions.iter()) {
            assert_sessions_identical(f, b, &format!("{name} session {}", f.session));
            // The soak must not pass vacuously: every session did real protocol work,
            // so a fault period smaller than its round count guarantees injections.
            assert!(
                f.metrics.rounds > 16,
                "{name} session {}: too few rounds ({}) to have exercised the fault schedule",
                f.session,
                f.metrics.rounds
            );
        }
    }
}

#[test]
fn soak_under_lost_replies_is_byte_identical_to_fault_free_serving() {
    // Drops *after* send: replies are lost in flight, so recovery leans on the
    // server-side replay cache (exactly-once via replay, never re-execution).
    soak(Faults { drop_after_every: 17, ..Faults::default() }, 0x50AC_0001);
}

#[test]
fn soak_under_lost_requests_is_byte_identical_to_fault_free_serving() {
    // Drops *before* send: requests are lost, so recovery re-executes exactly once.
    soak(Faults { drop_before_every: 13, ..Faults::default() }, 0x50AC_0002);
}

#[test]
fn soak_under_mixed_faults_and_delays_is_byte_identical_to_fault_free_serving() {
    // Both drop modes plus injected latency on a third, coprime schedule, so sessions
    // hit every combination at different points of their query streams.
    let faults = Faults {
        drop_before_every: 23,
        drop_after_every: 19,
        delay_every: 7,
        delay: Duration::from_millis(1),
    };
    soak(faults, 0x50AC_0003);
}

#[test]
fn overload_burst_sheds_sessions_with_typed_transient_errors() {
    // A two-seat server under a three-client burst: the admitted pair serves cleanly,
    // the shed client gets a *typed, transient* error it could back off and retry —
    // never a hang, never a stringly failure.
    use sectopk_core::{Query, Session};
    use sectopk_protocols::{MultiplexServer, PoolLimits, TcpCloudServer, DEFAULT_PARK_TTL};

    let (owner, outsourced, _) = fixture(0x50AC_0004, 1);
    let listener = TcpCloudServer::serve_pool(
        "127.0.0.1:0",
        std::sync::Arc::new(MultiplexServer::with_limits(2, PoolLimits { max_sessions: 2 })),
        DEFAULT_PARK_TTL,
    )
    .expect("capped listener binds");
    let addr = listener.local_addr().to_string();

    let mut admitted: Vec<_> = (1..=2u64)
        .map(|i| owner.connect_remote(&outsourced, &addr, 0x5EA7 + i).expect("seat admitted"))
        .collect();

    let err = owner
        .connect_remote(&outsourced, &addr, 0x5EA7)
        .map(|_| ())
        .expect_err("third session must be shed by admission control");
    assert!(err.is_transient(), "admission shedding must be retryable, got {err:?}");

    // The admitted sessions are unharmed by the burst.
    let query = Query::top_k(1).attribute_indices([0, 1]).build().expect("query builds");
    for session in &mut admitted {
        session.execute(&query).expect("admitted session still serves");
    }
}
