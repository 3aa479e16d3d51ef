//! Serving: one shared S2 pool answering a workload of top-k queries for many
//! concurrent client sessions, with per-session metrics, leakage ledgers, and the
//! adaptive planner choosing the processing variant per query.
//!
//! ```text
//! cargo run --release -p sectopk-examples --example serving
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{DataOwner, VariantChoice};
use sectopk_datasets::{QueryWorkload, WorkloadSpec};
use sectopk_server::{QueryServer, ServeConfig};
use sectopk_storage::{ObjectId, Relation, Row};

fn main() {
    let mut rng = StdRng::seed_from_u64(41);

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

    // --- A workload of independent client queries (§11.2.1 methodology) -----------------
    let spec = WorkloadSpec { queries: 12, m_range: (1, 3), k_range: (1, 3) };
    let workload = QueryWorkload::generate(&spec, relation.num_attributes(), 41);
    println!("[clients] generated a {}-query workload", workload.queries.len());

    // --- Serve it: 4 concurrent sessions sharing one 4-worker S2 pool, planner on -------
    let sessions = 4;
    let server = QueryServer::new(owner.keys(), outsourced.clone(), sessions);
    let config = ServeConfig::new(sessions, 0xACE).with_variant(VariantChoice::Auto);
    println!("[server]  serving with {sessions} sessions over {sessions} S2 compute permits…");
    let report = server.serve(&workload, &config).expect("serve");

    println!(
        "[server]  {} queries in {:.2}s  →  {:.2} queries/s aggregate, {} failures\n",
        report.queries,
        report.wall_seconds,
        report.throughput_qps(),
        report.query_failures(),
    );
    println!("session | queries | rounds | bytes    | S2 ledger events");
    println!("--------+---------+--------+----------+-----------------");
    for s in &report.sessions {
        println!(
            "{:>7} | {:>7} | {:>6} | {:>8} | {:>16}",
            s.session.0,
            s.outcomes.len(),
            s.metrics.rounds,
            s.metrics.bytes,
            s.s2_ledger.len(),
        );
    }

    println!("\nplanner decisions across the workload:");
    for (variant, p, count) in report.variant_histogram() {
        match p {
            Some(p) => println!("  {variant} (p = {p}): {count} queries"),
            None => println!("  {variant}: {count} queries"),
        }
    }

    // The serial reference run is byte-identical per session — scheduling is
    // unobservable (the concurrency suite asserts this for 16 sessions).
    let serial = server.serve_serial(&workload, &config).expect("serial serve");
    let identical = report
        .sessions
        .iter()
        .zip(serial.sessions.iter())
        .all(|(a, b)| a.s2_ledger.events() == b.s2_ledger.events() && a.metrics == b.metrics);
    println!("\nconcurrent == serial (per-session ledgers & metrics): {identical}");
    assert!(identical, "serving must be schedule-invariant");
}
