//! Golden leakage-ledger regression tests.
//!
//! The leakage profile is a *security contract* (Theorem 9.2): what each cloud observes
//! during a query is exactly the leakage function's output, nothing more.  The
//! `leakage_profiles` suite checks the recorded views against the allowed event kinds;
//! this suite pins the **entire fixed-seed event stream** — kinds, contexts, depths,
//! bit values, order — as committed JSON snapshots, so any change to what the protocols
//! reveal (a new event, a reordered exchange, an extra equality bit) fails loudly in
//! review instead of slipping in silently.
//!
//! Each scenario has a second, **order-insensitive** snapshot (`*.digest.json`): event
//! counts per (kind, context, depth), equality bits split by value, comparison events
//! counted without their bit, and the scalar disclosures verbatim.  S1's random
//! permutations and the interleaving of its RNG draws cannot move it, so a change that
//! only reschedules S1's requests re-blesses the ordered snapshot and must leave the
//! digest byte-identical; a digest diff means *what* is revealed changed.
//!
//! The digest is compared first and a failing run reports on both snapshots, so the
//! un-blessed tree already says which kind of change it is.  To re-bless after an
//! *intentional* change:
//!
//! ```text
//! cargo test --release --test leakage_golden              # digest identical?  then:
//! SECTOPK_BLESS=1 cargo test --release --test leakage_golden
//! ```
//!
//! and audit the diff of `tests/golden/*.json` like any other security-relevant change.
//! The snapshots are transport-invariant (asserted by `transport_equivalence`), so the
//! same goldens hold on the in-process, channel and multiplex paths.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sectopk_core::{
    encrypt_for_join, join_token, sec_query, top_k_join, DataOwner, JoinQuery, QueryConfig,
};
use sectopk_datasets::fig3_relation;
use sectopk_protocols::{LeakageEvent, LeakageLedger, TransportKind, TwoClouds};
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// The committed shape: both parties' full event streams for one fixed-seed execution.
#[derive(Serialize)]
struct GoldenLedgers {
    s1: LeakageLedger,
    s2: LeakageLedger,
}

/// What one party's ledger reveals once the order S1's permutations induce is factored
/// out.
#[derive(Serialize)]
struct LedgerDigest {
    /// Events per `kind/context/depth` (plus `/equal` or `/distinct` for equality bits).
    counts: BTreeMap<String, usize>,
    /// The scalar disclosures, verbatim and in order.
    disclosures: Vec<LeakageEvent>,
}

#[derive(Serialize)]
struct GoldenDigests {
    s1: LedgerDigest,
    s2: LedgerDigest,
}

fn digest(ledger: &LeakageLedger) -> LedgerDigest {
    let mut counts = BTreeMap::new();
    let mut disclosures = Vec::new();
    for event in &ledger.events() {
        let key = match event {
            LeakageEvent::EqualityBit { context, depth, equal } => {
                let depth = depth.map_or("-".to_string(), |d| d.to_string());
                let value = if *equal { "equal" } else { "distinct" };
                format!("{}/{context}/{depth}/{value}", event.kind())
            }
            LeakageEvent::ComparisonBit { context, .. } | LeakageEvent::BlindedSign { context } => {
                format!("{}/{context}", event.kind())
            }
            // The candidates, not the rounds that carried them.
            LeakageEvent::MaskedValues { context, count } => {
                *counts.entry(format!("{}/{context}", event.kind())).or_insert(0) += count;
                continue;
            }
            LeakageEvent::UniqueCount { .. }
            | LeakageEvent::HaltingDepth(_)
            | LeakageEvent::QueryIssued { .. }
            | LeakageEvent::JoinMatchCount(_) => {
                disclosures.push(event.clone());
                continue;
            }
        };
        *counts.entry(key).or_insert(0) += 1;
    }
    LedgerDigest { counts, disclosures }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Check both snapshots of one scenario — the order-insensitive digest
/// (`{name}.digest.json`) first, then the ordered event streams (`{name}.json`) — and
/// report on both before failing, so one un-blessed run tells a change that merely
/// reorders S1's draws (digest identical: re-bless the ordered snapshot) from one that
/// changes what is revealed (digest diverged: stop).
fn check_scenario(name: &str, clouds: &TwoClouds) {
    let ledgers = GoldenLedgers { s1: clouds.s1_ledger().clone(), s2: clouds.s2_ledger() };
    let digests = GoldenDigests { s1: digest(&ledgers.s1), s2: digest(&ledgers.s2) };
    let digest_verdict = check_golden(&format!("{name}.digest.json"), &digests);
    let ordered_verdict = check_golden(&format!("{name}.json"), &ledgers);
    assert!(
        digest_verdict.is_ok() && ordered_verdict.is_ok(),
        "leakage ledger for {name} diverged from the committed snapshots:\n  \
         digest  (what is revealed):   {}\n  \
         ordered (in which sequence):  {}\n\
         An identical digest under a diverged ordered stream is a rescheduling of S1's \
         draws: re-bless with SECTOPK_BLESS=1 and audit the diff.  A diverged digest \
         is a change of the leakage profile.",
        digest_verdict.err().unwrap_or_else(|| "identical".into()),
        ordered_verdict.err().unwrap_or_else(|| "identical".into()),
    );
}

/// Compare the serialized ledgers against the committed snapshot, or rewrite it when
/// `SECTOPK_BLESS` is set.  `Err` says how the two differ.
fn check_golden(name: &str, ledgers: &impl Serialize) -> Result<(), String> {
    let rendered = serde_json::to_string_pretty(ledgers).expect("serialize ledgers") + "\n";
    let path = golden_path(name);
    if std::env::var("SECTOPK_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        return Ok(());
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with SECTOPK_BLESS=1 to create it",
            path.display()
        )
    });
    if committed == rendered {
        return Ok(());
    }
    let (was, now) = (committed.lines().count(), rendered.lines().count());
    let changed = committed.lines().zip(rendered.lines()).filter(|(a, b)| a != b).count();
    Err(format!("DIVERGED — {was} → {now} lines, {changed} of the common lines differ"))
}

#[test]
fn full_query_ledgers_match_golden_snapshot() {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let relation = fig3_relation();
    let (er, _) = owner.encrypt(&relation, &mut rng).expect("encryption");
    let token = owner.authorize_client().token(3, &TopKQuery::sum(vec![0, 1, 2], 2)).unwrap();
    // Pinned to the in-process transport so the test is independent of the CI
    // transport matrix; the goldens hold for all transports by equivalence.
    let mut clouds =
        TwoClouds::with_transport(owner.keys(), 0x601D_BEEF, TransportKind::InProcess, true)
            .expect("cloud setup");
    sec_query(&mut clouds, &er, &token, &QueryConfig::full()).expect("query");
    check_scenario("ledger_full_query", &clouds);
}

#[test]
fn join_ledgers_match_golden_snapshot() {
    let mut rng = StdRng::seed_from_u64(0x601E);
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
    let mut clouds =
        TwoClouds::with_transport(keys, 0x601E_CAFE, TransportKind::InProcess, true).unwrap();
    top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();
    check_scenario("ledger_join", &clouds);
}
