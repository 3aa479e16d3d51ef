//! Executable check of Theorem 9.2's leakage profiles: after running each query variant,
//! each cloud's recorded view contains only the observations its profile allows, and the
//! optimisations' extra leakage (uniqueness pattern) appears exactly where §10 says it
//! does.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    check_leakage, profile_for, sec_query, DataOwner, QueryConfig, QueryVariant, Session,
};
use sectopk_datasets::fig3_relation;
use sectopk_protocols::{
    InProcessTransport, LeakageEvent, LeakageLedger, S1Request, S2Response, Traffic, Transport,
    TransportKind, TwoClouds,
};
use sectopk_storage::{Relation, Row, TopKQuery};
use sectopk_tests::{harness, run_query, TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// The three variants, as the fig3 query runs them.
fn configs() -> [QueryConfig; 3] {
    [QueryConfig::full(), QueryConfig::dup_elim(), QueryConfig::batched(2)]
}

/// An in-process transport that keeps every `Signs` reply S2 sends, as sent.
#[derive(Debug)]
struct SignTap {
    inner: InProcessTransport,
    replies: Arc<Mutex<Vec<Vec<i8>>>>,
}

impl Transport for SignTap {
    fn round_trip(
        &mut self,
        request: S1Request,
    ) -> sectopk_protocols::Result<(S2Response, Traffic)> {
        let (response, traffic) = self.inner.round_trip(request)?;
        let mut replies = self.replies.lock().expect("tap lock");
        let parts = match &response {
            S2Response::Batch(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for part in parts {
            if let S2Response::Signs(signs) = part {
                replies.push(signs.clone());
            }
        }
        Ok((response, traffic))
    }
    fn s2_ledger(&self) -> LeakageLedger {
        self.inner.s2_ledger()
    }
    fn reset_s2(&mut self) {
        self.inner.reset_s2();
    }
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

/// Run the fig3 top-2 query over `relation` (fig3 or a rescaling of it) with fixed seeds
/// and return the clouds plus every `Compare` reply S2 sent.
fn fig3_query(relation: &Relation, config: &QueryConfig) -> (TwoClouds, Vec<Vec<i8>>) {
    let mut rng = StdRng::seed_from_u64(0x7135);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (er, _) = owner.encrypt(relation, &mut rng).expect("encryption");
    let token = owner.authorize_client().token(3, &TopKQuery::sum(vec![0, 1, 2], 2)).unwrap();
    let replies = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&replies);
    let mut clouds = TwoClouds::over_transport(owner.keys(), 0x7136, move |provision| {
        Ok(Box::new(SignTap { inner: InProcessTransport::new(provision.build()), replies: tap }))
    })
    .expect("cloud setup");
    sec_query(&mut clouds, &er, &token, config).expect("query");
    let replies = replies.lock().expect("tap lock").clone();
    (clouds, replies)
}

#[test]
fn no_compare_reply_shows_a_tie() {
    // Under Qry_F every neutralised duplicate and every sort pad has worst score Z = −1,
    // so a comparison that could answer 0 would count them for S1 (and S2): `UP^d`,
    // which only Qry_E may reveal.  Odd differences are never zero.
    let relation = fig3_relation();
    for config in configs() {
        let name = config.variant.name();
        let (_, replies) = fig3_query(&relation, &config);
        assert!(!replies.is_empty(), "{name}: the query compared nothing");
        let zeros: Vec<usize> =
            replies.iter().map(|signs| signs.iter().filter(|&&s| s == 0).count()).collect();
        assert!(zeros.iter().all(|&z| z == 0), "{name}: zero signs per Compare reply {zeros:?}");
        assert!(replies.iter().flatten().all(|s| s.abs() == 1), "{name}: {replies:?}");
    }
}

/// S1's comparison outcomes, in the order it recorded them.
fn comparison_bits(ledger: &LeakageLedger) -> Vec<(String, bool)> {
    ledger
        .iter()
        .filter_map(|event| match event {
            LeakageEvent::ComparisonBit { context, less_or_equal } => {
                Some((context, less_or_equal))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn s1_comparison_bits_are_a_function_of_the_order_alone() {
    // Tripling every score keeps the order of every pair S1 can compare — sums scale, and
    // real bounds stay ≥ 0 > Z = −1 — so with the same seeds the sorts and halting checks
    // must show S1 exactly the same bits: what EncSort reveals is the order of the list it
    // sorted, never a value.
    let relation = fig3_relation();
    let tripled = Relation::new(
        relation.attribute_names().to_vec(),
        relation
            .rows()
            .iter()
            .map(|row| Row { id: row.id, values: row.values.iter().map(|v| 3 * v).collect() })
            .collect(),
    );
    for config in configs() {
        let name = config.variant.name();
        let (plain, _) = fig3_query(&relation, &config);
        let (scaled, _) = fig3_query(&tripled, &config);
        let bits = comparison_bits(plain.s1_ledger());
        assert!(bits.iter().any(|(context, _)| context == "enc_sort"), "{name}: nothing sorted");
        assert_eq!(bits, comparison_bits(scaled.s1_ledger()), "{name}");
        check_leakage(&plain, config.variant).expect("the profile holds");
    }
}

#[test]
fn full_privacy_view_matches_the_profile() {
    let relation = fig3_relation();
    let mut h = harness(relation, 100);
    let query = TopKQuery::sum(vec![0, 1, 2], 2);
    let (_, _) = run_query(&mut h, &query, &QueryConfig::full());

    check_leakage(h.session.clouds(), QueryVariant::Full).expect("Qry_F leakage profile");

    // S1 must not have learned the uniqueness pattern under full privacy.
    assert_eq!(h.session.clouds().s1_ledger().count_kind("unique_count"), 0);
    // S1 learned the query pattern and the halting depth exactly once each.
    assert_eq!(h.session.clouds().s1_ledger().count_kind("query_issued"), 1);
    assert_eq!(h.session.clouds().s1_ledger().count_kind("halting_depth"), 1);
    // S2 learned equality bits (the EP^d pattern) and nothing that identifies objects.
    assert!(h.session.clouds().s2_ledger().count_kind("equality_bit") > 0);
    assert_eq!(h.session.clouds().s2_ledger().count_kind("unique_count"), 0);
}

#[test]
fn dup_elim_reveals_the_uniqueness_pattern_to_s1_only() {
    let relation = fig3_relation();
    let mut h = harness(relation, 101);
    let query = TopKQuery::sum(vec![0, 1, 2], 2);
    let (_, outcome) = run_query(&mut h, &query, &QueryConfig::dup_elim());

    check_leakage(h.session.clouds(), QueryVariant::DupElim).expect("Qry_E leakage profile");
    assert!(h.session.clouds().s1_ledger().count_kind("unique_count") > 0);
    assert_eq!(h.session.clouds().s2_ledger().count_kind("unique_count"), 0);
    assert!(outcome.stats.depths_scanned > 0);

    // The same execution would violate the stricter full-privacy profile.
    assert!(check_leakage(h.session.clouds(), QueryVariant::Full).is_err());
}

#[test]
fn batched_profile_holds_and_checks_are_sparser() {
    let relation = fig3_relation();
    let mut h = harness(relation, 102);
    let query = TopKQuery::sum(vec![0, 1, 2], 2);

    let (_, every_depth) = run_query(&mut h, &query, &QueryConfig::dup_elim());
    check_leakage(h.session.clouds(), QueryVariant::DupElim).expect("Qry_E profile");
    let (_, batched) = run_query(&mut h, &query, &QueryConfig::batched(4));
    check_leakage(h.session.clouds(), QueryVariant::Batched { p: 4 }).expect("Qry_Ba profile");

    // Batching runs at most ⌈d/p⌉ halting checks instead of one per depth.
    assert!(batched.stats.halting_checks <= every_depth.stats.halting_checks);
}

#[test]
fn s2_equality_pattern_counts_are_bounded_by_the_scan() {
    // The number of equality bits S2 sees is bounded by the pairwise tests the scanned
    // depths can generate — a coarse but executable version of "the simulator can
    // generate S2's view from EP^d alone".
    let relation = fig3_relation();
    let n = relation.len();
    let mut h = harness(relation, 103);
    let m = 3usize;
    let query = TopKQuery::sum(vec![0, 1, 2], 2);
    let (_, outcome) = run_query(&mut h, &query, &QueryConfig::full());
    let d = outcome.stats.depths_scanned;

    let (equal, total) = sectopk_core::leakage::s2_equality_pattern_summary(h.session.clouds());
    assert!(equal <= total);
    // Per depth: SecWorst m(m−1), SecBest ≤ m(m−1)·d, SecDedup m(m−1)/2, SecUpdate ≤ m·|T|
    // with |T| ≤ m·d.  A generous global bound:
    let bound = d * (m * m + m * m * d + m * m + m * m * d) + n * n;
    assert!(total <= bound, "S2 saw {total} equality bits, more than the structural bound {bound}");
}

#[test]
fn profiles_are_consistent_with_the_paper_table() {
    // Sanity on the profile constants themselves.
    let full = profile_for(QueryVariant::Full);
    assert!(full.s1_allowed.contains(&"query_issued"));
    assert!(full.s1_allowed.contains(&"halting_depth"));
    assert!(!full.s1_allowed.contains(&"equality_bit"));
    assert!(full.s2_allowed.contains(&"equality_bit"));
    assert!(!full.s2_allowed.contains(&"halting_depth"));
}
