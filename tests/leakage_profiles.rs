//! Executable check of Theorem 9.2's leakage profiles: after running each query variant,
//! each cloud's recorded view contains only the observations its profile allows, and the
//! optimisations' extra leakage (uniqueness pattern) appears exactly where §10 says it
//! does.

use sectopk_core::{check_leakage, profile_for, QueryConfig, QueryVariant, Session};
use sectopk_datasets::fig3_relation;
use sectopk_storage::TopKQuery;
use sectopk_tests::{harness, run_query};

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
