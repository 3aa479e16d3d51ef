//! The per-depth round budget, as a test.
//!
//! With round-trip batching every step of a depth costs one equality round and one
//! `RecoverEnc` round, so a depth's S1↔S2 round trips are a function of the list
//! lengths alone:
//!
//! ```text
//! bounds 2 + dedup 1                      (m > 1)
//! + update 2                              (the list it merges into is non-empty)
//! + on a check depth: [Qry_Ba merge 2] + one Compare per Batcher stage
//!                     + halting 1         (|T| ≥ k)
//! ```
//!
//! On a real link a query is round-bound, so an extra round is a latency regression
//! even when no timing test can see it; these tests make it fail here instead.  The
//! second half checks that the planner's RTT term predicts the same numbers.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::planner::estimated_rounds;
use sectopk_core::{PlannerInputs, QueryConfig, QueryVariant};
use sectopk_datasets::fig3_relation;
use sectopk_protocols::sort::enc_sort_rounds;
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{assert_valid_top_k, harness, run_query};

/// Distinct objects the sorted lists `attrs` of `relation` show at depths `from..to`.
fn distinct(relation: &Relation, attrs: &[usize], from: usize, to: usize) -> usize {
    let sorted = relation.sorted_lists();
    let seen: BTreeSet<ObjectId> = attrs
        .iter()
        .flat_map(|&a| sorted.list(a)[from..to].iter().map(|item| item.object))
        .collect();
    seen.len()
}

/// The budget of (0-based) depth `d`, from the plaintext shape of the scan.
fn budget(relation: &Relation, attrs: &[usize], k: usize, variant: QueryVariant, d: usize) -> u64 {
    let m = attrs.len();
    // (length of the list the per-depth update merges into, check-depth merge target,
    //  |T| after the depth, is this a check depth)
    let (update_into, merge_into, tracked, check) = match variant {
        QueryVariant::Full => (m * d, 0, m * (d + 1), true),
        QueryVariant::DupElim => {
            (distinct(relation, attrs, 0, d), 0, distinct(relation, attrs, 0, d + 1), true)
        }
        QueryVariant::Batched { p } => {
            let batch_start = d / p * p;
            (
                distinct(relation, attrs, batch_start, d),
                distinct(relation, attrs, 0, batch_start),
                distinct(relation, attrs, 0, d + 1),
                (d + 1).is_multiple_of(p) || d + 1 == relation.len(),
            )
        }
    };
    let mut rounds = if m > 1 { 2 + 1 } else { 0 };
    rounds += if update_into > 0 { 2 } else { 0 };
    if check {
        rounds += if merge_into > 0 { 2 } else { 0 };
        rounds += enc_sort_rounds(tracked) + usize::from(tracked >= k);
    }
    rounds as u64
}

#[test]
fn every_depth_of_fig3_costs_exactly_the_budget() {
    let relation = fig3_relation();
    let attrs = [0, 1, 2];
    let k = 2;
    let mut h = harness(relation.clone(), 0xB0D6);
    for config in [QueryConfig::full(), QueryConfig::dup_elim(), QueryConfig::batched(2)] {
        let (ids, outcome) = run_query(&mut h, &TopKQuery::sum(attrs.to_vec(), k), &config);
        let name = config.variant.name();
        assert_valid_top_k(&relation, &attrs, &[], k, &ids, name);
        let stats = &outcome.stats;
        assert!(stats.halted && stats.depths_scanned > 1, "{name}: {stats:?}");
        for (d, channel) in stats.per_depth_channel.iter().enumerate() {
            let expected = budget(&relation, &attrs, k, config.variant, d);
            assert_eq!(channel.rounds, expected, "{name}, depth {d}");
        }
        let total: u64 = stats.per_depth_channel.iter().map(|c| c.rounds).sum();
        assert_eq!(stats.channel.rounds, total, "{name}: a halted query has no trailing rounds");
    }
}

#[test]
fn single_list_queries_skip_bounds_and_dedup() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 0xB0D7);
    let (_, outcome) = run_query(&mut h, &TopKQuery::sum(vec![1], 2), &QueryConfig::full());
    for (d, channel) in outcome.stats.per_depth_channel.iter().enumerate() {
        assert_eq!(channel.rounds, budget(&relation, &[1], 2, QueryVariant::Full, d), "depth {d}");
    }
}

/// 32 rows × 3 attributes, mildly correlated so NRA halts before the end.
fn relation_32() -> Relation {
    let mut rng = StdRng::seed_from_u64(0x32);
    let rows = (0..32u64)
        .map(|id| Row {
            id: ObjectId(id),
            values: (0..3).map(|_| 2 * (32 - id) + rng.gen_range(0..64)).collect(),
        })
        .collect();
    Relation::new((0..3).map(|a| format!("a{a}")).collect(), rows)
}

#[test]
fn planner_round_term_is_within_15_percent_of_the_measured_rounds() {
    let relation = relation_32();
    let (attrs, k) = (vec![0, 1, 2], 3);
    let inputs = PlannerInputs::new(relation.len(), attrs.len(), k, 20.0, true);
    let mut h = harness(relation.clone(), 0xB0D8);
    for config in [QueryConfig::full(), QueryConfig::dup_elim(), QueryConfig::batched(4)] {
        let (ids, outcome) = run_query(&mut h, &TopKQuery::sum(attrs.clone(), k), &config);
        let name = config.variant.name();
        assert_valid_top_k(&relation, &attrs, &[], k, &ids, name);
        let stats = &outcome.stats;
        assert!(stats.halted && stats.depths_scanned >= 4, "{name}: {stats:?}");

        let measured = stats.channel.rounds as f64;
        let predicted = estimated_rounds(&inputs, config.variant, stats.depths_scanned);
        let error = (predicted - measured).abs() / measured;
        assert!(
            error <= 0.15,
            "{name}: predicted {predicted} rounds over {} depths, measured {measured}",
            stats.depths_scanned
        );
        // What the session recorded is the same model at the planner's own depth guess.
        let plan = stats.plan.as_ref().expect("the session records its plan");
        let at_guess = estimated_rounds(&plan.inputs, config.variant, plan.estimated_depths);
        assert_eq!(plan.estimated_rounds, at_guess, "{name}");
    }
}
