//! The adaptive variant planner: the §11 cost model as code.
//!
//! The paper evaluates three processing variants that trade privacy for speed
//! (§10, §11.2): `Qry_F` (full privacy, the tracked list grows by `m` every depth),
//! `Qry_E` (SecDupElim keeps only distinct objects, leaking the per-depth uniqueness
//! pattern `UP^d` to S1) and `Qry_Ba` (the expensive de-duplication / sorting / halting
//! machinery runs only every `p` depths, diluting `UP^d` further).  Picking the variant
//! and the batching parameter `p` by hand is exactly the kind of knob a serving-grade
//! API must not expose, so [`plan`] chooses them from the query shape:
//!
//! 1. **Estimate the scan depth** `D` from `n` and `k` (NRA-style scans halt after a
//!    sublinear prefix of the lists; the paper's §11.2.1 runs scan hundreds of depths on
//!    10⁵–10⁶-row datasets).
//! 2. **Estimate each variant's total cost** in abstract ciphertext-operation units by
//!    walking the per-depth recurrence of Algorithm 3: SecWorst/SecBest (`m²`-ish per
//!    depth plus the seen-list sweep), SecUpdate against the tracked list, `EncSort` at
//!    the comparisons of its [`sort_plan`] and the halting comparison, plus a per-round
//!    latency term when the inter-cloud link has a nonzero RTT (§11.2.5).  The round
//!    count is the protocols' actual per-depth budget — bounds 1 + dedup 1 + update 1 +
//!    the sort plan's rounds + halting 1 — recorded as
//!    [`PlanDecision::estimated_rounds`].
//! 3. **Prefer privacy subject to a budget**: `Qry_F` whenever its estimated cost fits
//!    [`FULL_PRIVACY_BUDGET`], `Qry_E` while it fits [`DUP_ELIM_BUDGET`], and otherwise
//!    `Qry_Ba` with the cost-minimising `p` from a geometric candidate sweep (the paper
//!    suggests `p ≥ k`; the sweep never goes below that).
//!
//! The decision is recorded in [`crate::QueryStats::plan`], so every bench run and
//! `ServeReport` is self-describing about what the planner did.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use sectopk_protocols::sort::{sort_plan, RTT_UNITS_PER_MS};
use sectopk_protocols::LinkProfile;

use crate::query::QueryVariant;

/// Cost (in abstract units) below which full privacy (`Qry_F`) is considered
/// affordable.  Calibrated so the paper's worked examples and the test relations
/// (tens to a few hundred rows) stay on the maximally private path on an ideal link,
/// while the pinned 20 ms shapes (`n` = 64, 128) take `Qry_E` (DESIGN.md §8).
pub const FULL_PRIVACY_BUDGET: f64 = 36_000.0;

/// Cost budget for `Qry_E`: above this, the planner reaches for batching.
pub const DUP_ELIM_BUDGET: f64 = 500_000.0;

/// Fraction of per-depth items that are new *distinct* objects under `Qry_E` (objects
/// recur across the `m` lists as the scan deepens, so the distinct count grows slower
/// than `m·d`).
const DISTINCT_FRACTION: f64 = 2.0 / 3.0;

/// The query-shape inputs the planner decides from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlannerInputs {
    /// Relation size `n = |R|`.
    pub n: usize,
    /// Number of scoring attributes `m` of the query.
    pub m: usize,
    /// Number of requested results `k`.
    pub k: usize,
    /// Round-trip time of the inter-cloud link in milliseconds (0 for an ideal link).
    pub rtt_ms: f64,
}

impl PlannerInputs {
    /// Bundle the planner inputs.
    pub fn new(n: usize, m: usize, k: usize, rtt_ms: f64) -> Self {
        PlannerInputs { n, m: m.max(1), k: k.max(1), rtt_ms }
    }
}

/// Estimated total cost of each variant, in abstract ciphertext-operation units.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct VariantCosts {
    /// Estimated cost of `Qry_F`.
    pub full: f64,
    /// Estimated cost of `Qry_E`.
    pub dup_elim: f64,
    /// Estimated cost of `Qry_Ba` at the best candidate `p`.
    pub batched: f64,
    /// The batching parameter the `batched` estimate used.
    pub batched_p: usize,
}

/// The planner's decision for one query, recorded in [`crate::QueryStats`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanDecision {
    /// The chosen variant (with `p` filled in for `Qry_Ba`).
    pub variant: QueryVariant,
    /// `true` when the planner chose the variant (`variant(Auto)`); `false` when the
    /// caller fixed it and the costs are recorded for reference only.
    pub auto: bool,
    /// The inputs the decision was made from.
    pub inputs: PlannerInputs,
    /// The estimated halting depth `D` used by the cost model.
    pub estimated_depths: usize,
    /// The per-variant cost estimates behind the decision.
    pub costs: VariantCosts,
    /// S1↔S2 round trips the chosen variant is expected to take over
    /// `estimated_depths` (compare with `ChannelMetrics::rounds` after the run).
    pub estimated_rounds: f64,
}

impl PlanDecision {
    /// The paper's name of the chosen variant (`Qry_F` / `Qry_E` / `Qry_Ba`).
    pub fn variant_name(&self) -> &'static str {
        self.variant.name()
    }

    /// The chosen batching parameter, when the decision is `Qry_Ba`.
    pub fn batching_parameter(&self) -> Option<usize> {
        match self.variant {
            QueryVariant::Batched { p } => Some(p),
            _ => None,
        }
    }
}

/// Estimated halting depth: `k` depths to fill the top-k plus a sublinear tail of the
/// lists (NRA halts once the unseen upper bound is dominated, which empirically happens
/// after an `O(n^0.6)`-ish prefix on the §11 score distributions).
pub fn estimated_depths(n: usize, k: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let tail = (n as f64).powf(0.6).ceil() as usize;
    (k + tail).clamp(1, n)
}

/// Per-check halting cost: one comparison per tracked item outside the top-k plus the
/// unseen-bound comparison.
fn halt_cost(t: f64) -> f64 {
    t + 1.0
}

/// Rounds one SecUpdate into a list of `len` items costs: its equality round, which
/// also makes every selection, unless there is nothing to merge into yet.
fn update_rounds(len: f64) -> f64 {
    if len > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// One variant's estimate over a scan: ciphertext-operation units and wire round trips.
#[derive(Default)]
struct Estimate {
    ops: f64,
    rounds: f64,
}

impl Estimate {
    fn cost(&self, inputs: &PlannerInputs) -> f64 {
        self.ops + self.rounds * inputs.rtt_ms * RTT_UNITS_PER_MS
    }
}

/// The link `inputs` declare, as the sort reads it ([`sort_plan`]).
fn declared_link(inputs: &PlannerInputs) -> LinkProfile {
    LinkProfile { rtt: Duration::try_from_secs_f64(inputs.rtt_ms / 1e3).unwrap_or_default() }
}

/// Walk the per-depth recurrence of Algorithm 3 for `variant` over `depths` depths.
///
/// * `Qry_F`: the tracked list `T` grows by `m` every depth (duplicates are neutralised
///   in place, never removed), and every depth pays a sort and a halting check.
/// * `Qry_E`: the same, but `T` holds only distinct objects (`≈ DISTINCT_FRACTION·m·d`,
///   capped at `n`).
/// * `Qry_Ba`: between checks only the cheap within-batch accumulator is maintained;
///   every `p`-th depth pays the batch merge, the sort and the halting check.
fn estimate(inputs: &PlannerInputs, variant: QueryVariant, depths: usize) -> Estimate {
    let (m, n, k) = (inputs.m as f64, inputs.n as f64, inputs.k as f64);
    let (p, batched) = match variant {
        QueryVariant::Batched { p } => (p.max(1), true),
        _ => (1, false),
    };
    let tracked_at = |d: usize| match variant {
        QueryVariant::Full => m * d as f64,
        _ => (DISTINCT_FRACTION * m * d as f64).min(n),
    };

    let link = declared_link(inputs);
    let mut e = Estimate::default();
    let mut checked = 0; // the depth of the last check: T covers depths 1..=checked
    for d in 1..=depths {
        // SecWorst (m² eq tests) + SecBest (per list, the seen prefix sweep) share one
        // round; the per-depth SecDedup is a second.  A single list needs neither.
        e.ops += m * m + m * m * (d as f64).min(n) + m * m;
        e.rounds += if inputs.m > 1 { 2.0 } else { 0.0 };
        if batched {
            let in_batch = (d - checked) as f64;
            e.ops += m * (m * in_batch);
            e.rounds += update_rounds(in_batch - 1.0);
        }
        if d % p == 0 || d == depths {
            // SecUpdate (the batch merge, for Qry_Ba) into T, then sort + halting check.
            let tracked = tracked_at(d);
            let sort = sort_plan(tracked.ceil() as usize, link);
            e.ops += m * tracked + if batched { m * p as f64 } else { 0.0 };
            e.ops += sort.comparisons as f64 + halt_cost(tracked);
            e.rounds += update_rounds(tracked_at(checked))
                + sort.rounds as f64
                + if tracked >= k { 1.0 } else { 0.0 };
            checked = d;
        }
    }
    e
}

/// S1↔S2 round trips `variant` takes over `depths` scanned depths on this query shape —
/// the round term of the cost model, exposed so a run can be checked against it.
pub fn estimated_rounds(inputs: &PlannerInputs, variant: QueryVariant, depths: usize) -> f64 {
    estimate(inputs, variant, depths).rounds
}

/// The geometric `p` candidates the planner sweeps: `max(2, k) · 2^i`, capped at the
/// estimated scan depth (the paper suggests `p ≥ k`).
fn p_candidates(k: usize, depths: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = k.max(2);
    let cap = depths.max(k.max(2));
    while p <= cap {
        out.push(p);
        p *= 2;
    }
    if out.is_empty() {
        out.push(k.max(2));
    }
    out
}

/// Run the cost model and pick the variant: the most private option whose estimated
/// cost fits its budget, falling back to `Qry_Ba` at the cost-minimising `p`.
pub fn plan(inputs: &PlannerInputs) -> PlanDecision {
    let depths = estimated_depths(inputs.n, inputs.k);
    let cost = |variant| estimate(inputs, variant, depths).cost(inputs);
    let full = cost(QueryVariant::Full);
    let dup_elim = cost(QueryVariant::DupElim);
    let (batched_p, batched) = p_candidates(inputs.k, depths)
        .into_iter()
        .map(|p| (p, cost(QueryVariant::Batched { p })))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one p candidate");

    let variant = if full <= FULL_PRIVACY_BUDGET {
        QueryVariant::Full
    } else if dup_elim <= DUP_ELIM_BUDGET {
        QueryVariant::DupElim
    } else {
        QueryVariant::Batched { p: batched_p }
    };
    PlanDecision {
        variant,
        auto: true,
        inputs: *inputs,
        estimated_depths: depths,
        costs: VariantCosts { full, dup_elim, batched, batched_p },
        estimated_rounds: estimated_rounds(inputs, variant, depths),
    }
}

/// Record the cost model's view of a *caller-fixed* variant choice (the `auto: false`
/// decision stored in [`crate::QueryStats`] when the builder pinned the variant).
pub fn record_fixed(inputs: &PlannerInputs, variant: QueryVariant) -> PlanDecision {
    let mut decision = plan(inputs);
    decision.variant = variant;
    decision.auto = false;
    decision.estimated_rounds = estimated_rounds(inputs, variant, decision.estimated_depths);
    decision
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal(n: usize, m: usize, k: usize) -> PlannerInputs {
        PlannerInputs::new(n, m, k, 0.0)
    }

    #[test]
    fn small_relations_stay_fully_private() {
        // The Fig. 3 worked example (n = 5) and test-sized relations afford Qry_F.
        for n in [5, 10, 50] {
            let decision = plan(&ideal(n, 3, 2));
            assert_eq!(decision.variant, QueryVariant::Full, "n = {n}");
            assert!(decision.auto);
        }
    }

    #[test]
    fn midsize_relations_pick_dup_elim() {
        let decision = plan(&ideal(1_000, 3, 5));
        assert_eq!(decision.variant, QueryVariant::DupElim);
        assert!(decision.costs.full > FULL_PRIVACY_BUDGET);
    }

    #[test]
    fn section_11_dataset_sizes_pick_batched_with_p_at_least_k() {
        // The §11.2.1 datasets: 10⁵ rows (insurance/forest-shaped) up to 10⁶ (synthetic).
        for n in [100_000, 500_000, 1_000_000] {
            let decision = plan(&ideal(n, 3, 5));
            match decision.variant {
                QueryVariant::Batched { p } => {
                    assert!(p >= 5, "p = {p} must be at least k");
                    assert_eq!(decision.batching_parameter(), Some(p));
                    assert_eq!(decision.variant_name(), "Qry_Ba");
                }
                other => panic!("n = {n}: expected Qry_Ba, planner chose {other:?}"),
            }
            assert!(decision.costs.batched <= decision.costs.dup_elim);
            assert!(decision.costs.dup_elim <= decision.costs.full);
        }
    }

    #[test]
    fn costs_are_monotone_in_the_relation_size() {
        let small = plan(&ideal(100, 3, 5));
        let large = plan(&ideal(10_000, 3, 5));
        assert!(large.costs.full > small.costs.full);
        assert!(large.estimated_depths > small.estimated_depths);
    }

    #[test]
    fn latency_raises_costs_and_never_shrinks_the_batching_parameter() {
        // A WAN RTT (§11.2.5) makes every round trip expensive: all estimates grow, and
        // the cost-minimising p can only move up (each extra depth in the batch saves
        // check rounds that now cost real wall-clock).
        let ideal_plan = plan(&ideal(100_000, 3, 5));
        let wan_plan = plan(&PlannerInputs::new(100_000, 3, 5, 20.0));
        assert!(wan_plan.costs.full > ideal_plan.costs.full);
        assert!(wan_plan.costs.dup_elim > ideal_plan.costs.dup_elim);
        assert!(wan_plan.costs.batched > ideal_plan.costs.batched);
        assert!(wan_plan.costs.batched_p >= ideal_plan.costs.batched_p);
    }

    #[test]
    fn test_scale_decisions_are_pinned() {
        // What `Auto` executes on the relations the suites and the benchmark's mixed
        // query list use; a flip here changes what those runs measure.  With sorts priced
        // at their plan's comparisons, Qry_F fits its budget on the whole ideal-link grid
        // ((128, 4, 5): 28.6 k units; DESIGN.md §10).
        for (n, m, k) in [64usize, 128]
            .into_iter()
            .flat_map(|n| (2..=4usize).flat_map(move |m| (2..=5usize).map(move |k| (n, m, k))))
        {
            let lan = plan(&PlannerInputs::new(n, m, k, 0.0)).variant;
            let wan = plan(&PlannerInputs::new(n, m, k, 20.0)).variant;
            assert_eq!(lan, QueryVariant::Full, "n = {n}, m = {m}, k = {k}, ideal link");
            assert_eq!(wan, QueryVariant::DupElim, "n = {n}, m = {m}, k = {k}, 20 ms");
        }
    }

    #[test]
    fn estimated_depths_are_clamped_to_the_relation() {
        assert_eq!(estimated_depths(0, 3), 0);
        assert_eq!(estimated_depths(5, 3), 5);
        assert!(estimated_depths(100_000, 5) < 100_000);
        assert!(estimated_depths(100_000, 5) >= 5);
    }

    #[test]
    fn fixed_choices_are_recorded_with_auto_false() {
        let decision = record_fixed(&ideal(5, 3, 2), QueryVariant::DupElim);
        assert!(!decision.auto);
        assert_eq!(decision.variant, QueryVariant::DupElim);
        // The cost estimates are still those of the model, for reference.
        assert!(decision.costs.full > 0.0);
    }

    #[test]
    fn p_candidates_respect_k() {
        assert!(p_candidates(5, 1000).iter().all(|&p| p >= 5));
        assert!(!p_candidates(5, 3).is_empty());
    }
}
