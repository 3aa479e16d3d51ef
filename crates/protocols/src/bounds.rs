//! The per-depth bound computation shared by `SecWorst` and `SecBest`.
//!
//! Both protocols have the same shape: compare one item against a randomly permuted row
//! of other items (one equality matrix per row), then add up the scores the returned
//! `E2(t)` bits select.  A `BoundPlan` is the local *plan* half of that — the
//! permuted `⊖` rows plus the bookkeeping to slice the selections back per item — and
//! `TwoClouds::run_bound_plans` drives any number of plans through **one** equality
//! round and **one** `RecoverEnc` round.  [`TwoClouds::sec_bounds_depth`] hands it the
//! SecWorst and the SecBest plan of a depth together: neither depends on the other's
//! output, so a depth's bounds cost two round trips, not four.
//!
//! What differs is how many of a row's bits can be set.  A SecBest row holds the seen
//! prefix of *one* list, where an object occurs once, so the row is a single
//! one-of-many selection whose "no bit set" value is the list's bottom score: one
//! multi-exponentiation and one `RecoverEnc` item per row.  A SecWorst row holds the
//! other items of the depth, which may all be the same object, so each of its cells is
//! selected on its own.  Per depth S2 strips `m(m−1)` ciphertexts for either bound,
//! whatever the depth.

use crate::error::{ProtocolError, Result};
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_ehl::EhlPlus;
use sectopk_storage::EncryptedItem;

use crate::context::TwoClouds;
use crate::primitives::{EqPlan, SelectJob};
use crate::transport::EqWants;

/// One planned equality row: the (permuted) scores its bits gate and, for SecBest, the
/// bottom score the row contributes when none of them is set.
struct Scan {
    job: usize,
    scores: Vec<Ciphertext>,
    bottom: Option<Ciphertext>,
}

/// The plan half of one sub-protocol's bound computation over some items ("jobs").
pub(crate) struct BoundPlan {
    /// Ledger context and scan depth of every row.
    context: &'static str,
    depth: usize,
    /// Each job's own score — the term every bound starts from.
    base: Vec<Ciphertext>,
    plans: Vec<EqPlan>,
    scans: Vec<Scan>,
}

impl BoundPlan {
    pub(crate) fn new(context: &'static str, depth: usize, base: Vec<Ciphertext>) -> Self {
        BoundPlan { context, depth, base, plans: Vec::new(), scans: Vec::new() }
    }

    /// Plan the equality row of `item` (job `job`) against `targets`, permuted so S2
    /// cannot attribute equality bits to particular lists or depths (Algorithm 4,
    /// line 2).
    ///
    /// Passing a `bottom` score (Algorithm 6, lines 8-12: the score added when no
    /// target matches) asserts that **at most one target can match**: the row is then
    /// recovered as one [`SelectJob`] over all its cells.  SecBest may say so because
    /// its targets are the prefix of a single list and an object occurs once per list
    /// (`Relation::new` rejects duplicate ids, token generation duplicate attributes).
    /// Without a `bottom`, any number of targets may match and the bound is the sum of
    /// per-cell selections.
    pub(crate) fn scan(
        &mut self,
        clouds: &mut TwoClouds,
        job: usize,
        item: &EncryptedItem,
        targets: &[&EncryptedItem],
        bottom: Option<Ciphertext>,
    ) {
        if targets.is_empty() {
            return;
        }
        let perm = RandomPermutation::sample(targets.len(), &mut clouds.s1.rng);
        let permuted: Vec<&EncryptedItem> = perm.permute(targets);
        let pairs: Vec<(&EhlPlus, &EhlPlus)> =
            permuted.iter().map(|other| (&item.ehl, &other.ehl)).collect();
        let diffs = clouds.eq_diffs(&pairs);
        self.plans.push(EqPlan {
            cols: diffs.len(),
            diffs,
            context: self.context,
            depth: Some(self.depth),
            want: EqWants::none(),
        });
        self.scans.push(Scan {
            job,
            scores: permuted.iter().map(|o| o.score.clone()).collect(),
            bottom,
        });
    }

    /// The finish half: consume this plan's slice of the selected ciphertexts and sum
    /// it into the per-job bounds.
    fn finish<'a>(
        self,
        clouds: &mut TwoClouds,
        selected: &mut impl Iterator<Item = &'a Ciphertext>,
    ) -> Vec<Ciphertext> {
        let pk = clouds.s1.keys.paillier_public.clone();
        let mut bounds = self.base;
        for scan in &self.scans {
            // One selection for a fused row, else one per cell.
            let selections = if scan.bottom.is_some() { 1 } else { scan.scores.len() };
            for s in selected.by_ref().take(selections) {
                bounds[scan.job] = pk.add(&bounds[scan.job], s);
            }
        }
        bounds.iter().map(|b| clouds.s1.pool.rerandomize(b)).collect()
    }
}

impl TwoClouds {
    /// Run `plans` through one equality exchange (every row of every plan, in plan
    /// order) and one combined selection, returning each plan's per-job bounds.
    pub(crate) fn run_bound_plans<const N: usize>(
        &mut self,
        mut plans: [BoundPlan; N],
    ) -> Result<[Vec<Ciphertext>; N]> {
        let eq_plans = plans.iter_mut().flat_map(|p| std::mem::take(&mut p.plans)).collect();
        let outcomes = self.run_eq_plans(eq_plans)?;

        // Per row: one selection over all its cells if it asserted at most one match
        // (`otherwise` = its bottom score, Algorithm 6 line 10), else one per cell.
        let scans: Vec<&Scan> = plans.iter().flat_map(|p| &p.scans).collect();
        if outcomes.len() != scans.len() {
            return Err(ProtocolError::transport("equality reply arity mismatch"));
        }
        let mut jobs: Vec<SelectJob<'_>> = Vec::new();
        for (scan, outcome) in scans.into_iter().zip(&outcomes) {
            if outcome.bits.len() != scan.scores.len() {
                return Err(ProtocolError::transport("equality row arity mismatch"));
            }
            let cells = outcome.bits.iter().zip(&scan.scores);
            match &scan.bottom {
                Some(bottom) => {
                    jobs.push(SelectJob { terms: cells.collect(), otherwise: Some(bottom) })
                }
                None => jobs.extend(cells.map(|(t, x)| SelectJob::gate(t, x, None))),
            }
        }
        let selected = self.select_many(&jobs)?;
        let mut selected = selected.iter();
        Ok(plans.map(|plan| plan.finish(self, &mut selected)))
    }

    /// Compute the local worst scores **and** the best scores of all `m` items at depth
    /// `d` (Algorithm 3 lines 5-6) in two round trips.  `seen[j]` must contain the items
    /// of queried list `j` at depths `0..=depth`.
    pub fn sec_bounds_depth(
        &mut self,
        depth_items: &[EncryptedItem],
        seen: &[Vec<EncryptedItem>],
        depth: usize,
    ) -> Result<(Vec<Ciphertext>, Vec<Ciphertext>)> {
        // Worst plans first, so S2's ledger keeps its SecWorst-then-SecBest order.
        let worst = self.plan_worst_depth(depth_items, depth);
        let best = self.plan_best_depth(depth_items, seen, depth);
        let [worsts, bests] = self.run_bound_plans([worst, best])?;
        Ok((worsts, bests))
    }
}
