//! The per-depth bound computation shared by `SecWorst` and `SecBest`.
//!
//! Both protocols have the same shape: compare one item against a randomly permuted row
//! of other items (one equality matrix per row), then add up the scores the row's
//! equality bits select.  A `BoundPlan` is the local *plan* half of that — the permuted
//! `⊖` rows, each with its masked scores and its one selection job — and
//! `TwoClouds::run_bound_plans` drives any number of plans through **one** equality
//! round, in which S2 also makes every selection.  [`TwoClouds::sec_bounds_depth`] hands
//! it the SecWorst and the SecBest plan of a depth together: neither depends on the
//! other's output, so a depth's bounds cost one round trip.
//!
//! What differs is how many of a row's bits can be set.  A SecBest row holds the seen
//! prefix of *one* list, where an object occurs once, so the row is a single
//! one-of-many job whose default is the list's bottom score.  A SecWorst row holds the
//! other items of the depth, which may all be the same object, so it is a *sum* job over
//! its cells.  Either way a row is one job: S2 returns one selection and one `Enc(t)` per
//! cell, and S1 unmasks it with one multi-exponentiation.  Rows never share candidates:
//! S1 permutes each row's cells so S2 cannot link them, and a shared candidate would.

use crate::error::Result;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_ehl::EhlPlus;
use sectopk_storage::EncryptedItem;

use crate::context::TwoClouds;
use crate::primitives::EqPlan;
use crate::transport::Per;

/// The plan half of one sub-protocol's bound computation over some items ("jobs").
pub(crate) struct BoundPlan {
    /// Ledger context and scan depth of every row.
    context: &'static str,
    depth: usize,
    /// Each job's own score — the term every bound starts from.
    base: Vec<Ciphertext>,
    plans: Vec<EqPlan>,
    /// The job each planned row contributes to.
    rows: Vec<usize>,
}

impl BoundPlan {
    pub(crate) fn new(context: &'static str, depth: usize, base: Vec<Ciphertext>) -> Self {
        BoundPlan { context, depth, base, plans: Vec::new(), rows: Vec::new() }
    }

    /// Plan the equality row of `item` (job `job`) against `targets`, permuted so S2
    /// cannot attribute equality bits to particular lists or depths (Algorithm 4,
    /// line 2), with the targets' scores as the row's masked candidates.
    ///
    /// Passing a `bottom` score (Algorithm 6, lines 8-12: the score added when no
    /// target matches) asserts that **at most one target can match**: the row is then
    /// one one-of-many job with `bottom` as its default.  SecBest may say so because
    /// its targets are the prefix of a single list and an object occurs once per list
    /// (`Relation::new` rejects duplicate ids, token generation duplicate attributes).
    /// Without a `bottom`, any number of targets may match and the row is a sum job.
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
        let mut plan = EqPlan::new(diffs, pairs.len(), self.context, Some(self.depth));
        let scores = plan.candidates(Per::Cell, permuted.iter().map(|o| o.score.clone()).collect());
        let bottom = bottom.map(|b| plan.candidates(Per::Row, vec![b]));
        plan.select(Per::Row, scores, bottom);
        self.plans.push(plan);
        self.rows.push(job);
    }

    /// The finish half: add each row's selection, from this plan's slice of them, to
    /// its job's bound.
    fn finish(
        self,
        clouds: &mut TwoClouds,
        selected: &mut impl Iterator<Item = Ciphertext>,
    ) -> Vec<Ciphertext> {
        let pk = clouds.s1.keys.paillier_public.clone();
        let mut bounds = self.base;
        for (job, s) in self.rows.into_iter().zip(selected) {
            bounds[job] = pk.add(&bounds[job], &s);
        }
        bounds.iter().map(|b| clouds.s1.pool.rerandomize(b)).collect()
    }
}

impl TwoClouds {
    /// Run `plans` through one equality exchange (every row of every plan, in plan
    /// order, with its selection), returning each plan's per-job bounds.
    pub(crate) fn run_bound_plans<const N: usize>(
        &mut self,
        mut plans: [BoundPlan; N],
    ) -> Result<[Vec<Ciphertext>; N]> {
        let eq_plans = plans.iter_mut().flat_map(|p| std::mem::take(&mut p.plans)).collect();
        // One outcome per row, each checked to hold its row's one selection.
        let outcomes = self.run_eq_plans(eq_plans)?;
        let mut selected = outcomes.into_iter().flat_map(|o| o.selected.concat());
        Ok(plans.map(|plan| plan.finish(self, &mut selected)))
    }

    /// Compute the local worst scores **and** the best scores of all `m` items at depth
    /// `d` (Algorithm 3 lines 5-6) in one round trip.  `seen[j]` must contain the items
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
