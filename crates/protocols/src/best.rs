//! `SecBest` (Algorithm 6): the per-depth best-score (upper-bound) computation.
//!
//! At depth `d`, for the item `E(I_i) = ⟨EHL(o_i), Enc(x_i)⟩` appearing in list `i`, the
//! NRA upper bound is
//!
//! ```text
//! B(o_i) = x_i + Σ_{j ≠ i} ( x_j(o_i)   if o_i already appeared in list j at depth ≤ d
//!                            x_j^d      otherwise — the "bottom" score last seen in L_j )
//! ```
//!
//! S1 scans the prefix of every other list seen so far and asks S2 for the equality bits
//! (the designed equality-pattern leakage).  An object occurs once per list, so of the
//! `d + 1` bits of one item-vs-prefix row **at most one** is set, and Algorithm 6's
//! per-list decision (lines 8-12: the matching score, or the bottom score when no depth
//! matched) is a single one-of-many selection — terms `(E2(t_l), Enc(x_j^l))`,
//! `otherwise` the bottom score — evaluated by one multi-exponentiation and recovered as
//! one `RecoverEnc` item per row: `m(m−1)` per depth instead of `m(m−1)(d+2)`, with no
//! "no depth matched" selector to ask S2 for.  All lists and all items
//! of one depth share one equality round and one `RecoverEnc` round — the shared
//! per-step budget — and inside a query those are the *same* two rounds SecWorst uses:
//! [`TwoClouds::sec_bounds_depth`] runs both plans together (see [`crate::bounds`]).

use crate::error::Result;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_storage::EncryptedItem;

use crate::bounds::BoundPlan;
use crate::context::TwoClouds;

impl TwoClouds {
    /// Compute the best scores of all `m` items at depth `d` (Algorithm 3 line 6).
    ///
    /// `seen[j]` must contain the items of queried list `j` at depths `0..=depth`.
    pub fn sec_best_depth(
        &mut self,
        depth_items: &[EncryptedItem],
        seen: &[Vec<EncryptedItem>],
        depth: usize,
    ) -> Result<Vec<Ciphertext>> {
        let plan = self.plan_best_depth(depth_items, seen, depth);
        let [bests] = self.run_bound_plans([plan])?;
        Ok(bests)
    }

    /// The plan half of [`Self::sec_best_depth`]: item `i` belongs to list `i`.
    pub(crate) fn plan_best_depth(
        &mut self,
        depth_items: &[EncryptedItem],
        seen: &[Vec<EncryptedItem>],
        depth: usize,
    ) -> BoundPlan {
        assert_eq!(depth_items.len(), seen.len(), "one seen-prefix per queried list");
        let own_scores = depth_items.iter().map(|it| it.score.clone()).collect();
        let mut plan = BoundPlan::new("sec_best", depth, own_scores);
        for (i, item) in depth_items.iter().enumerate() {
            self.plan_best_scans(&mut plan, i, item, i, seen);
        }
        plan
    }

    /// One equality row per other list: `item` against that list's seen prefix — where
    /// it can occur at most once, which is what passing a bottom score to
    /// [`BoundPlan::scan`] asserts — with the list's bottom score as the "never seen
    /// there" fallback.
    fn plan_best_scans(
        &mut self,
        plan: &mut BoundPlan,
        job: usize,
        item: &EncryptedItem,
        own_list: usize,
        seen: &[Vec<EncryptedItem>],
    ) {
        for (j, prefix) in seen.iter().enumerate() {
            let Some(bottom) = prefix.last().filter(|_| j != own_list) else { continue };
            let targets: Vec<&EncryptedItem> = prefix.iter().collect();
            plan.scan(self, job, item, &targets, Some(bottom.score.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;
    use sectopk_storage::ObjectId;

    fn make_item(
        object: ObjectId,
        score: u64,
        encoder: &EhlEncoder,
        pk: &sectopk_crypto::PaillierPublicKey,
        rng: &mut StdRng,
    ) -> EncryptedItem {
        EncryptedItem {
            ehl: encoder.encode(&object.to_bytes(), pk, rng).unwrap(),
            score: pk.encrypt_u64(score, rng).unwrap(),
        }
    }

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(71);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 8).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    /// Encrypt sorted-list prefixes given as `(object, score)` pairs.
    fn encrypt_lists(
        lists: &[&[(u64, u64)]],
        encoder: &EhlEncoder,
        pk: &sectopk_crypto::PaillierPublicKey,
        rng: &mut StdRng,
    ) -> Vec<Vec<EncryptedItem>> {
        lists
            .iter()
            .map(|l| l.iter().map(|&(o, x)| make_item(ObjectId(o), x, encoder, pk, rng)).collect())
            .collect()
    }

    /// Build the Fig. 3 sorted lists (R1, R2, R3) down to `depth` (1-based).
    fn fig3_prefixes(
        depth: usize,
        encoder: &EhlEncoder,
        pk: &sectopk_crypto::PaillierPublicKey,
        rng: &mut StdRng,
    ) -> Vec<Vec<EncryptedItem>> {
        let r1 = [(1u64, 10u64), (2, 8), (3, 5), (4, 3), (5, 1)];
        let r2 = [(2u64, 8u64), (3, 7), (1, 3), (4, 2), (5, 1)];
        let r3 = [(4u64, 8u64), (3, 6), (1, 2), (5, 1), (2, 0)];
        encrypt_lists(&[&r1[..depth], &r2[..depth], &r3[..depth]], encoder, pk, rng)
    }

    #[test]
    fn fig3_depth1_best_scores() {
        // Fig. 3a: upper bounds after depth 1 are 26 for X1, X2 and X4
        // (own score + the other two lists' bottoms).
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let seen = fig3_prefixes(1, &encoder, pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[0].clone()).collect();
        let bests = clouds.sec_best_depth(&depth_items, &seen, 1).unwrap();
        let values: Vec<u64> =
            bests.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect();
        assert_eq!(values, vec![26, 26, 26]);
    }

    #[test]
    fn fig3_depth2_best_scores() {
        // Fig. 3b: at depth 2 the items are X2/8 (R1), X3/7 (R2), X3/6 (R3).
        // X2: 8 + 8 (seen in R2 depth1) + 6 (bottom of R3)            = 22
        // X3 in R2: 7 + 8 (bottom R1) + 6 (seen in R3 depth 2)        = 21
        // X3 in R3: 6 + 8 (bottom R1) + 7 (seen in R2 depth 2)        = 21
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let seen = fig3_prefixes(2, &encoder, pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[1].clone()).collect();
        let bests = clouds.sec_best_depth(&depth_items, &seen, 2).unwrap();
        let values: Vec<u64> =
            bests.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect();
        assert_eq!(values, vec![22, 21, 21]);
    }

    #[test]
    fn unseen_lists_contribute_their_bottom() {
        // Object 9 appears only in list 0; lists 1 and 2 contribute their bottoms.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let seen = vec![
            vec![make_item(ObjectId(9), 50, &encoder, pk, &mut rng)],
            vec![
                make_item(ObjectId(1), 40, &encoder, pk, &mut rng),
                make_item(ObjectId(2), 30, &encoder, pk, &mut rng),
            ],
            vec![make_item(ObjectId(3), 7, &encoder, pk, &mut rng)],
        ];
        let item = seen[0][0].clone();
        // The best score of one item of list 0 at depth 1 — Protocol 8.2 / Algorithm 6.
        let mut plan = BoundPlan::new("sec_best", 1, vec![item.score.clone()]);
        clouds.plan_best_scans(&mut plan, 0, &item, 0, &seen);
        let [bests] = clouds.run_bound_plans([plan]).unwrap();
        // 50 + bottom(list1)=30 + bottom(list2)=7 = 87.
        assert_eq!(master.paillier_secret.decrypt_u64(&bests[0]).unwrap(), 87);
    }

    #[test]
    fn whole_depth_costs_two_rounds_when_batched() {
        let (_master, mut clouds, encoder, mut rng) = setup();
        let pk = clouds.pk().clone();
        let seen = fig3_prefixes(2, &encoder, &pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[1].clone()).collect();
        let _ = clouds.sec_best_depth(&depth_items, &seen, 2).unwrap();
        // One batched equality round + one combined RecoverEnc round for the whole depth.
        assert_eq!(clouds.channel().rounds, 2);
    }

    #[test]
    fn bounds_depth_matches_fig3_in_two_rounds() {
        // The expectations of `fig3_depth{1,2}_best_scores` and of SecWorst (no repeat at
        // depth 1; X3 in R2 and R3 at depth 2), from one call costing the shared budget.
        let expected: [(Vec<u64>, Vec<u64>); 2] =
            [(vec![10, 8, 8], vec![26, 26, 26]), (vec![8, 13, 13], vec![22, 21, 21])];
        for (depth, (worst, best)) in (1..).zip(expected) {
            let (master, mut clouds, encoder, mut rng) = setup();
            let pk = &master.paillier_public;
            let seen = fig3_prefixes(depth, &encoder, pk, &mut rng);
            let depth_items: Vec<EncryptedItem> =
                seen.iter().map(|l| l[depth - 1].clone()).collect();
            let (worsts, bests) = clouds.sec_bounds_depth(&depth_items, &seen, depth).unwrap();
            let decrypt = |cs: &[Ciphertext]| -> Vec<u64> {
                cs.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect()
            };
            assert_eq!((decrypt(&worsts), decrypt(&bests)), (worst, best), "depth {depth}");
            assert_eq!(clouds.channel().rounds, 2, "one equality + one RecoverEnc round");
            assert!(clouds.s2_ledger().only_contains(&["equality_bit"]));
        }
    }

    fn decrypt_all(master: &MasterKeys, cs: &[Ciphertext]) -> Vec<u64> {
        cs.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect()
    }

    #[test]
    fn one_object_at_the_same_depth_of_every_list_sums_in_worst_and_matches_once_in_best() {
        // Depth 1 shows object 7 in all three lists: every SecWorst row has *two* set
        // bits (so SecWorst must keep selecting per cell), every SecBest row — the item
        // against one other list's prefix — exactly one.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let lists: [&[(u64, u64)]; 3] = [&[(1, 9), (7, 4)], &[(2, 9), (7, 3)], &[(3, 8), (7, 2)]];
        let seen = encrypt_lists(&lists, &encoder, pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[1].clone()).collect();
        let (worsts, bests) = clouds.sec_bounds_depth(&depth_items, &seen, 1).unwrap();
        // Fully seen: W = B = 4 + 3 + 2 for each of the three copies.
        assert_eq!(decrypt_all(&master, &worsts), vec![9, 9, 9]);
        assert_eq!(decrypt_all(&master, &bests), vec![9, 9, 9]);
        for row in clouds.s2_ledger().equality_bits("sec_worst").chunks(2) {
            assert_eq!(row, [true, true], "SecWorst rows are multi-match");
        }
        let best_rows = clouds.s2_ledger().equality_bits("sec_best");
        assert_eq!(best_rows.len(), 3 * 2 * 2);
        for row in best_rows.chunks(2) {
            assert_eq!(row.iter().filter(|&&t| t).count(), 1, "one match per fused row");
        }
    }

    #[test]
    fn a_match_at_depth_0_is_found_from_the_last_depth_and_ties_do_not_confuse_it() {
        // List 0 opens with object 5; list 1 reaches it only at its last depth, with a
        // score tied with list 0's bottom and with its own predecessor.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let lists: [&[(u64, u64)]; 2] =
            [&[(5, 9), (6, 9), (8, 2), (9, 2)], &[(1, 7), (2, 7), (3, 2), (5, 2)]];
        let seen = encrypt_lists(&lists, &encoder, pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[3].clone()).collect();
        let bests = clouds.sec_best_depth(&depth_items, &seen, 3).unwrap();
        // Object 9 never shows in list 1: 2 + bottom 2.  Object 5: 2 + its 9 at depth 0.
        assert_eq!(decrypt_all(&master, &bests), vec![4, 11]);
        let rows = clouds.s2_ledger().equality_bits("sec_best");
        let matches: Vec<usize> =
            rows.chunks(4).map(|row| row.iter().filter(|&&t| t).count()).collect();
        assert_eq!(matches, [0, 1]);
    }

    #[test]
    fn leakage_is_limited_to_equality_bits() {
        let (_master, mut clouds, encoder, mut rng) = setup();
        let pk = clouds.pk().clone();
        let seen = fig3_prefixes(2, &encoder, &pk, &mut rng);
        let depth_items: Vec<EncryptedItem> = seen.iter().map(|l| l[1].clone()).collect();
        let _ = clouds.sec_best_depth(&depth_items, &seen, 2).unwrap();
        assert!(clouds.s2_ledger().only_contains(&["equality_bit"]));
        assert!(clouds.s1_ledger().is_empty());
    }
}
