//! `SecWorst` (Algorithm 4): the per-depth worst-score (lower-bound) computation.
//!
//! At depth `d`, for the item `E(I_i) = ⟨EHL(o_i), Enc(x_i)⟩` of list `i`, the worst
//! score *based on the current depth only* is
//!
//! ```text
//! W(o_i) = x_i + Σ_{j ≠ i, o_j = o_i at depth d} x_j
//! ```
//!
//! i.e. the sum of the object's scores over every list where it appears at this depth.
//! S1 cannot evaluate the condition `o_j = o_i` itself; it sends the randomly permuted
//! `⊖` results through the transport, S2 decrypts them (learning only the equality
//! pattern) and replies with `E2(t_j)`; S1 then evaluates the Damgård–Jurik selection
//! and recovers `Enc(t_j · x_j)` via `RecoverEnc` — exactly the steps of Algorithm 4.
//!
//! The equality matrices of **all** `m` per-depth items travel in
//! one [`crate::transport::S1Request::Batch`] and all selections are recovered in a
//! single `RecoverEnc` round.  That is the shared per-step budget — one equality round
//! and one `RecoverEnc` round — and inside a query SecWorst does not even pay it alone:
//! [`TwoClouds::sec_bounds_depth`] sends this module's plan and SecBest's through the
//! same two rounds (see [`crate::bounds`]).

use crate::error::Result;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_storage::EncryptedItem;

use crate::bounds::BoundPlan;
use crate::context::TwoClouds;

impl TwoClouds {
    /// Compute the local worst scores of **all** `m` items appearing at depth `d`
    /// (one per queried list) — the way Algorithm 3 line 5 invokes SecWorst.
    pub fn sec_worst_depth(
        &mut self,
        depth_items: &[EncryptedItem],
        depth: usize,
    ) -> Result<Vec<Ciphertext>> {
        let plan = self.plan_worst_depth(depth_items, depth);
        let [worsts] = self.run_bound_plans([plan])?;
        Ok(worsts)
    }

    /// The plan half of [`Self::sec_worst_depth`]: one equality row per item, against
    /// the other `m − 1` items of the depth.
    pub(crate) fn plan_worst_depth(
        &mut self,
        depth_items: &[EncryptedItem],
        depth: usize,
    ) -> BoundPlan {
        let own_scores = depth_items.iter().map(|it| it.score.clone()).collect();
        let mut plan = BoundPlan::new("sec_worst", depth, own_scores);
        for (i, item) in depth_items.iter().enumerate() {
            let others: Vec<&EncryptedItem> =
                depth_items.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, it)| it).collect();
            plan.scan(self, i, item, &others, None);
        }
        plan
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
        let mut rng = StdRng::seed_from_u64(61);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 6).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    #[test]
    fn fig3_depth1_worst_scores() {
        // Fig. 3a: at depth 1 the items are X1/10 (R1), X2/8 (R2), X4/8 (R3); no object
        // repeats, so every local worst score equals the item's own score.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            make_item(ObjectId(1), 10, &encoder, pk, &mut rng),
            make_item(ObjectId(2), 8, &encoder, pk, &mut rng),
            make_item(ObjectId(4), 8, &encoder, pk, &mut rng),
        ];
        let worsts = clouds.sec_worst_depth(&items, 1).unwrap();
        let values: Vec<u64> =
            worsts.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect();
        assert_eq!(values, vec![10, 8, 8]);
    }

    #[test]
    fn repeated_object_sums_its_scores() {
        // If the same object appears in two lists at this depth, both copies get the sum.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            make_item(ObjectId(7), 5, &encoder, pk, &mut rng),
            make_item(ObjectId(7), 9, &encoder, pk, &mut rng),
            make_item(ObjectId(8), 3, &encoder, pk, &mut rng),
        ];
        let worsts = clouds.sec_worst_depth(&items, 2).unwrap();
        let values: Vec<u64> =
            worsts.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect();
        assert_eq!(values, vec![14, 14, 3]);
    }

    #[test]
    fn single_list_worst_is_own_score() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let item = make_item(ObjectId(1), 42, &encoder, pk, &mut rng);
        // One item against no others: Protocol 8.1 for a single item.
        let mut plan = BoundPlan::new("sec_worst", 0, vec![item.score.clone()]);
        plan.scan(&mut clouds, 0, &item, &[], None);
        let [worsts] = clouds.run_bound_plans([plan]).unwrap();
        assert_eq!(master.paillier_secret.decrypt_u64(&worsts[0]).unwrap(), 42);
        assert_eq!(clouds.channel(), crate::ChannelMetrics::default());
    }

    #[test]
    fn whole_depth_costs_two_rounds_when_batched() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            make_item(ObjectId(1), 1, &encoder, pk, &mut rng),
            make_item(ObjectId(2), 2, &encoder, pk, &mut rng),
            make_item(ObjectId(3), 3, &encoder, pk, &mut rng),
        ];
        let _ = clouds.sec_worst_depth(&items, 0).unwrap();
        // One batched equality round + one combined RecoverEnc round.
        assert_eq!(clouds.channel().rounds, 2);
    }

    #[test]
    fn s2_sees_only_equality_bits() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let items = vec![
            make_item(ObjectId(1), 1, &encoder, pk, &mut rng),
            make_item(ObjectId(2), 2, &encoder, pk, &mut rng),
            make_item(ObjectId(1), 3, &encoder, pk, &mut rng),
        ];
        let _ = clouds.sec_worst_depth(&items, 4).unwrap();
        assert!(clouds.s2_ledger().only_contains(&["equality_bit"]));
        assert!(clouds.s1_ledger().is_empty());
        // m items, each compared against m−1 others.
        assert_eq!(clouds.s2_ledger().count_kind("equality_bit"), 6);
    }
}
