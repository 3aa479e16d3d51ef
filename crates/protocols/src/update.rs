//! `SecUpdate` (Algorithm 9): merging the current depth's items `Γ^d` into the global
//! list `T^{d-1}` to obtain `T^d`.
//!
//! Semantics (the NRA bookkeeping the protocol must realise obliviously):
//!
//! * if a fresh item's object is already tracked, the tracked entry's worst score grows
//!   by the fresh local worst and its best score is replaced by the fresh (tighter) best;
//!   the appended copy must be neutralised so the object is not counted twice;
//! * if the object is new, the fresh item is appended as-is.
//!
//! Only S2 can tell which case applies (it decrypts the `⊖` equality tests — the designed
//! equality-pattern leakage), so S2 also makes every selection the update needs, inside
//! the same equality round, over candidates S1 masked (see [`crate::primitives`]).
//! `Γ^d` is de-duplicated (or its duplicates neutralised) within the depth and `T` holds
//! an object at most once by induction, so of the bits `t_1j … t_fj` that compare one
//! tracked entry with the fresh items **at most one** is set, and likewise of the bits
//! that compare one fresh item with `T`.  Each column `j` of the `fresh × tracked`
//! matrix is therefore two jobs:
//!
//! ```text
//! worst_j := worst_j + Σ_i t_ij·fresh_i.worst       (a sum job; S1 adds worst_j)
//! best_j  := one-of-many( (t_ij, fresh_i.best)_i , otherwise best_j )
//! ```
//!
//! The matrix is not permuted, so each fresh item's masked worst and best are shipped
//! once per row and shared by every column.  Keep-length mode adds two one-of-many
//! jobs per row — the row's bits are the fresh item's "matched" aggregate — that
//! neutralise an appended duplicate, and S1 turns the row's `Enc(t)` bits into the
//! EHL noise itself.  An update costs one round in both modes.
//!
//! Two variants mirror the paper's query modes:
//! * **keep-length** (`Qry_F`): every fresh item is appended; duplicates are appended as
//!   neutralised garbage (worst = best = −1, random id), so S1 learns nothing about how
//!   many objects were new;
//! * **eliminate** (`Qry_E`, §10.1): duplicates are simply not appended — S2 disclosing
//!   the per-row matched bits in plaintext is exactly the uniqueness-pattern leakage
//!   `UP^d` this variant grants S1.

use num_bigint::BigUint;

use crate::error::{ProtocolError, Result};
use sectopk_crypto::bigint::random_below;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::par::par_map;
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::items::ScoredItem;
use crate::ledger::LeakageEvent;
use crate::primitives::EqPlan;
use crate::transport::Per;

/// Which update variant to run (mirrors `SecDedup` vs `SecDupElim`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMode {
    /// Append neutralised duplicates so the length of `T` is data-independent (`Qry_F`).
    KeepLength,
    /// Drop duplicates, revealing the uniqueness pattern to S1 (`Qry_E`).
    Eliminate,
}

impl TwoClouds {
    /// Merge the per-depth items `fresh` (already de-duplicated within the depth) into
    /// the tracked list `tracked`, returning the new `T^d`.
    pub fn sec_update(
        &mut self,
        tracked: Vec<ScoredItem>,
        fresh: &[ScoredItem],
        depth: usize,
        mode: UpdateMode,
    ) -> Result<Vec<ScoredItem>> {
        let pk = self.s1.keys.paillier_public.clone();
        if fresh.is_empty() {
            return Ok(tracked);
        }
        if tracked.is_empty() {
            // Nothing to merge into: every fresh item starts a new entry.
            return Ok(fresh.to_vec());
        }

        let t_len = tracked.len();
        let f_len = fresh.len();

        // ---- S1 → S2: the fresh × tracked equality matrix and every selection of the
        //      update, in one exchange. ---------------------------------------------------
        let mut pairs: Vec<(&EhlPlus, &EhlPlus)> = Vec::with_capacity(t_len * f_len);
        for fresh_item in fresh {
            for tracked_item in &tracked {
                pairs.push((&fresh_item.ehl, &tracked_item.ehl));
            }
        }
        let diffs = self.eq_diffs(&pairs);
        let mut plan = EqPlan::new(diffs, t_len, "sec_update", Some(depth));
        // Column j compares tracked entry j with every fresh item.  The fresh items are
        // distinct objects (SecDedup / SecDupElim ran on them, and a Qry_Ba batch is
        // itself a tracked list), so at most one `t_ij` of the column is set.
        let fresh_worsts =
            plan.candidates(Per::Row, fresh.iter().map(|f| f.worst.clone()).collect());
        let fresh_bests = plan.candidates(Per::Row, fresh.iter().map(|f| f.best.clone()).collect());
        let bests = plan.candidates(Per::Column, tracked.iter().map(|t| t.best.clone()).collect());
        plan.select(Per::Column, fresh_worsts, None);
        plan.select(Per::Column, fresh_bests, Some(bests));
        // Keep-length appends every fresh item, but a duplicate obliviously neutralised:
        //   worst/best := Z (= −1) if its row matched, else its own value
        //   EHL block  += matched · ρ            (random ρ ⇒ garbage id)
        // Eliminate is told in the clear which fresh items to drop.
        match mode {
            UpdateMode::KeepLength => {
                let sentinel = self.s1.pool.encrypt(&pk.sentinel_z())?;
                let sentinels = plan.candidates(Per::Row, vec![sentinel; f_len]);
                plan.select(Per::Row, sentinels, Some(fresh_worsts));
                plan.select(Per::Row, sentinels, Some(fresh_bests));
            }
            UpdateMode::Eliminate => plan.disclose_rows = true,
        }
        let outcome = self.run_eq_plans(vec![plan])?.pop();
        let outcome =
            outcome.ok_or_else(|| ProtocolError::transport("SecUpdate went unanswered"))?;
        let [added_worsts, new_bests, gated @ ..] = &outcome.selected[..] else {
            return Err(ProtocolError::transport("SecUpdate selection arity mismatch"));
        };

        let mut new_tracked = Vec::with_capacity(t_len + f_len);
        for ((tracked_item, added), best) in tracked.iter().zip(added_worsts).zip(new_bests) {
            new_tracked.push(ScoredItem {
                ehl: tracked_item.ehl.rerandomize_pooled(&mut self.s1.pool),
                worst: self.s1.pool.rerandomize(&pk.add(&tracked_item.worst, added)),
                best: self.s1.pool.rerandomize(best),
            });
        }

        // ---- Appending the fresh items. --------------------------------------------------
        match (mode, gated) {
            (UpdateMode::Eliminate, []) => {
                // S2 disclosed which (already permuted within the depth, re-randomized)
                // fresh items duplicate a tracked entry — the `UP^d` leakage of §10.1.
                let fresh_matched = &outcome.row_matched;
                let new_count = fresh_matched.iter().filter(|&&m| !m).count();
                self.s1.ledger.record(LeakageEvent::UniqueCount { depth, count: new_count });
                for (fresh_item, _) in fresh.iter().zip(fresh_matched).filter(|(_, &m)| !m) {
                    new_tracked.push(fresh_item.clone());
                }
            }
            (UpdateMode::KeepLength, [appended_worst, appended_best]) => {
                // `Enc(matched_i)` is the sum of row i's bits; the noise `matched_i · ρ` is
                // S1's own arithmetic, since S1 knows ρ.
                let matched: Vec<Ciphertext> = outcome
                    .bits
                    .chunks(t_len)
                    .map(|row| row.iter().fold(pk.one_ciphertext(), |acc, t| pk.add(&acc, t)))
                    .collect();
                let noise: Vec<(Ciphertext, BigUint)> = matched
                    .into_iter()
                    .map(|m| (m, random_below(&mut self.s1.rng, pk.n())))
                    .collect();
                let key = pk.clone();
                let noise =
                    par_map(self.intra_workers(), noise, move |(m, rho)| key.mul_plain(m, rho));
                for (i, (fresh_item, noise)) in fresh.iter().zip(&noise).enumerate() {
                    let ehl = EhlPlus::new(pk.add(fresh_item.ehl.block(), noise));
                    new_tracked.push(ScoredItem {
                        ehl: ehl.rerandomize_pooled(&mut self.s1.pool),
                        worst: self.s1.pool.rerandomize(&appended_worst[i]),
                        best: self.s1.pool.rerandomize(&appended_best[i]),
                    });
                }
            }
            _ => return Err(ProtocolError::transport("SecUpdate selection arity mismatch")),
        }

        Ok(new_tracked)
    }

    /// Homomorphically apply a plaintext weight to a score ciphertext (`Enc(w · x)`), the
    /// preprocessing step §7 prescribes for non-binary scoring weights.
    pub fn apply_weight(&self, score: &Ciphertext, weight: u64) -> Ciphertext {
        let pk = &self.s1.keys.paillier_public;
        pk.mul_plain(score, &BigUint::from(weight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::bigint::symmetric_i64;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;
    use std::collections::BTreeMap;

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(505);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 55).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    fn item(
        object: &str,
        worst: i64,
        best: i64,
        encoder: &EhlEncoder,
        pk: &sectopk_crypto::PaillierPublicKey,
        rng: &mut StdRng,
    ) -> ScoredItem {
        ScoredItem {
            ehl: encoder.encode(object.as_bytes(), pk, rng).unwrap(),
            worst: pk.encrypt_i64(worst, rng).unwrap(),
            best: pk.encrypt_i64(best, rng).unwrap(),
        }
    }

    /// Decrypt the tracked list into `{object -> (worst, best)}` for the objects named in
    /// `candidates`; neutralised entries match no candidate and are reported under "?".
    fn snapshot(
        items: &[ScoredItem],
        candidates: &[&str],
        master: &MasterKeys,
        encoder: &EhlEncoder,
        rng: &mut StdRng,
    ) -> BTreeMap<String, (i64, i64)> {
        let pk = &master.paillier_public;
        let sk = &master.paillier_secret;
        let mut out = BTreeMap::new();
        for it in items {
            let w = symmetric_i64(&sk.decrypt(&it.worst).unwrap(), pk.n()).unwrap();
            let b = symmetric_i64(&sk.decrypt(&it.best).unwrap(), pk.n()).unwrap();
            let mut name = "?".to_string();
            for cand in candidates {
                let fresh = encoder.encode(cand.as_bytes(), pk, rng).unwrap();
                if sk.is_zero(&it.ehl.eq_test(&fresh, pk, rng)).unwrap() {
                    name = (*cand).to_string();
                    break;
                }
            }
            out.insert(format!("{name}:{w}:{b}"), (w, b));
        }
        out
    }

    #[test]
    fn new_objects_are_appended_unchanged() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let tracked = vec![item("A", 10, 26, &encoder, pk, &mut rng)];
        let fresh = vec![item("B", 8, 22, &encoder, pk, &mut rng)];
        let out = clouds.sec_update(tracked, &fresh, 1, UpdateMode::KeepLength).unwrap();
        assert_eq!(out.len(), 2);
        let snap = snapshot(&out, &["A", "B"], &master, &encoder, &mut rng);
        assert!(snap.contains_key("A:10:26"));
        assert!(snap.contains_key("B:8:22"));
    }

    #[test]
    fn matched_objects_accumulate_worst_and_refresh_best() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        // A is tracked with W=10, B=26; it reappears with local worst 3 and fresh best 23.
        let tracked = vec![
            item("A", 10, 26, &encoder, pk, &mut rng),
            item("C", 8, 26, &encoder, pk, &mut rng),
        ];
        let fresh = vec![item("A", 3, 23, &encoder, pk, &mut rng)];
        let out = clouds.sec_update(tracked, &fresh, 2, UpdateMode::KeepLength).unwrap();
        assert_eq!(out.len(), 3, "keep-length appends the (neutralised) duplicate");
        let snap = snapshot(&out, &["A", "C"], &master, &encoder, &mut rng);
        // A: worst 10+3 = 13, best replaced by 23.  C untouched.
        assert!(snap.contains_key("A:13:23"), "snapshot: {snap:?}");
        assert!(snap.contains_key("C:8:26"), "snapshot: {snap:?}");
        // The neutralised appended copy has sentinel scores and a garbage id.
        assert!(snap.contains_key("?:-1:-1"), "snapshot: {snap:?}");
    }

    #[test]
    fn eliminate_mode_drops_duplicates_and_counts_new_objects() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let tracked = vec![item("A", 5, 20, &encoder, pk, &mut rng)];
        let fresh = vec![
            item("A", 2, 18, &encoder, pk, &mut rng),
            item("B", 7, 19, &encoder, pk, &mut rng),
        ];
        let out = clouds.sec_update(tracked, &fresh, 3, UpdateMode::Eliminate).unwrap();
        assert_eq!(out.len(), 2);
        let snap = snapshot(&out, &["A", "B"], &master, &encoder, &mut rng);
        assert!(snap.contains_key("A:7:18"), "snapshot: {snap:?}");
        assert!(snap.contains_key("B:7:19"), "snapshot: {snap:?}");
        assert_eq!(clouds.s1_ledger().count_kind("unique_count"), 1);
    }

    #[test]
    fn an_update_costs_one_round_in_both_modes() {
        for mode in [UpdateMode::KeepLength, UpdateMode::Eliminate] {
            let (master, mut clouds, encoder, mut rng) = setup();
            let pk = &master.paillier_public;
            let tracked = vec![
                item("A", 10, 26, &encoder, pk, &mut rng),
                item("C", 8, 26, &encoder, pk, &mut rng),
            ];
            let fresh = vec![
                item("A", 3, 23, &encoder, pk, &mut rng),
                item("B", 7, 19, &encoder, pk, &mut rng),
            ];
            let out = clouds.sec_update(tracked, &fresh, 2, mode).unwrap();
            // One equality matrix, which carries every selection.
            assert_eq!(clouds.channel().rounds, 1, "{mode:?}");
            let snap = snapshot(&out, &["A", "B", "C"], &master, &encoder, &mut rng);
            for key in ["A:13:23", "B:7:19", "C:8:26"] {
                assert!(snap.contains_key(key), "{mode:?}: {snap:?}");
            }
            assert_eq!(out.len(), if mode == UpdateMode::KeepLength { 4 } else { 3 });
        }
    }

    /// How many of S2's `sec_update` equality bits are set in each column of the
    /// `fresh × tracked` matrices it decrypted, one matrix per `(f, t)` shape in order.
    fn matches_per_column(clouds: &TwoClouds, shapes: &[(usize, usize)]) -> Vec<usize> {
        let mut bits = clouds.s2_ledger().equality_bits("sec_update").into_iter();
        let mut columns = Vec::new();
        for &(f_len, t_len) in shapes {
            let matrix: Vec<bool> = bits.by_ref().take(f_len * t_len).collect();
            assert_eq!(matrix.len(), f_len * t_len, "S2 saw the whole {f_len} × {t_len} matrix");
            columns.extend(
                (0..t_len).map(|j| matrix.iter().skip(j).step_by(t_len).filter(|&&t| t).count()),
            );
        }
        assert_eq!(bits.count(), 0, "no equality bit beyond the stated matrices");
        columns
    }

    #[test]
    fn a_multi_item_batch_merges_like_the_plaintext_bookkeeping() {
        // The Qry_Ba merge: `fresh` is itself a tracked list of several distinct
        // objects.  Two of them hit, in different columns, with tied scores around.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let names = ["A", "B", "C", "D"];
        let tracked: Vec<ScoredItem> =
            names.iter().map(|n| item(n, 5, 20, &encoder, pk, &mut rng)).collect();
        let batch = vec![
            item("D", 5, 11, &encoder, pk, &mut rng),
            item("E", 5, 20, &encoder, pk, &mut rng),
            item("B", 3, 20, &encoder, pk, &mut rng),
            item("F", 1, 9, &encoder, pk, &mut rng),
        ];
        let before = clouds.channel();
        let out = clouds.sec_update(tracked, &batch, 5, UpdateMode::Eliminate).unwrap();
        let channel = clouds.channel().since(&before);
        assert_eq!(out.len(), 6);
        let snap = snapshot(&out, &["A", "B", "C", "D", "E", "F"], &master, &encoder, &mut rng);
        for key in ["A:5:20", "B:8:20", "C:5:20", "D:10:11", "E:5:20", "F:1:9"] {
            assert!(snap.contains_key(key), "{snap:?}");
        }
        assert_eq!(matches_per_column(&clouds, &[(4, 4)]), [0, 1, 0, 1]);
        // 16 ⊖ and 2·f + |T| = 12 masked candidates out; 16 Enc(t) and 2·|T| = 8
        // selections back.
        assert_eq!((channel.rounds, channel.ciphertexts), (1, 16 + 12 + 16 + 8));
    }

    #[test]
    fn keep_length_updates_over_a_list_that_already_holds_neutralised_duplicates() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let all = ["A", "B", "C", "E"];
        let tracked = vec![
            item("A", 10, 26, &encoder, pk, &mut rng),
            item("C", 8, 26, &encoder, pk, &mut rng),
        ];
        // Depth 1: A again (tied with C afterwards) and a new B.
        let fresh = vec![
            item("A", 3, 23, &encoder, pk, &mut rng),
            item("B", 8, 22, &encoder, pk, &mut rng),
        ];
        let tracked = clouds.sec_update(tracked, &fresh, 1, UpdateMode::KeepLength).unwrap();
        let snap = snapshot(&tracked, &all, &master, &encoder, &mut rng);
        assert_eq!(tracked.len(), 4);
        for key in ["A:13:23", "C:8:26", "B:8:22", "?:-1:-1"] {
            assert!(snap.contains_key(key), "depth 1: {snap:?}");
        }

        // Depth 2: T now carries a neutralised copy, which must match nothing and stay
        // as it is, while B and C are hit and E is new.
        let fresh = vec![
            item("B", 5, 13, &encoder, pk, &mut rng),
            item("C", 5, 13, &encoder, pk, &mut rng),
            item("E", 1, 12, &encoder, pk, &mut rng),
        ];
        let before = clouds.channel();
        let tracked = clouds.sec_update(tracked, &fresh, 2, UpdateMode::KeepLength).unwrap();
        let channel = clouds.channel().since(&before);
        assert_eq!(tracked.len(), 7);
        let neutralised = tracked
            .iter()
            .filter(|it| master.paillier_secret.decrypt(&it.worst).unwrap() == pk.sentinel_z())
            .count();
        assert_eq!(neutralised, 3, "the old one and the copies of B and C");
        let snap = snapshot(&tracked, &all, &master, &encoder, &mut rng);
        for key in ["A:13:23", "B:13:13", "C:13:13", "E:1:12", "?:-1:-1"] {
            assert!(snap.contains_key(key), "depth 2: {snap:?}");
        }
        assert_eq!(matches_per_column(&clouds, &[(2, 2), (3, 4)]), [1, 0, 0, 1, 0, 1]);
        // 12 ⊖ out with 2·f fresh scores, |T| tracked bests and f sentinels, masked;
        // 12 Enc(t), 2·|T| column selections and 2·f keep-length gates back.  The EHL
        // noise is S1's own arithmetic on the bits.
        let (f_len, t_len) = (3, 4);
        assert_eq!(channel.rounds, 1);
        assert_eq!(
            channel.ciphertexts as usize,
            2 * f_len * t_len + (3 * f_len + t_len) + (2 * t_len + 2 * f_len)
        );
    }

    #[test]
    fn empty_edges() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let tracked = vec![item("A", 1, 2, &encoder, pk, &mut rng)];
        // Empty fresh: unchanged.
        let out = clouds.sec_update(tracked.clone(), &[], 0, UpdateMode::KeepLength).unwrap();
        assert_eq!(out.len(), 1);
        // Empty tracked: fresh becomes the new list.
        let fresh = vec![item("B", 3, 4, &encoder, pk, &mut rng)];
        let out = clouds.sec_update(Vec::new(), &fresh, 0, UpdateMode::Eliminate).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn weights_scale_scores() {
        let (master, clouds, _encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let c = pk.encrypt_u64(6, &mut rng).unwrap();
        let scaled = clouds.apply_weight(&c, 7);
        assert_eq!(master.paillier_secret.decrypt_u64(&scaled).unwrap(), 42);
    }

    #[test]
    fn s2_leakage_is_equality_pattern_only() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let tracked =
            vec![item("A", 1, 9, &encoder, pk, &mut rng), item("B", 2, 9, &encoder, pk, &mut rng)];
        let fresh = vec![item("B", 4, 8, &encoder, pk, &mut rng)];
        let _ = clouds.sec_update(tracked, &fresh, 1, UpdateMode::KeepLength).unwrap();
        assert!(clouds.s2_ledger().only_contains(&["equality_bit", "masked_values"]));
        assert!(clouds.s1_ledger().is_empty());
    }
}
