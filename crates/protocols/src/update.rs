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
//! equality-pattern leakage); all of S1's updates are homomorphic selections driven by
//! the `E2(t)` bits S2 returns.  The per-row / per-column "matched" selectors Algorithm 9
//! needs are requested as aggregates of the same
//! [`crate::transport::S1Request::EqMatrix`] exchange, and every selection of the update
//! — matched worst and best scores, the kept old bests and, in keep-length mode, the
//! appended items' scores and EHL noise — consumes only that one reply, so they share a
//! single `RecoverEnc` round: an update costs the per-step budget of one equality round
//! and one `RecoverEnc` round in both modes.
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
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::items::ScoredItem;
use crate::ledger::LeakageEvent;
use crate::primitives::{EqPlan, SelectJob};
use crate::transport::EqWants;

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

        // ---- S1 → S2: the fresh × tracked equality matrix, plus the aggregate
        //      selectors the update needs, in one exchange. -----------------------------
        let mut pairs: Vec<(&EhlPlus, &EhlPlus)> = Vec::with_capacity(t_len * f_len);
        for fresh_item in fresh {
            for tracked_item in &tracked {
                pairs.push((&fresh_item.ehl, &tracked_item.ehl));
            }
        }
        let diffs = self.eq_diffs(&pairs);
        let want = match mode {
            UpdateMode::KeepLength => EqWants {
                row_matched: true,
                row_unmatched: true,
                col_unmatched: true,
                row_matched_plain: false,
            },
            UpdateMode::Eliminate => EqWants {
                row_matched: false,
                row_unmatched: false,
                col_unmatched: true,
                row_matched_plain: true,
            },
        };
        let outcome = self
            .run_eq_plans(vec![EqPlan {
                diffs,
                cols: t_len,
                context: "sec_update",
                depth: Some(depth),
                want,
            }])?
            .pop()
            .expect("one plan in, one outcome out");
        let aggregates = &outcome.aggregates;
        let row_lens = match mode {
            UpdateMode::KeepLength => {
                [aggregates.row_matched.len(), aggregates.row_unmatched.len()]
            }
            UpdateMode::Eliminate => [aggregates.row_matched_plain.len(); 2],
        };
        if (row_lens, outcome.bits.len(), aggregates.col_unmatched.len())
            != ([f_len; 2], t_len * f_len, t_len)
        {
            return Err(ProtocolError::transport("SecUpdate equality reply arity mismatch"));
        }

        // ---- S1: every selection of the update as one job list, recovered once. --------
        // For tracked entry j:  worst_j += Σ_i t_ij · fresh_i.worst
        //                       best_j  := Σ_i t_ij · fresh_i.best + (1 − matched_j) · best_j
        // where `1 − matched_j` is the column-unmatched aggregate S2 derived.
        let cells = || fresh.iter().flat_map(|f| std::iter::repeat_n(f, t_len));
        let mut jobs: Vec<SelectJob<'_>> = Vec::with_capacity(2 * t_len * f_len + t_len);
        jobs.extend(outcome.bits.iter().zip(cells()).map(|(t, f)| (t, &f.worst, None)));
        jobs.extend(outcome.bits.iter().zip(cells()).map(|(t, f)| (t, &f.best, None)));
        jobs.extend(aggregates.col_unmatched.iter().zip(&tracked).map(|(u, t)| (u, &t.best, None)));

        // Keep-length appends every fresh item, but duplicates are neutralised obliviously:
        //   worst/best := not_matched ? value : Z  (= −1)
        //   EHL block  += matched · ρ              (random ρ ⇒ garbage id)
        let ehl_blocks = fresh[0].ehl.len();
        let sentinel = match mode {
            UpdateMode::KeepLength => Some(self.s1.pool.encrypt(&pk.sentinel_z())?),
            UpdateMode::Eliminate => None,
        };
        let mut noise_values = Vec::new();
        if let Some(sentinel) = &sentinel {
            for _ in 0..f_len * ehl_blocks {
                let rho = random_below(&mut self.s1.rng, pk.n());
                noise_values.push(self.s1.pool.encrypt(&rho)?);
            }
            let unmatched = || aggregates.row_unmatched.iter().zip(fresh);
            jobs.extend(unmatched().map(|(u, f)| (u, &f.worst, Some(sentinel))));
            jobs.extend(unmatched().map(|(u, f)| (u, &f.best, Some(sentinel))));
            let matched =
                aggregates.row_matched.iter().flat_map(|m| std::iter::repeat_n(m, ehl_blocks));
            jobs.extend(matched.zip(&noise_values).map(|(m, rho)| (m, rho, None)));
        }
        let selected = self.select_many(&jobs)?;
        let (selected_worst, rest) = selected.split_at(t_len * f_len);
        let (selected_best, rest) = rest.split_at(t_len * f_len);
        let (kept_old_best, appended) = rest.split_at(t_len);

        let mut new_tracked = Vec::with_capacity(t_len + f_len);
        for (j, tracked_item) in tracked.iter().enumerate() {
            let mut worst = tracked_item.worst.clone();
            let mut best = kept_old_best[j].clone();
            for i in 0..f_len {
                worst = pk.add(&worst, &selected_worst[i * t_len + j]);
                best = pk.add(&best, &selected_best[i * t_len + j]);
            }
            new_tracked.push(ScoredItem {
                ehl: tracked_item.ehl.rerandomize_pooled(&mut self.s1.pool),
                worst: self.s1.pool.rerandomize(&worst),
                best: self.s1.pool.rerandomize(&best),
            });
        }

        // ---- Appending the fresh items. --------------------------------------------------
        match mode {
            UpdateMode::Eliminate => {
                // S2 disclosed which (already permuted within the depth, re-randomized)
                // fresh items duplicate a tracked entry — the `UP^d` leakage of §10.1.
                let fresh_matched = &aggregates.row_matched_plain;
                let new_count = fresh_matched.iter().filter(|&&m| !m).count();
                self.s1.ledger.record(LeakageEvent::UniqueCount { depth, count: new_count });
                for (fresh_item, _) in fresh.iter().zip(fresh_matched).filter(|(_, &m)| !m) {
                    new_tracked.push(fresh_item.clone());
                }
            }
            UpdateMode::KeepLength => {
                let (appended_worst, rest) = appended.split_at(f_len);
                let (appended_best, noise) = rest.split_at(f_len);
                for (i, fresh_item) in fresh.iter().enumerate() {
                    let blocks: Vec<Ciphertext> = fresh_item
                        .ehl
                        .blocks()
                        .iter()
                        .enumerate()
                        .map(|(b, block)| pk.add(block, &noise[i * ehl_blocks + b]))
                        .collect();
                    new_tracked.push(ScoredItem {
                        ehl: EhlPlus::from_blocks(blocks).rerandomize_pooled(&mut self.s1.pool),
                        worst: self.s1.pool.rerandomize(&appended_worst[i]),
                        best: self.s1.pool.rerandomize(&appended_best[i]),
                    });
                }
            }
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
            let w = i64::try_from(sk.decrypt_signed(&it.worst).unwrap()).unwrap();
            let b = i64::try_from(sk.decrypt_signed(&it.best).unwrap()).unwrap();
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
    fn an_update_costs_two_rounds_in_both_modes() {
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
            // One equality matrix + one RecoverEnc round for every selection.
            assert_eq!(clouds.channel().rounds, 2, "{mode:?}");
            let snap = snapshot(&out, &["A", "B", "C"], &master, &encoder, &mut rng);
            for key in ["A:13:23", "B:7:19", "C:8:26"] {
                assert!(snap.contains_key(key), "{mode:?}: {snap:?}");
            }
            assert_eq!(out.len(), if mode == UpdateMode::KeepLength { 4 } else { 3 });
        }
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
        assert!(clouds.s2_ledger().only_contains(&["equality_bit"]));
        assert!(clouds.s1_ledger().is_empty());
    }
}
