//! `EncSort` — sorting a list of encrypted scored items by their (encrypted) worst score.
//!
//! The paper uses the sorting protocol of Baldimtsi–Ohrimenko \[7\] as a black box.  This
//! reproduction realises the same functionality with a **Batcher odd–even merge sorting
//! network** whose compare-exchange gates call the [`TwoClouds::compare_many`] primitive:
//! all gates of one network stage are independent, so with round-trip batching each
//! stage ships as a single [`crate::transport::S1Request::Compare`] message — one round
//! trip per stage, giving `O(log² n)` rounds and `O(n log² n)` comparisons, the
//! complexity the paper quotes for EncSort (§10.3).  With batching disabled every gate
//! becomes its own round trip (the pattern the bandwidth bench compares against).
//!
//! Leakage: S1 learns the outcome of every comparator, i.e. the rank order of the
//! (anonymous, freshly re-randomized) items — which is exactly the output the
//! functionality hands to S1 anyway.  S2 sees only uniformly flipped, scaled signs.  See
//! DESIGN.md for the discussion of this substitution.

use crate::error::Result;
use sectopk_crypto::paillier::Ciphertext;

use crate::context::TwoClouds;
use crate::items::{rerandomize_item_pooled, ScoredItem};

/// Generate the compare-exchange gates of a Batcher odd–even merge sorting network for
/// `n = 2^x` wires, grouped into stages of mutually independent gates.
fn batcher_stages(n: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(n.is_power_of_two(), "network is generated for power-of-two sizes");
    let mut stages = Vec::new();
    let mut p = 1usize;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut stage = Vec::new();
            let mut j = k % p;
            while j + k < n {
                for i in 0..k {
                    let lo = i + j;
                    let hi = i + j + k;
                    if hi < n && (lo / (p * 2)) == (hi / (p * 2)) {
                        stage.push((lo, hi));
                    }
                }
                j += 2 * k;
            }
            if !stage.is_empty() {
                stages.push(stage);
            }
            k /= 2;
        }
        p *= 2;
    }
    stages
}

/// Round trips one batched [`TwoClouds::enc_sort_by_worst_desc`] over `len` items costs:
/// the stage count of the network over `len` padded to `2^x` wires, `x·(x+1)/2`.
pub fn enc_sort_rounds(len: usize) -> usize {
    if len <= 1 {
        return 0;
    }
    let x = len.next_power_of_two().trailing_zeros() as usize;
    x * (x + 1) / 2
}

impl TwoClouds {
    /// Sort `items` in **descending** order of their worst score (the order SecQuery
    /// needs to pick the current top-k, Algorithm 3 line 9).  Returns the sorted list;
    /// every returned ciphertext is freshly re-randomized.
    pub fn enc_sort_by_worst_desc(&mut self, items: Vec<ScoredItem>) -> Result<Vec<ScoredItem>> {
        let n = items.len();
        if n <= 1 {
            return Ok(items);
        }

        // Pad to a power of two with sentinel items carrying the minimal score Z = −1, so
        // that the padding sinks to the end of the descending order.  S1 tracks the
        // original index of every slot locally, so padding is dropped afterwards without
        // any extra interaction.
        let padded_n = n.next_power_of_two();
        let pk = self.s1.keys.paillier_public.clone();
        let mut slots: Vec<(Option<usize>, ScoredItem)> = Vec::with_capacity(padded_n);
        for (i, item) in items.into_iter().enumerate() {
            slots.push((Some(i), item));
        }
        for _ in n..padded_n {
            let z = pk.sentinel_z();
            let sentinel = ScoredItem {
                ehl: slots[0].1.ehl.rerandomize_pooled(&mut self.s1.pool),
                worst: self.s1.pool.encrypt(&z)?,
                best: self.s1.pool.encrypt(&z)?,
            };
            slots.push((None, sentinel));
        }

        for stage in batcher_stages(padded_n) {
            // One batched comparison per stage: is worst[hi] ≤ worst[lo]?  If not, the
            // pair is out of (descending) order and must be swapped.
            let pairs: Vec<(Ciphertext, Ciphertext)> = stage
                .iter()
                .map(|&(lo, hi)| (slots[hi].1.worst.clone(), slots[lo].1.worst.clone()))
                .collect();
            let in_order = self.compare_many(&pairs, "enc_sort")?;
            for (&(lo, hi), ok) in stage.iter().zip(in_order) {
                if !ok {
                    slots.swap(lo, hi);
                }
            }
        }

        // Drop padding and re-randomize the survivors so the output ciphertexts are
        // unlinkable to the inputs.
        let mut sorted = Vec::with_capacity(n);
        for (tag, item) in slots {
            if tag.is_some() {
                sorted.push(rerandomize_item_pooled(&item, &mut self.s1.pool));
            }
        }
        Ok(sorted)
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

    fn plain_sort_check(network: &[Vec<(usize, usize)>], n: usize, input: &[i64]) -> Vec<i64> {
        let mut v = input.to_vec();
        assert_eq!(v.len(), n);
        for stage in network {
            for &(lo, hi) in stage {
                if v[lo] < v[hi] {
                    v.swap(lo, hi);
                }
            }
        }
        v
    }

    #[test]
    fn enc_sort_rounds_is_the_network_stage_count() {
        assert_eq!((enc_sort_rounds(0), enc_sort_rounds(1)), (0, 0));
        for len in 2..=70usize {
            assert_eq!(enc_sort_rounds(len), batcher_stages(len.next_power_of_two()).len());
        }
    }

    #[test]
    fn batcher_network_sorts_all_small_permutations() {
        // Zero-one principle stand-in: exhaustively check all permutations for n = 8.
        let n = 8usize;
        let stages = batcher_stages(n);
        let mut values: Vec<i64> = (0..n as i64).collect();
        // Heap's algorithm over the 8! permutations is overkill; sample rotations and a
        // set of adversarial patterns instead plus all permutations of size 4 embedded.
        let patterns: Vec<Vec<i64>> = vec![
            (0..8).collect(),
            (0..8).rev().collect(),
            vec![5, 5, 5, 5, 0, 0, 0, 0],
            vec![1, 0, 1, 0, 1, 0, 1, 0],
            vec![7, 0, 6, 1, 5, 2, 4, 3],
            vec![-1, 3, -1, 2, 9, 9, 0, 1],
        ];
        for p in patterns {
            let sorted = plain_sort_check(&stages, n, &p);
            let mut expected = p.clone();
            expected.sort_by(|a, b| b.cmp(a));
            assert_eq!(sorted, expected, "input {p:?}");
        }
        // All 24 permutations of 4 values in the low half, high half fixed.
        values.truncate(4);
        permute(&mut values.clone(), 0, &mut |perm| {
            let mut input: Vec<i64> = perm.to_vec();
            input.extend_from_slice(&[10, 11, 12, 13]);
            let sorted = plain_sort_check(&stages, n, &input);
            let mut expected = input.clone();
            expected.sort_by(|a, b| b.cmp(a));
            assert_eq!(sorted, expected);
        });
    }

    fn permute(v: &mut Vec<i64>, k: usize, f: &mut impl FnMut(&[i64])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn enc_sort_orders_descending_and_preserves_items() {
        let mut rng = StdRng::seed_from_u64(123);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 5).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        let pk = &master.paillier_public;
        let sk = &master.paillier_secret;

        let worsts: Vec<i64> = vec![5, -1, 42, 17, 17, 3, 0];
        let items: Vec<ScoredItem> = worsts
            .iter()
            .enumerate()
            .map(|(i, &w)| ScoredItem {
                ehl: encoder.encode(format!("obj{i}").as_bytes(), pk, &mut rng).unwrap(),
                worst: pk.encrypt_i64(w, &mut rng).unwrap(),
                best: pk.encrypt_i64(w + 10, &mut rng).unwrap(),
            })
            .collect();

        let sorted = clouds.enc_sort_by_worst_desc(items).unwrap();
        assert_eq!(sorted.len(), worsts.len());
        let decrypted: Vec<i64> = sorted
            .iter()
            .map(|it| {
                let v = sk.decrypt_signed(&it.worst).unwrap();
                i64::try_from(v).unwrap()
            })
            .collect();
        let mut expected = worsts.clone();
        expected.sort_by(|a, b| b.cmp(a));
        assert_eq!(decrypted, expected);

        // The (worst, best) pairing must be preserved: best = worst + 10 for every item.
        for it in &sorted {
            let w = i64::try_from(sk.decrypt_signed(&it.worst).unwrap()).unwrap();
            let b = i64::try_from(sk.decrypt_signed(&it.best).unwrap()).unwrap();
            assert_eq!(b, w + 10);
        }
    }

    #[test]
    fn sorting_zero_or_one_items_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(9);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 1).unwrap();
        assert!(clouds.enc_sort_by_worst_desc(Vec::new()).unwrap().is_empty());

        let encoder = EhlEncoder::new(&master.ehl_keys);
        let pk = &master.paillier_public;
        let single = vec![ScoredItem {
            ehl: encoder.encode(b"x", pk, &mut rng).unwrap(),
            worst: pk.encrypt_u64(3, &mut rng).unwrap(),
            best: pk.encrypt_u64(4, &mut rng).unwrap(),
        }];
        assert_eq!(clouds.enc_sort_by_worst_desc(single.clone()).unwrap(), single);
        assert_eq!(clouds.channel().total_messages(), 0);
    }

    #[test]
    fn rounds_grow_polylogarithmically() {
        let mut rng = StdRng::seed_from_u64(77);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 2).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        let pk = &master.paillier_public;
        let items: Vec<ScoredItem> = (0..8u64)
            .map(|i| ScoredItem {
                ehl: encoder.encode(&i.to_be_bytes(), pk, &mut rng).unwrap(),
                worst: pk.encrypt_u64(i * 7 % 5, &mut rng).unwrap(),
                best: pk.encrypt_u64(100, &mut rng).unwrap(),
            })
            .collect();
        let _ = clouds.enc_sort_by_worst_desc(items).unwrap();
        // Batcher on 8 wires has 6 stages → 6 round trips.
        assert_eq!(clouds.channel().rounds, 6);
    }

    #[test]
    fn unbatched_sort_pays_one_round_per_gate() {
        use crate::transport::TransportKind;
        let mut rng = StdRng::seed_from_u64(78);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut clouds =
            TwoClouds::with_transport(&master, 2, TransportKind::InProcess, false).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        let pk = &master.paillier_public;
        let items: Vec<ScoredItem> = (0..4u64)
            .map(|i| ScoredItem {
                ehl: encoder.encode(&i.to_be_bytes(), pk, &mut rng).unwrap(),
                worst: pk.encrypt_u64(7 - i, &mut rng).unwrap(),
                best: pk.encrypt_u64(100, &mut rng).unwrap(),
            })
            .collect();
        let sorted = clouds.enc_sort_by_worst_desc(items).unwrap();
        assert_eq!(sorted.len(), 4);
        // Batcher on 4 wires has 5 gates across 3 stages → 5 round trips unbatched.
        assert_eq!(clouds.channel().rounds, 5);
    }
}
