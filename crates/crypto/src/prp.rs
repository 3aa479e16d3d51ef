//! Keyed pseudo-random permutations over small domains.
//!
//! Two uses in the paper:
//!
//! * The data owner permutes the `M` sorted attribute lists with a PRP `P_K` during
//!   database encryption (Algorithm 2, line 9); the query token carries `P_K(i)` for each
//!   queried attribute so that S1 knows which encrypted list to scan without learning the
//!   attribute's identity (§7).
//! * S1 and S2 apply *ephemeral* uniformly random permutations inside the sub-protocols
//!   (SecWorst, SecDedup, SecFilter, …) to hide pairwise relations between items.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{CryptoRng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::prf::{Prf, PrfKey};

/// A keyed pseudo-random permutation of the domain `[0, n)`.
///
/// The permutation is derived deterministically from the key and the domain size via a
/// PRF-seeded Fisher–Yates shuffle, so the data owner and every authorized client compute
/// the same `P_K` without communicating.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct KeyedPrp {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl KeyedPrp {
    /// Derive the permutation of `[0, n)` determined by `key`.
    pub fn new(key: &PrfKey, n: usize) -> Self {
        let prf = Prf::new(key);
        let seed_hi = prf.eval_u64(format!("prp-seed-hi/{n}").as_bytes());
        let seed_lo = prf.eval_u64(format!("prp-seed-lo/{n}").as_bytes());
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&seed_hi.to_be_bytes());
        seed[8..16].copy_from_slice(&seed_lo.to_be_bytes());
        seed[16..24].copy_from_slice(&(n as u64).to_be_bytes());
        let mut rng = StdRng::from_seed(seed);

        let mut forward: Vec<usize> = (0..n).collect();
        forward.shuffle(&mut rng);
        let mut inverse = vec![0usize; n];
        for (i, &p) in forward.iter().enumerate() {
            inverse[p] = i;
        }
        KeyedPrp { forward, inverse }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Apply the permutation: `P_K(i)`.
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i]
    }

    /// Apply the inverse permutation: `P_K⁻¹(j)`.
    pub fn invert(&self, j: usize) -> usize {
        self.inverse[j]
    }
}

/// An ephemeral uniformly random permutation of `[0, n)`, freshly sampled by a party
/// inside a sub-protocol (denoted `π` in Algorithms 4, 6, 7, 9, 11, 12).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RandomPermutation {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl RandomPermutation {
    /// Sample a fresh permutation of `[0, n)`.
    pub fn sample<R: RngCore + CryptoRng>(n: usize, rng: &mut R) -> Self {
        let mut forward: Vec<usize> = (0..n).collect();
        forward.shuffle(rng);
        let mut inverse = vec![0usize; n];
        for (i, &p) in forward.iter().enumerate() {
            inverse[p] = i;
        }
        RandomPermutation { forward, inverse }
    }

    /// The identity permutation (useful for tests and for the degenerate n ≤ 1 cases).
    pub fn identity(n: usize) -> Self {
        let forward: Vec<usize> = (0..n).collect();
        RandomPermutation { inverse: forward.clone(), forward }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Where index `i` is sent: `π(i)`.
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i]
    }

    /// The preimage of position `j`: `π⁻¹(j)`.
    pub fn invert(&self, j: usize) -> usize {
        self.inverse[j]
    }

    /// Permute a slice into a new vector: output position `π(i)` holds input element `i`.
    pub fn permute<T: Clone>(&self, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.len(), "permutation/domain size mismatch");
        let mut out: Vec<Option<T>> = vec![None; items.len()];
        for (i, item) in items.iter().enumerate() {
            out[self.forward[i]] = Some(item.clone());
        }
        out.into_iter().map(|x| x.expect("permutation is a bijection")).collect()
    }

    /// Undo [`Self::permute`].
    pub fn unpermute<T: Clone>(&self, items: &[T]) -> Vec<T> {
        assert_eq!(items.len(), self.len(), "permutation/domain size mismatch");
        let mut out: Vec<Option<T>> = vec![None; items.len()];
        for (j, item) in items.iter().enumerate() {
            out[self.inverse[j]] = Some(item.clone());
        }
        out.into_iter().map(|x| x.expect("permutation is a bijection")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keyed_prp_is_a_bijection() {
        let key = PrfKey([3u8; 32]);
        for n in [0usize, 1, 2, 5, 16, 101] {
            let prp = KeyedPrp::new(&key, n);
            assert_eq!(prp.len(), n);
            let mut seen = vec![false; n];
            for i in 0..n {
                let img = prp.apply(i);
                assert!(img < n);
                assert!(!seen[img], "duplicate image");
                seen[img] = true;
                assert_eq!(prp.invert(img), i);
            }
        }
    }

    #[test]
    fn keyed_prp_is_deterministic_per_key() {
        let key = PrfKey([9u8; 32]);
        let a = KeyedPrp::new(&key, 50);
        let b = KeyedPrp::new(&key, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_prp_differs_across_keys() {
        let a = KeyedPrp::new(&PrfKey([1u8; 32]), 64);
        let b = KeyedPrp::new(&PrfKey([2u8; 32]), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn random_permutation_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0usize, 1, 2, 7, 64] {
            let perm = RandomPermutation::sample(n, &mut rng);
            let items: Vec<u32> = (0..n as u32).collect();
            let shuffled = perm.permute(&items);
            assert_eq!(perm.unpermute(&shuffled), items);
            // permute places item i at position π(i)
            for (i, &item) in items.iter().enumerate() {
                assert_eq!(shuffled[perm.apply(i)], item);
            }
        }
    }

    #[test]
    fn identity_permutation_is_identity() {
        let id = RandomPermutation::identity(10);
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(id.permute(&items), items);
        for i in 0..10 {
            assert_eq!(id.apply(i), i);
            assert_eq!(id.invert(i), i);
        }
    }

    #[test]
    fn sampled_permutations_vary() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = RandomPermutation::sample(64, &mut rng);
        let b = RandomPermutation::sample(64, &mut rng);
        assert_ne!(a, b, "two fresh 64-element permutations should not collide");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn permute_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let perm = RandomPermutation::sample(4, &mut rng);
        let _ = perm.permute(&[1u8, 2, 3]);
    }
}
