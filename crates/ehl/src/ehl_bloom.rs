//! The original Bloom-filter-style encrypted hash list **EHL** (§5 of the paper).
//!
//! `EHL(o)` is a length-`H` list of encrypted bits: the object is hashed to `s` bucket
//! positions (`HMAC(κ_i, o) mod H`), those buckets hold `Enc(1)` and every other bucket
//! holds `Enc(0)`.  The `⊖` equality test is the same randomized subtract-and-mask
//! product as for EHL+, but over all `H` buckets, so it costs `O(H)` homomorphic
//! operations and `O(H)` ciphertexts of storage per object.  The paper keeps this
//! structure mainly to motivate EHL+ (Fig. 7 compares the two); we implement both so the
//! comparison can be reproduced.

use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use sectopk_crypto::bigint::random_invertible;
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};

/// Default bucket count used in the paper's experiments (`H = 23`, §11.1).
pub const DEFAULT_BUCKETS: usize = 23;

/// A Bloom-filter-style encrypted hash list: `H` encrypted bits.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EhlBloom {
    bits: Vec<Ciphertext>,
}

impl EhlBloom {
    /// Build from the encrypted bit vector.
    pub fn from_bits(bits: Vec<Ciphertext>) -> Self {
        assert!(!bits.is_empty(), "EHL needs at least one bucket");
        EhlBloom { bits }
    }

    /// Number of buckets `H`.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if there are no buckets (never the case for a well-formed EHL).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The encrypted bit vector.
    pub fn bits(&self) -> &[Ciphertext] {
        &self.bits
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.iter().map(Ciphertext::byte_len).sum()
    }

    /// The randomized equality operation `⊖` over all `H` buckets (Equation 1):
    /// `Enc(Σ_i r_i (x_i − y_i))`, which is `Enc(0)` iff the two bit vectors coincide
    /// (up to the Bloom-filter false-positive probability analysed in §5).
    pub fn eq_test<R: RngCore + CryptoRng>(
        &self,
        other: &EhlBloom,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        assert_eq!(self.len(), other.len(), "EHL structures must use the same bucket count");
        let mut acc = pk.one_ciphertext();
        for (a, b) in self.bits.iter().zip(other.bits.iter()) {
            let diff = pk.sub(a, b);
            let r = random_invertible(rng, pk.n());
            acc = pk.add(&acc, &pk.mul_plain(&diff, &r));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EhlEncoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::generate_keypair;
    use sectopk_crypto::prf::PrfKey;

    fn setup(
    ) -> (PaillierPublicKey, sectopk_crypto::paillier::PaillierSecretKey, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(1010);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let keys: Vec<PrfKey> = (0..3u8).map(|i| PrfKey([i + 10; 32])).collect();
        (pk, sk, EhlEncoder::new(&keys), rng)
    }

    #[test]
    fn equal_objects_test_zero() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode_bloom(b"patient-42", DEFAULT_BUCKETS, &pk, &mut rng).unwrap();
        let b = encoder.encode_bloom(b"patient-42", DEFAULT_BUCKETS, &pk, &mut rng).unwrap();
        assert!(sk.is_zero(&a.eq_test(&b, &pk, &mut rng)).unwrap());
    }

    #[test]
    fn different_objects_test_nonzero() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode_bloom(b"patient-42", DEFAULT_BUCKETS, &pk, &mut rng).unwrap();
        let b = encoder.encode_bloom(b"patient-43", DEFAULT_BUCKETS, &pk, &mut rng).unwrap();
        assert!(!sk.is_zero(&a.eq_test(&b, &pk, &mut rng)).unwrap());
    }

    #[test]
    fn bloom_structure_is_larger_than_plus() {
        let (pk, _sk, encoder, mut rng) = setup();
        let bloom = encoder.encode_bloom(b"x", DEFAULT_BUCKETS, &pk, &mut rng).unwrap();
        let plus = encoder.encode(b"x", &pk, &mut rng).unwrap();
        assert!(bloom.len() > 1);
        assert!(bloom.byte_len() > plus.byte_len());
    }

    #[test]
    fn tiny_bucket_count_can_collide() {
        // With H = 2 buckets and 3 hash functions, distinct objects frequently map to the
        // same bit pattern — the Bloom-filter false positive the paper's FPR analysis
        // covers.  We only check that *some* pair among a small set collides, which is
        // overwhelmingly likely, and that eq_test reports Enc(0) exactly when the
        // underlying patterns coincide.
        let (pk, sk, encoder, mut rng) = setup();
        let objects: Vec<String> = (0..12).map(|i| format!("o{i}")).collect();
        let encodings: Vec<EhlBloom> = objects
            .iter()
            .map(|o| encoder.encode_bloom(o.as_bytes(), 2, &pk, &mut rng).unwrap())
            .collect();
        let patterns: Vec<Vec<usize>> =
            objects.iter().map(|o| encoder.bloom_positions(o.as_bytes(), 2)).collect();

        let mut found_collision = false;
        for i in 0..objects.len() {
            for j in (i + 1)..objects.len() {
                let same_pattern = {
                    let mut a = vec![false; 2];
                    let mut b = vec![false; 2];
                    for &p in &patterns[i] {
                        a[p] = true;
                    }
                    for &p in &patterns[j] {
                        b[p] = true;
                    }
                    a == b
                };
                let zero = sk.is_zero(&encodings[i].eq_test(&encodings[j], &pk, &mut rng)).unwrap();
                assert_eq!(zero, same_pattern, "pair ({i},{j})");
                found_collision |= same_pattern;
            }
        }
        assert!(found_collision, "with H=2 at least one pair should collide");
    }
}
