//! The space-efficient encrypted hash list **EHL+** (§5 of the paper).
//!
//! The paper's `EHL+(o)` holds `s` Paillier encryptions `Enc(HMAC(κ_i, o) mod N)`, one per
//! PRF key, to push the collision rate down to `n²/Nˢ`.  Here an EHL+ is **one**
//! ciphertext of their sum, `Enc(Σ_i HMAC(κ_i, o) mod N)`: the owner encrypts the image
//! sum ([`EhlEncoder::image_sum`](crate::EhlEncoder::image_sum)) once per object.
//! S2 decides every `⊖` mod `p` ([`PaillierSecretKey::is_zero`]), so equality as the
//! clouds see it errs at `n²/p` whatever `s` is ([`crate::fpr`]), and `s` separate
//! images would buy nothing.  Two distinct objects whose images agree mod `p` test equal,
//! which the union bound over the relation's pairs keeps at `n²/p` (DESIGN.md §10).
//!
//! The block's only job is to let the clouds *homomorphically* test equality of the
//! underlying objects: the randomized operation `⊖` produces an encryption of `0` when
//! the objects are equal and of a value uniformly distributed in `Z_N` (w.h.p.) when they
//! are not (Lemma 5.2).
//!
//! # The cost of `⊖`
//!
//! `(a · b⁻¹)^r` is one inversion and one `|N|`-bit exponentiation modulo `N²` as
//! written, and at the paper's key sizes an extended-Euclid inversion costs more than the
//! exponentiation next to it.  A batch of `⊖`s negates its right-hand sides with **one**
//! inversion in total ([`EhlPlus::negate_many`], per batch for S1's equality matrices),
//! so each `⊖` is one product and one exponentiation ([`EhlPlus::eq_test_negated`]).
//!
//! [`PaillierSecretKey::is_zero`]: sectopk_crypto::paillier::PaillierSecretKey::is_zero

use num_bigint::BigUint;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use sectopk_crypto::bigint::random_invertible;
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};

/// An EHL+ encoding of one object: one Paillier ciphertext of the sum of its `s` PRF
/// images, `Enc(Σ_i HMAC(κ_i, o) mod N)`.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EhlPlus(Ciphertext);

impl EhlPlus {
    /// Wrap the ciphertext of an object's image sum.
    pub fn new(block: Ciphertext) -> Self {
        EhlPlus(block)
    }

    /// The ciphertext.
    pub fn block(&self) -> &Ciphertext {
        &self.0
    }

    /// Serialized size in bytes — what travels over the inter-cloud channel.
    pub fn byte_len(&self) -> usize {
        self.0.byte_len()
    }

    /// The randomized equality operation `⊖` (Equation 1, adapted to EHL+):
    ///
    /// ```text
    /// EHL(x) ⊖ EHL(y) = ( EHL(x) · EHL(y)^{-1} )^r
    /// ```
    ///
    /// Returns `Enc(0)` when `x = y` and an encryption of a (w.h.p. non-zero) random
    /// group element otherwise.  The caller (S1) sends the result to S2, which holds the
    /// secret key and reports only the zero / non-zero bit.
    pub fn eq_test<R: RngCore + CryptoRng>(
        &self,
        other: &EhlPlus,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Ciphertext {
        pk.mul_plain(&pk.sub(&self.0, &other.0), &random_invertible(rng, pk.n()))
    }

    /// `Enc(−image)` of every structure in `ehls` — the right-hand sides of a batch of
    /// `⊖`s — for one modular inversion in total.
    pub fn negate_many(ehls: &[&EhlPlus], pk: &PaillierPublicKey) -> Vec<EhlPlus> {
        let blocks: Vec<&Ciphertext> = ehls.iter().map(|e| &e.0).collect();
        pk.negate_many(&blocks).into_iter().map(EhlPlus).collect()
    }

    /// `⊖` with the masking scalar `r` drawn by the caller, against a right-hand side
    /// already negated by [`Self::negate_many`]: `(EHL(x) · negated)^r`, one product,
    /// one exponentiation and no inversion.  Splitting the draw from the arithmetic makes
    /// the expensive part *pure*, so batched callers draw every `r` in serial order and
    /// evaluate the `⊖`s on worker threads.
    pub fn eq_test_negated(
        &self,
        negated_other: &EhlPlus,
        pk: &PaillierPublicKey,
        r: &BigUint,
    ) -> Ciphertext {
        pk.mul_plain(&pk.add(&self.0, &negated_other.0), r)
    }

    /// The operation `⊙`: homomorphically add the blinding mask `α ∈ Z_N` to the
    /// encoded image (`c ← EHL · Enc(α)`).  Used by SecDedup to blind object encodings
    /// before shipping them to the other cloud.
    pub fn blind(&self, alpha: &BigUint, pk: &PaillierPublicKey) -> EhlPlus {
        EhlPlus(pk.add_plain(&self.0, alpha))
    }

    /// Remove a blinding previously applied with [`Self::blind`] (`c ← c · Enc(−α)`).
    pub fn unblind(&self, alpha: &BigUint, pk: &PaillierPublicKey) -> EhlPlus {
        let neg = pk.n() - (alpha % pk.n());
        EhlPlus(pk.add_plain(&self.0, &(neg % pk.n())))
    }

    /// Re-randomize the block (a fresh ciphertext of the same plaintext) with one
    /// precomputed nonce from a [`RandomnessPool`](sectopk_crypto::RandomnessPool): one
    /// multiplication.  Applied whenever a cloud returns items so that the receiving
    /// cloud cannot link them to its own inputs.
    pub fn rerandomize_pooled(&self, pool: &mut sectopk_crypto::RandomnessPool) -> EhlPlus {
        EhlPlus(pool.rerandomize(&self.0))
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
        let mut rng = StdRng::seed_from_u64(4242);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let keys: Vec<PrfKey> = (0..4u8).map(|i| PrfKey([i + 1; 32])).collect();
        let encoder = EhlEncoder::new(&keys);
        (pk, sk, encoder, rng)
    }

    #[test]
    fn equality_test_is_zero_for_same_object() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        let b = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        assert_ne!(a, b, "two encodings of the same object are different ciphertexts");
        let result = a.eq_test(&b, &pk, &mut rng);
        assert!(sk.is_zero(&result).unwrap());
    }

    #[test]
    fn equality_test_is_nonzero_for_different_objects() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        for other in ["object-18", "object-170", "x", ""] {
            let b = encoder.encode(other.as_bytes(), &pk, &mut rng).unwrap();
            let result = a.eq_test(&b, &pk, &mut rng);
            assert!(!sk.is_zero(&result).unwrap(), "{other} must not collide");
        }
    }

    #[test]
    fn eq_test_is_byte_identical_to_the_blockwise_reference() {
        // The reference is `⊖` as written: a `sub` (one inversion), then a `mul_plain`.
        let (pk, _sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        let same = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        let other = encoder.encode(b"object-18", &pk, &mut rng).unwrap();
        let negated = EhlPlus::negate_many(&[&same, &other, &a], &pk);
        for (b, negated) in [&same, &other, &a].into_iter().zip(&negated) {
            let r = random_invertible(&mut rng, pk.n());
            let reference = pk.mul_plain(&pk.sub(a.block(), b.block()), &r);
            assert_eq!(a.eq_test_negated(negated, &pk, &r), reference);
        }
        // `eq_test` is that reference over its own scalar.
        let mut replay = rng.clone();
        let r = random_invertible(&mut replay, pk.n());
        assert_eq!(
            a.eq_test(&other, &pk, &mut rng),
            pk.mul_plain(&pk.sub(a.block(), other.block()), &r)
        );
        // The batch negation hands every structure its own block back, in order.
        let negated = EhlPlus::negate_many(&[&same, &other, &same], &pk);
        assert_eq!(negated[0], negated[2]);
        for (n, b) in negated.iter().zip([&same, &other]) {
            assert_eq!(n.block(), &pk.negate(b.block()));
        }
    }

    #[test]
    fn the_one_block_minus_decides_object_identity_for_all_105_pairs() {
        // A fig3-size relation as stored: 5 objects in 3 lists, one encoding per list, at
        // the suites' width (128-bit N, s = 3).
        let mut rng = StdRng::seed_from_u64(4243);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let keys: Vec<PrfKey> = (0..3u8).map(|i| PrfKey([i + 1; 32])).collect();
        let encoder = EhlEncoder::new(&keys);
        let encodings: Vec<(u64, EhlPlus)> = (0..3)
            .flat_map(|_| 1..=5u64)
            .map(|id| (id, encoder.encode(&id.to_be_bytes(), &pk, &mut rng).unwrap()))
            .collect();
        let mut pairs = 0;
        for (i, (a_id, a)) in encodings.iter().enumerate() {
            for (j, (b_id, b)) in encodings.iter().enumerate().skip(i + 1) {
                let equal = sk.is_zero(&a.eq_test(b, &pk, &mut rng)).unwrap();
                assert_eq!(equal, a_id == b_id, "encodings {i} and {j}");
                pairs += 1;
            }
        }
        assert_eq!(pairs, 105);
    }

    #[test]
    fn equality_test_is_randomized() {
        let (pk, _sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"o", &pk, &mut rng).unwrap();
        let b = encoder.encode(b"p", &pk, &mut rng).unwrap();
        let r1 = a.eq_test(&b, &pk, &mut rng);
        let r2 = a.eq_test(&b, &pk, &mut rng);
        assert_ne!(r1, r2, "⊖ must be a randomized operation");
    }

    #[test]
    fn blind_then_unblind_restores_equality() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-9", &pk, &mut rng).unwrap();
        let b = encoder.encode(b"object-9", &pk, &mut rng).unwrap();
        let alpha = sectopk_crypto::bigint::random_below(&mut rng, pk.n());
        let blinded = a.blind(&alpha, &pk);
        // Blinded encoding no longer matches.
        let r = blinded.eq_test(&b, &pk, &mut rng);
        assert!(!sk.is_zero(&r).unwrap());
        // Unblinding restores it.
        let restored = blinded.unblind(&alpha, &pk);
        let r2 = restored.eq_test(&b, &pk, &mut rng);
        assert!(sk.is_zero(&r2).unwrap());
    }

    #[test]
    fn rerandomize_preserves_equality_semantics() {
        let (pk, sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-1", &pk, &mut rng).unwrap();
        let a2 = a.rerandomize_pooled(&mut sectopk_crypto::RandomnessPool::new(&pk, 1));
        assert_ne!(a, a2);
        let b = encoder.encode(b"object-1", &pk, &mut rng).unwrap();
        assert!(sk.is_zero(&a2.eq_test(&b, &pk, &mut rng)).unwrap());
    }

    #[test]
    fn byte_len_is_positive_and_additive() {
        let (pk, _sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-1", &pk, &mut rng).unwrap();
        assert!(a.byte_len() > 0);
        assert_eq!(a.byte_len(), a.block().byte_len());
        assert!(a.byte_len() <= (pk.n_squared().bits() as usize).div_ceil(8));
    }
}
