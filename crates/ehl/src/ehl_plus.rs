//! The space-efficient encrypted hash list **EHL+** (§5 of the paper).
//!
//! An `EHL+(o)` stores `s` Paillier encryptions `Enc(HMAC(k_i, o) mod N)`, one per PRF
//! key.  Its only job is to let the clouds *homomorphically* test equality of the
//! underlying objects: the randomized operation `⊖` produces an encryption of `0` when
//! the objects are equal and of a value uniformly distributed in `Z_N` (w.h.p.) when they
//! are not (Lemma 5.2).  The false positive rate is at most `n²/Nˢ`, negligible for the
//! key sizes the paper considers.
//!
//! # The cost of `⊖`
//!
//! `Π_i (a_i · b_i⁻¹)^{r_i}` is `s` exponentiations and `s` inversions modulo `N²` as
//! written, and at the paper's key sizes an extended-Euclid inversion costs more than the
//! exponentiation next to it.  Here it is evaluated as **one** Straus multi-exponentiation
//! (one squaring chain shared by the `s` bases, sliding windows over each `r_i`,
//! [`PaillierPublicKey::weighted_sum`]: about 550 Montgomery products at `s` = 5 and a
//! 256-bit `N`) over differences whose right-hand sides were all negated by **one**
//! inversion ([`EhlPlus::negate_many`] — per `⊖` for a lone [`EhlPlus::eq_test`], per
//! batch for S1's equality matrices).  The `s` masking scalars pay **one** coprimality
//! check between them ([`random_invertible_many`] — per `⊖` for a lone `eq_test`, per
//! call for S1's `eq_diffs`).  The ciphertext is the same group element the blockwise
//! `sub` / `mul_plain` / `add` loop produces for the same `r_i`; that loop survives as
//! the differential reference in this module's tests.
//!
//! # The fold
//!
//! S2 decides a `⊖` cell mod `p` ([`PaillierSecretKey::is_zero`]), so equality as the
//! clouds see it errs at `n²/p` whatever `s` is ([`crate::fpr`]); the `s` separate
//! images buy nothing.  [`EhlPlus::folded`] multiplies the `s` blocks into one,
//! `Enc(Σ_i HMAC(κ_i, o) mod N)`, for `s − 1` ciphertext products and no randomness.
//! The owner stores that block — it encrypts the image sum
//! ([`EhlEncoder::folded_image`](crate::EhlEncoder::folded_image)) directly, one
//! encryption per object instead of `s` — so each query-path `⊖` is one `|N|`-bit
//! exponentiation, and each item the clouds ship or re-randomize carries one block.  Two
//! distinct objects whose folded images agree mod `p` test equal, which the union bound
//! over the relation's pairs keeps at `n²/p` (DESIGN.md §10).  `s`-block encodings
//! ([`EhlEncoder::encode`](crate::EhlEncoder::encode)) remain for Fig. 7 and the tests.
//!
//! [`PaillierSecretKey::is_zero`]: sectopk_crypto::paillier::PaillierSecretKey::is_zero

use num_bigint::BigUint;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use sectopk_crypto::bigint::random_invertible_many;
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};

/// An EHL+ encoding of one object: `s` Paillier ciphertexts of the object's PRF images,
/// or — as the relation stores it — one ciphertext of their sum ([`EhlPlus::folded`]).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EhlPlus {
    blocks: Vec<Ciphertext>,
}

impl EhlPlus {
    /// Build an EHL+ from its constituent ciphertext blocks.
    pub fn from_blocks(blocks: Vec<Ciphertext>) -> Self {
        assert!(!blocks.is_empty(), "EHL+ needs at least one block");
        EhlPlus { blocks }
    }

    /// Number of blocks (`s`, the number of PRF keys).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks (never the case for a well-formed EHL+).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The underlying ciphertext blocks.
    pub fn blocks(&self) -> &[Ciphertext] {
        &self.blocks
    }

    /// The one-block EHL+ whose block is the product of this structure's blocks:
    /// `Enc(Σ_i HMAC(κ_i, o) mod N)`, for `s − 1` ciphertext products and no randomness.
    /// Two encodings of one object fold to encryptions of one image; a one-block EHL+
    /// folds to itself.
    pub fn folded(&self, pk: &PaillierPublicKey) -> EhlPlus {
        let (first, rest) = self.blocks.split_first().expect("an EHL+ has at least one block");
        EhlPlus { blocks: vec![rest.iter().fold(first.clone(), |acc, c| pk.add(&acc, c))] }
    }

    /// Serialized size in bytes — what travels over the inter-cloud channel.
    pub fn byte_len(&self) -> usize {
        self.blocks.iter().map(Ciphertext::byte_len).sum()
    }

    /// The randomized equality operation `⊖` (Equation 1, adapted to EHL+):
    ///
    /// ```text
    /// EHL(x) ⊖ EHL(y) = Π_i ( EHL(x)[i] · EHL(y)[i]^{-1} )^{r_i}
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
        assert_eq!(
            self.len(),
            other.len(),
            "EHL+ structures under comparison must use the same number of PRF keys"
        );
        let rs = random_invertible_many(rng, pk.n(), self.len());
        self.eq_test_with_randomness(other, pk, &rs)
    }

    /// [`Self::eq_test`] with the per-block masking randomness `r_i` drawn by the
    /// caller.  Splitting the draw from the arithmetic makes the expensive part *pure*,
    /// so batched callers can pre-draw every `r_i` in serial order (keeping the RNG
    /// stream position-deterministic) and evaluate the `⊖`s on worker threads; the
    /// result is byte-identical to [`Self::eq_test`] with the same randomness.
    pub fn eq_test_with_randomness(
        &self,
        other: &EhlPlus,
        pk: &PaillierPublicKey,
        rs: &[BigUint],
    ) -> Ciphertext {
        self.eq_test_negated(&EhlPlus::negate_many(&[other], pk)[0], pk, rs)
    }

    /// `Enc(−image)` blocks of every structure in `ehls` — the right-hand sides of a
    /// batch of `⊖`s — for one modular inversion in total.
    pub fn negate_many(ehls: &[&EhlPlus], pk: &PaillierPublicKey) -> Vec<EhlPlus> {
        let blocks: Vec<&Ciphertext> = ehls.iter().flat_map(|e| &e.blocks).collect();
        let mut negated = pk.negate_many(&blocks).into_iter();
        ehls.iter().map(|e| EhlPlus { blocks: negated.by_ref().take(e.len()).collect() }).collect()
    }

    /// [`Self::eq_test_with_randomness`] against a right-hand side already negated by
    /// [`Self::negate_many`]: `Π_i (EHL(x)[i] · negated[i])^{r_i}`, one
    /// multi-exponentiation and no inversion.
    pub fn eq_test_negated(
        &self,
        negated_other: &EhlPlus,
        pk: &PaillierPublicKey,
        rs: &[BigUint],
    ) -> Ciphertext {
        assert_eq!(
            self.len(),
            negated_other.len(),
            "EHL+ structures under comparison must use the same number of PRF keys"
        );
        assert_eq!(rs.len(), self.len(), "one masking scalar per block required");
        let diffs: Vec<Ciphertext> =
            self.blocks.iter().zip(&negated_other.blocks).map(|(a, nb)| pk.add(a, nb)).collect();
        pk.weighted_sum(&diffs.iter().zip(rs).collect::<Vec<_>>())
    }

    /// The blockwise operation `⊙`: homomorphically add the blinding vector `α ∈ Z_Nˢ`
    /// to the encoded PRF images (`c_i ← EHL[i] · Enc(α_i)`).  Used by SecDedup /
    /// SecFilter to blind object encodings before shipping them to the other cloud.
    pub fn blind(&self, alphas: &[BigUint], pk: &PaillierPublicKey) -> EhlPlus {
        assert_eq!(alphas.len(), self.len(), "blinding vector must have one entry per block");
        let blocks =
            self.blocks.iter().zip(alphas.iter()).map(|(c, a)| pk.add_plain(c, a)).collect();
        EhlPlus { blocks }
    }

    /// Remove a blinding previously applied with [`Self::blind`] (`c_i ← c_i · Enc(−α_i)`).
    pub fn unblind(&self, alphas: &[BigUint], pk: &PaillierPublicKey) -> EhlPlus {
        assert_eq!(alphas.len(), self.len(), "blinding vector must have one entry per block");
        let blocks = self
            .blocks
            .iter()
            .zip(alphas.iter())
            .map(|(c, a)| {
                let neg = pk.n() - (a % pk.n());
                pk.add_plain(c, &(neg % pk.n()))
            })
            .collect();
        EhlPlus { blocks }
    }

    /// Re-randomize every block (fresh ciphertexts, same plaintexts) with precomputed
    /// nonces from a [`RandomnessPool`](sectopk_crypto::RandomnessPool): one
    /// multiplication per block.  Applied whenever a cloud returns items so that the
    /// receiving cloud cannot link them to its own inputs.
    pub fn rerandomize_pooled(&self, pool: &mut sectopk_crypto::RandomnessPool) -> EhlPlus {
        let blocks = self.blocks.iter().map(|c| pool.rerandomize(c)).collect();
        EhlPlus { blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EhlEncoder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::bigint::random_invertible;
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

    /// The `⊖` this module used to compute: a `sub` (one inversion), a `mul_plain` and
    /// an `add` per block.
    fn eq_test_blockwise(
        a: &EhlPlus,
        b: &EhlPlus,
        pk: &PaillierPublicKey,
        rs: &[BigUint],
    ) -> Ciphertext {
        let mut acc = pk.one_ciphertext();
        for ((a, b), r) in a.blocks.iter().zip(&b.blocks).zip(rs) {
            acc = pk.add(&acc, &pk.mul_plain(&pk.sub(a, b), r));
        }
        acc
    }

    #[test]
    fn eq_test_is_byte_identical_to_the_blockwise_reference() {
        let (pk, _sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        let same = encoder.encode(b"object-17", &pk, &mut rng).unwrap();
        let other = encoder.encode(b"object-18", &pk, &mut rng).unwrap();
        for b in [&same, &other, &a] {
            let rs: Vec<BigUint> =
                (0..a.len()).map(|_| random_invertible(&mut rng, pk.n())).collect();
            assert_eq!(a.eq_test_with_randomness(b, &pk, &rs), eq_test_blockwise(&a, b, &pk, &rs));
        }
        // The batch negation hands every structure its own blocks back, in order.
        let negated = EhlPlus::negate_many(&[&same, &other, &same], &pk);
        assert_eq!(negated[0], negated[2]);
        for (n, b) in negated.iter().zip([&same, &other]) {
            let expected: Vec<Ciphertext> = b.blocks.iter().map(|c| pk.negate(c)).collect();
            assert_eq!(n.blocks, expected);
        }
    }

    #[test]
    fn the_folded_minus_decides_like_the_s_block_minus() {
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
        let folded: Vec<EhlPlus> = encodings.iter().map(|(_, e)| e.folded(&pk)).collect();
        for (i, (a_id, a)) in encodings.iter().enumerate() {
            for (j, (b_id, b)) in encodings.iter().enumerate().skip(i + 1) {
                let blockwise = sk.is_zero(&a.eq_test(b, &pk, &mut rng)).unwrap();
                let one_block = sk.is_zero(&folded[i].eq_test(&folded[j], &pk, &mut rng)).unwrap();
                assert_eq!(one_block, blockwise, "encodings {i} and {j}");
                assert_eq!(one_block, a_id == b_id, "encodings {i} and {j}");
            }
        }
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
        let alphas: Vec<BigUint> =
            (0..a.len()).map(|_| sectopk_crypto::bigint::random_below(&mut rng, pk.n())).collect();
        let blinded = a.blind(&alphas, &pk);
        // Blinded encoding no longer matches.
        let r = blinded.eq_test(&b, &pk, &mut rng);
        assert!(!sk.is_zero(&r).unwrap());
        // Unblinding restores it.
        let restored = blinded.unblind(&alphas, &pk);
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
        assert!(a.byte_len() <= a.len() * (pk.n_squared().bits() as usize).div_ceil(8));
    }

    #[test]
    #[should_panic(expected = "same number of PRF keys")]
    fn eq_test_requires_matching_lengths() {
        let (pk, _sk, encoder, mut rng) = setup();
        let a = encoder.encode(b"x", &pk, &mut rng).unwrap();
        let short = EhlPlus::from_blocks(a.blocks()[..2].to_vec());
        let _ = a.eq_test(&short, &pk, &mut rng);
    }
}
