//! The scored encrypted item `E(I) = (EHL(o), Enc(W), Enc(B))` manipulated by the query
//! processing (§8.1 "Notations"), plus the `Rand` blinding helper of Algorithm 8.

use num_bigint::BigUint;
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use sectopk_crypto::bigint::random_below;
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};
use sectopk_ehl::EhlPlus;

/// An encrypted item carrying its current worst (lower-bound) and best (upper-bound)
/// scores — the entries of the global list `T^d` and of the per-depth list `Γ^d`.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct ScoredItem {
    /// Encrypted hash list of the object id.
    pub ehl: EhlPlus,
    /// Paillier encryption of the worst (lower-bound) score `W`.
    pub worst: Ciphertext,
    /// Paillier encryption of the best (upper-bound) score `B`.
    pub best: Ciphertext,
}

impl ScoredItem {
    /// Serialized size in bytes (the EHL block + two score ciphertexts).
    pub fn byte_len(&self) -> usize {
        self.ehl.byte_len() + self.worst.byte_len() + self.best.byte_len()
    }
}

/// The blinding randomness applied to one [`ScoredItem`] by the `Rand` procedure:
/// `α` for the EHL block, `β` for the worst score and `γ` for the best score.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemBlinding {
    /// Additive mask for the EHL block.
    pub alpha: BigUint,
    /// Additive mask for the worst score.
    pub beta: BigUint,
    /// Additive mask for the best score.
    pub gamma: BigUint,
}

impl ItemBlinding {
    /// Sample fresh blinding randomness for one item: `α`, then `β`, then `γ`.
    pub fn sample<R: RngCore + CryptoRng>(pk: &PaillierPublicKey, rng: &mut R) -> Self {
        ItemBlinding {
            alpha: random_below(rng, pk.n()),
            beta: random_below(rng, pk.n()),
            gamma: random_below(rng, pk.n()),
        }
    }
}

/// `Rand(E(I), α, β, γ)` — Algorithm 8: homomorphically add the blinding masks to every
/// component of the item.  Blinding commutes with the homomorphic operations, so a party
/// holding only ciphertexts can still apply it.
pub fn rand_blind(
    item: &ScoredItem,
    blinding: &ItemBlinding,
    pk: &PaillierPublicKey,
) -> ScoredItem {
    ScoredItem {
        ehl: item.ehl.blind(&blinding.alpha, pk),
        worst: pk.add_plain(&item.worst, &blinding.beta),
        best: pk.add_plain(&item.best, &blinding.gamma),
    }
}

/// Remove a blinding previously applied with [`rand_blind`].
pub fn rand_unblind(
    item: &ScoredItem,
    blinding: &ItemBlinding,
    pk: &PaillierPublicKey,
) -> ScoredItem {
    let neg = |x: &BigUint| (pk.n() - (x % pk.n())) % pk.n();
    ScoredItem {
        ehl: item.ehl.unblind(&blinding.alpha, pk),
        worst: pk.add_plain(&item.worst, &neg(&blinding.beta)),
        best: pk.add_plain(&item.best, &neg(&blinding.gamma)),
    }
}

/// Re-randomize every ciphertext of the item (fresh randomness, same plaintexts),
/// drawing precomputed `H^a mod N²` nonces from a
/// [`RandomnessPool`](sectopk_crypto::RandomnessPool): one nonce and one multiplication
/// per ciphertext, which is what both clouds use on the item-return hot paths (EncSort,
/// SecDedup, SecUpdate): three nonces per item, since an EHL+ is one block.
pub fn rerandomize_item_pooled(
    item: &ScoredItem,
    pool: &mut sectopk_crypto::RandomnessPool,
) -> ScoredItem {
    ScoredItem {
        ehl: item.ehl.rerandomize_pooled(pool),
        worst: pool.rerandomize(&item.worst),
        best: pool.rerandomize(&item.best),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::generate_keypair;
    use sectopk_crypto::prf::PrfKey;
    use sectopk_ehl::EhlEncoder;

    fn setup(
    ) -> (PaillierPublicKey, sectopk_crypto::paillier::PaillierSecretKey, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(808);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let keys: Vec<PrfKey> = (0..3u8).map(|i| PrfKey([i + 1; 32])).collect();
        (pk, sk, EhlEncoder::new(&keys), rng)
    }

    fn make_item(
        object: &[u8],
        worst: u64,
        best: u64,
        pk: &PaillierPublicKey,
        encoder: &EhlEncoder,
        rng: &mut StdRng,
    ) -> ScoredItem {
        ScoredItem {
            ehl: encoder.encode(object, pk, rng).unwrap(),
            worst: pk.encrypt_u64(worst, rng).unwrap(),
            best: pk.encrypt_u64(best, rng).unwrap(),
        }
    }

    #[test]
    fn blind_then_unblind_round_trips() {
        let (pk, sk, encoder, mut rng) = setup();
        let item = make_item(b"o1", 10, 26, &pk, &encoder, &mut rng);
        let blinding = ItemBlinding::sample(&pk, &mut rng);
        let blinded = rand_blind(&item, &blinding, &pk);

        // Blinded scores decrypt to something else.
        assert_ne!(sk.decrypt(&blinded.worst).unwrap(), BigUint::from(10u64));
        // Unblinding restores the values.
        let restored = rand_unblind(&blinded, &blinding, &pk);
        assert_eq!(sk.decrypt_u64(&restored.worst).unwrap(), 10);
        assert_eq!(sk.decrypt_u64(&restored.best).unwrap(), 26);

        // The restored EHL still matches a fresh encoding of the same object.
        let fresh = encoder.encode(b"o1", &pk, &mut rng).unwrap();
        assert!(sk.is_zero(&restored.ehl.eq_test(&fresh, &pk, &mut rng)).unwrap());
    }

    #[test]
    fn rerandomize_preserves_values() {
        let (pk, sk, encoder, mut rng) = setup();
        let item = make_item(b"o3", 7, 8, &pk, &encoder, &mut rng);
        let mut pool = sectopk_crypto::RandomnessPool::new(&pk, 3);
        let fresh = rerandomize_item_pooled(&item, &mut pool);
        assert_ne!(item, fresh);
        assert_eq!(sk.decrypt_u64(&fresh.worst).unwrap(), 7);
        assert_eq!(sk.decrypt_u64(&fresh.best).unwrap(), 8);
    }

    #[test]
    fn byte_len_accounts_for_all_parts() {
        let (pk, _sk, encoder, mut rng) = setup();
        let item = make_item(b"o4", 1, 2, &pk, &encoder, &mut rng);
        assert!(item.byte_len() > item.ehl.byte_len());
    }
}
