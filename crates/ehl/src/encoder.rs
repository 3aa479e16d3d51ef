//! The EHL / EHL+ encoder: the data-owner-side procedure that hashes an object under the
//! `s` secret PRF keys and encrypts the result (Fig. 2 of the paper).

use num_bigint::BigUint;
use rand::{CryptoRng, RngCore};

use sectopk_crypto::paillier::PaillierPublicKey;
use sectopk_crypto::prf::{Prf, PrfKey};
use sectopk_crypto::Result;

use crate::ehl_bloom::EhlBloom;
use crate::ehl_plus::EhlPlus;

/// Encodes objects into EHL / EHL+ structures under a fixed set of `s` PRF keys.
///
/// The encoder is reusable: the PRF instances are keyed once, so [`Self::encode`]-ing `n`
/// objects costs `s` HMAC evaluations plus one Paillier encryption per object — what
/// Fig. 7a times and what the owner pays per stored item (Fig. 8a).
#[derive(Clone, Debug)]
pub struct EhlEncoder {
    prfs: Vec<Prf>,
}

impl EhlEncoder {
    /// Build an encoder from the `s` secret keys `κ_1, …, κ_s`.
    pub fn new(keys: &[PrfKey]) -> Self {
        assert!(!keys.is_empty(), "at least one PRF key is required");
        EhlEncoder { prfs: keys.iter().map(Prf::new).collect() }
    }

    /// Encode an object into the compact EHL+ structure: one encryption of its
    /// [`Self::image_sum`], `Enc(Σ_i HMAC(κ_i, o) mod N)`.
    pub fn encode<R: RngCore + CryptoRng>(
        &self,
        object: &[u8],
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Result<EhlPlus> {
        Ok(EhlPlus::new(pk.encrypt(&self.image_sum(object, pk.n()), rng)?))
    }

    /// The plaintext PRF images of an object, one per key.
    fn plaintext_images(&self, object: &[u8], n: &BigUint) -> Vec<BigUint> {
        self.prfs.iter().map(|prf| prf.eval_mod(object, n)).collect()
    }

    /// The plaintext of an object's EHL+: `Σ_i HMAC(κ_i, o) mod N`.
    pub fn image_sum(&self, object: &[u8], n: &BigUint) -> BigUint {
        self.plaintext_images(object, n).iter().fold(BigUint::from(0u32), |acc, x| (acc + x) % n)
    }

    /// The bucket positions an object occupies in the Bloom-style EHL with `h` buckets.
    pub fn bloom_positions(&self, object: &[u8], h: usize) -> Vec<usize> {
        self.prfs.iter().map(|prf| prf.eval_mod_usize(object, h)).collect()
    }

    /// Encode an object into the original Bloom-filter-style EHL with `h` buckets:
    /// set `EHL[HMAC(κ_i, o) mod h] = 1`, then encrypt every bit.
    pub fn encode_bloom<R: RngCore + CryptoRng>(
        &self,
        object: &[u8],
        h: usize,
        pk: &PaillierPublicKey,
        rng: &mut R,
    ) -> Result<EhlBloom> {
        assert!(h > 0, "bucket count must be positive");
        let mut bits = vec![0u64; h];
        for pos in self.bloom_positions(object, h) {
            bits[pos] = 1;
        }
        let encrypted =
            bits.into_iter().map(|b| pk.encrypt_u64(b, rng)).collect::<Result<Vec<_>>>()?;
        Ok(EhlBloom::from_bits(encrypted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::generate_keypair;

    fn encoder(s: usize) -> EhlEncoder {
        let keys: Vec<PrfKey> = (0..s as u8).map(|i| PrfKey([i + 1; 32])).collect();
        EhlEncoder::new(&keys)
    }

    #[test]
    fn plaintext_images_are_deterministic_and_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, _sk) = generate_keypair(128, &mut rng).unwrap();
        let enc = encoder(5);
        let a = enc.plaintext_images(b"obj-1", pk.n());
        let a2 = enc.plaintext_images(b"obj-1", pk.n());
        let b = enc.plaintext_images(b"obj-2", pk.n());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn bloom_positions_are_within_range() {
        let enc = encoder(4);
        for h in [1usize, 2, 23, 100] {
            for i in 0..20 {
                let positions = enc.bloom_positions(format!("o{i}").as_bytes(), h);
                assert_eq!(positions.len(), 4);
                assert!(positions.iter().all(|&p| p < h));
            }
        }
    }

    #[test]
    fn the_folded_block_decrypts_to_the_folded_image() {
        let mut rng = StdRng::seed_from_u64(10);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let enc = encoder(3);
        let e = enc.encode(b"object", &pk, &mut rng).unwrap();
        let image = enc.image_sum(b"object", pk.n());
        assert_eq!(sk.decrypt(e.block()).unwrap(), image);
        // The image sums the three keys' images mod N.
        let one_key = |i: u8| EhlEncoder::new(&[PrfKey([i + 1; 32])]).image_sum(b"object", pk.n());
        assert_eq!(image, (0..3).map(one_key).sum::<BigUint>() % pk.n());
    }

    #[test]
    fn encode_bloom_sets_expected_bits() {
        let mut rng = StdRng::seed_from_u64(11);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let enc = encoder(3);
        let h = 23;
        let e = enc.encode_bloom(b"object", h, &pk, &mut rng).unwrap();
        assert_eq!(e.len(), h);
        let positions = enc.bloom_positions(b"object", h);
        for (i, bit) in e.bits().iter().enumerate() {
            let value = sk.decrypt_u64(bit).unwrap();
            let expected = if positions.contains(&i) { 1 } else { 0 };
            assert_eq!(value, expected, "bucket {i}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one PRF key")]
    fn empty_key_set_is_rejected() {
        let _ = EhlEncoder::new(&[]);
    }
}
