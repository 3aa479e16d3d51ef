//! Key material for the SecTopK scheme.
//!
//! Algorithm 2 of the paper has the data owner generate (a) a Paillier key pair
//! `(pk_p, sk_p)`, (b) `s` secret HMAC keys `κ_1, …, κ_s` for the EHL, and (c) a key `K`
//! for the pseudo-random permutation `P` that shuffles the attribute lists.  The owner
//! uploads `(pk_p, sk_p)` to the crypto cloud S2 and only `pk_p` to S1; authorized
//! clients receive `K` (and the EHL keys when they need to encode query-side objects).
//!
//! This module groups those pieces into an owner-side [`MasterKeys`] bundle and the two
//! cloud-side views [`S1Keys`] and [`S2Keys`].

use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};

use crate::error::{CryptoError, Result};
use crate::paillier::{generate_keypair, PaillierPublicKey, PaillierSecretKey, MAX_MODULUS_BITS};
use crate::prf::PrfKey;

/// Number of HMAC keys (`s`) used by the EHL+ structure in the paper's experiments (§11.1).
pub const DEFAULT_EHL_KEYS: usize = 5;

/// Bits of S1's own Paillier modulus `N'` for a shared modulus `N` of `shared_bits` bits.
///
/// S1 sends randomness through S2 encrypted under its own key `pk'` (SecDedup's masks,
/// SecFilter's unblinders), and S2 composes it homomorphically under `N'`: sums of two
/// values below `N` and products of two values below `N`.  `N'` must hold a product
/// without wrapping, hence `2·|N|` bits plus a 64-bit margin.
pub const fn own_modulus_bits(shared_bits: usize) -> usize {
    2 * shared_bits + 64
}

/// The widest shared modulus [`MasterKeys::generate`] accepts: the largest `|N|` whose
/// [`own_modulus_bits`] is still within [`MAX_MODULUS_BITS`] (992 bits).
pub const MAX_SHARED_MODULUS_BITS: usize = (MAX_MODULUS_BITS - own_modulus_bits(0)) / 2;

/// The data owner's complete key material.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MasterKeys {
    /// Paillier public key (shared with both clouds and the clients).
    pub paillier_public: PaillierPublicKey,
    /// Paillier secret key (uploaded to the crypto cloud S2 only).
    pub paillier_secret: PaillierSecretKey,
    /// The `s` PRF keys `κ_1, …, κ_s` used by the EHL encoder.
    pub ehl_keys: Vec<PrfKey>,
    /// The PRP key `K` used to permute attribute lists; shared with authorized clients.
    pub prp_key: PrfKey,
}

impl MasterKeys {
    /// Generate a full key bundle with the given Paillier modulus size and `s` EHL keys.
    ///
    /// A modulus above [`MAX_SHARED_MODULUS_BITS`] is refused before any prime search:
    /// every session over it would need an own key for S1 wider than the arithmetic
    /// supports.  So is `s` = 0 ([`CryptoError::NoEhlKeys`]): an EHL+ sums `s` images.
    pub fn generate<R: RngCore + CryptoRng>(
        modulus_bits: usize,
        ehl_key_count: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if ehl_key_count == 0 {
            return Err(CryptoError::NoEhlKeys);
        }
        if modulus_bits > MAX_SHARED_MODULUS_BITS {
            return Err(CryptoError::KeySizeTooLarge {
                requested: modulus_bits,
                maximum: MAX_SHARED_MODULUS_BITS,
            });
        }
        let (paillier_public, paillier_secret) = generate_keypair(modulus_bits, rng)?;
        let master = PrfKey::random(rng);
        let ehl_keys = master.derive_family("ehl", ehl_key_count);
        let prp_key = master.derive(b"prp");
        Ok(MasterKeys { paillier_public, paillier_secret, ehl_keys, prp_key })
    }

    /// The view of the primary cloud S1: public key material only.
    pub fn s1_view(&self) -> S1Keys {
        S1Keys { paillier_public: self.paillier_public.clone() }
    }

    /// The view of the crypto cloud S2: public *and* secret decryption keys, but none of
    /// the data-owner-side EHL / PRP keys (S2 never encodes or locates objects).
    pub fn s2_view(&self) -> S2Keys {
        S2Keys {
            paillier_public: self.paillier_public.clone(),
            paillier_secret: self.paillier_secret.clone(),
        }
    }
}

/// Key material visible to the primary cloud S1.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct S1Keys {
    /// Paillier public key.
    pub paillier_public: PaillierPublicKey,
}

/// Key material visible to the crypto cloud S2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct S2Keys {
    /// Paillier public key.
    pub paillier_public: PaillierPublicKey,
    /// Paillier secret key.
    pub paillier_secret: PaillierSecretKey,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::hex_encode;
    use crate::paillier::{DEFAULT_MODULUS_BITS, MIN_MODULUS_BITS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_produces_consistent_views() {
        let mut rng = StdRng::seed_from_u64(123);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 4, &mut rng).unwrap();
        assert_eq!(keys.ehl_keys.len(), 4);

        let s1 = keys.s1_view();
        let s2 = keys.s2_view();

        assert_eq!(s1.paillier_public.n(), s2.paillier_public.n());
    }

    #[test]
    fn s2_can_decrypt_what_s1_encrypts() {
        let mut rng = StdRng::seed_from_u64(77);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let s1 = keys.s1_view();
        let s2 = keys.s2_view();
        let c = s1.paillier_public.encrypt_u64(314, &mut rng).unwrap();
        assert_eq!(s2.paillier_secret.decrypt_u64(&c).unwrap(), 314);
    }

    #[test]
    fn ehl_keys_are_pairwise_distinct() {
        let mut rng = StdRng::seed_from_u64(5);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 5, &mut rng).unwrap();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(keys.ehl_keys[i].as_bytes(), keys.ehl_keys[j].as_bytes());
            }
        }
        assert_ne!(keys.prp_key.as_bytes(), keys.ehl_keys[0].as_bytes());
    }

    /// Secret hygiene (DESIGN.md §15): no `Debug` rendering of a key bundle or of a leaf
    /// secret type shows the factors, λ, μ or PRF key bytes, in decimal or in hex.
    #[test]
    fn debug_formatting_never_shows_secret_material() {
        let mut rng = StdRng::seed_from_u64(99);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let s2 = keys.s2_view();

        // The secrets, read back from the one place they may leave the key: its serialized form.
        let list = |bytes: &[u8]| bytes.iter().map(u8::to_string).collect::<Vec<_>>().join(",");
        let serialized = keys.paillier_secret.to_value();
        let mut secrets = Vec::new();
        for name in ["p", "q", "lambda", "mu"] {
            let Some(serde::Value::Str(decimal)) = serialized.get(name) else {
                panic!("the serialized secret key has no `{name}`");
            };
            let value: num_bigint::BigUint = decimal.parse().unwrap();
            secrets.extend([(name, decimal.clone()), (name, hex_encode(&value.to_bytes_be()))]);
        }
        for key in keys.ehl_keys.iter().chain([&keys.prp_key]).map(PrfKey::as_bytes) {
            secrets.extend([("a PRF key", hex_encode(key)), ("a PRF key", list(key))]);
        }

        let dj = &crate::damgard_jurik::DjSecretKey::from_paillier(&keys.paillier_secret);
        let (sk, prf) = (&keys.paillier_secret, &keys.prp_key);
        let rendered = format!(
            "{keys:?} {keys:#?} {s2:?} {s2:#?} {sk:?} {sk:#?} {dj:?} {dj:#?} {prf:?} {prf:#?}"
        );
        // `{:#?}` breaks lists over lines; compare with all whitespace removed.
        let compact = rendered.split_whitespace().collect::<String>().to_lowercase();
        for (name, form) in secrets {
            assert!(!compact.contains(&form), "{name} shows in a Debug rendering");
        }
    }

    #[test]
    fn a_shared_modulus_too_wide_for_an_own_key_is_refused_before_keygen() {
        assert_eq!(MAX_SHARED_MODULUS_BITS, 992);
        assert!(own_modulus_bits(MAX_SHARED_MODULUS_BITS) <= MAX_MODULUS_BITS);
        assert!(own_modulus_bits(MAX_SHARED_MODULUS_BITS + 1) > MAX_MODULUS_BITS);
        let mut rng = StdRng::seed_from_u64(31);
        for requested in [993, 1000, MAX_MODULUS_BITS] {
            let err = MasterKeys::generate(requested, 2, &mut rng).unwrap_err();
            assert_eq!(err, CryptoError::KeySizeTooLarge { requested, maximum: 992 });
        }
        // Refused before the prime search: not one draw was spent.
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(31).next_u64());
    }

    #[test]
    fn no_ehl_key_is_refused_before_keygen() {
        let mut rng = StdRng::seed_from_u64(32);
        let err = MasterKeys::generate(MIN_MODULUS_BITS, 0, &mut rng).unwrap_err();
        assert_eq!(err, CryptoError::NoEhlKeys);
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(32).next_u64());
    }

    /// At the default 256-bit `N`, every modulus a session reduces by — `N²`, `N³`, `p²`,
    /// `p³`, `q²`, `q³` of the shared key and `N'²`, `p'²`, `q'²` of S1's own key — is a
    /// rung of the Montgomery ladder, so no product runs on zero-padded limbs.
    #[test]
    fn the_default_key_pays_no_padding() {
        let mut rng = StdRng::seed_from_u64(256);
        let keys = MasterKeys::generate(DEFAULT_MODULUS_BITS, 2, &mut rng).unwrap();
        let (_, own) = generate_keypair(own_modulus_bits(DEFAULT_MODULUS_BITS), &mut rng).unwrap();
        let (n, (p, q)) = (keys.paillier_public.n(), keys.paillier_secret.factors());
        let (own_n, (own_p, own_q)) = (own.public_key().n(), own.factors());
        let moduli = [
            ("N²", n.pow(2)),
            ("N³", n.pow(3)),
            ("p²", p.pow(2)),
            ("p³", p.pow(3)),
            ("q²", q.pow(2)),
            ("q³", q.pow(3)),
            ("N'²", own_n.pow(2)),
            ("p'²", own_p.pow(2)),
            ("q'²", own_q.pow(2)),
        ];
        for (name, modulus) in moduli {
            let limbs = modulus.to_u64_digits().len();
            let width = num_bigint::MontgomeryContext::new(&modulus).unwrap().width();
            assert_eq!(width, limbs, "{name} ({limbs} limbs) runs at width {width}");
        }
    }

    #[test]
    fn distinct_generations_use_distinct_keys() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let b = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        assert_ne!(a.paillier_public.n(), b.paillier_public.n());
        assert_ne!(a.prp_key.as_bytes(), b.prp_key.as_bytes());
    }
}
