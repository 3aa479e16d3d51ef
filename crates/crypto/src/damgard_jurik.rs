//! The Damgård–Jurik generalized Paillier cryptosystem (PKC'01), specialised to the
//! single extra layer (`s = 2`) of §3.3 of the paper: messages in `Z_{N²}` — the
//! ciphertext space of Paillier under the same modulus — and ciphertexts in `Z_{N³}^*`.
//!
//! The paper selects with this layer, `E2(Enc(m1))^{Enc(m2)} = E2(Enc(m1+m2))`
//! (Algorithms 4–6 and 9).  SecTopK selects with a masked exchange under plain Paillier
//! instead (DESIGN.md §10), so no protocol holds a Damgård–Jurik key.  What is left is
//! what the benchmark's per-layer metrics time, one path per operation: encryption with
//! the binomial `(1+N)^m` and the fixed-base nonce `H₃^a` (the one
//! [`crate::pool::RandomnessPool`] precomputes), and the textbook `λ` decryption.

use num_bigint::{BigUint, MontgomeryContext};
use num_traits::{One, Zero};
use rand::{CryptoRng, RngCore};
use std::sync::Arc;

use crate::bigint::{factorial, l_function, mod_inverse, random_below};
use crate::error::{CryptoError, Result};
use crate::paillier::{context_for, PaillierPublicKey, PaillierSecretKey};

/// The Damgård–Jurik exponent used throughout the paper: one extra layer over Paillier.
pub const DJ_S: u32 = 2;

/// Why the outer-layer context always exists: every Paillier key — generated or
/// deserialized — has an odd `N` of at most [`crate::paillier::MAX_MODULUS_BITS`] bits,
/// so `N³` fits the widest Montgomery kernel.
const WITHIN_MAX_MODULUS_BITS: &str = "a Paillier key's N is odd and within MAX_MODULUS_BITS";

/// A layered (Damgård–Jurik, `s = 2`) ciphertext: an element of `Z_{N³}^*` encrypting an
/// element of `Z_{N²}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayeredCiphertext(pub(crate) BigUint);

impl LayeredCiphertext {
    /// Raw group element backing this ciphertext.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }
}

/// Public (encryption) half of the Damgård–Jurik scheme, derived from a Paillier public
/// key: same modulus `N`, ciphertexts live in `Z_{N^{s+1}}`.
///
/// Like [`PaillierPublicKey`], the precomputed quantities — the big moduli and the
/// [`MontgomeryContext`] for `N³` — live behind one shared [`Arc`], so clones (one per
/// pool) are pointer bumps and every exponentiation under `N³` reuses the same CIOS
/// parameters.
#[derive(Clone, Debug)]
pub struct DjPublicKey {
    inner: Arc<DjInner>,
}

#[derive(Debug)]
struct DjInner {
    paillier: PaillierPublicKey,
    /// `N²` — the message-space modulus of the outer layer.
    n_s: BigUint,
    /// `N³` — the ciphertext-space modulus of the outer layer.
    n_s_plus_1: BigUint,
    /// Montgomery parameters for `N³` (odd for any product of odd primes).
    ctx_n3: MontgomeryContext,
    /// `2⁻¹ mod N`, used by the binomial expansion of `(1+N)^m mod N³`.
    inv2_mod_n: BigUint,
    /// `H₃ = h^{N²} mod N³`, the fixed base of the precomputed-nonce subgroup
    /// (same `h =` [`crate::paillier::NONCE_BASE_H`] as the inner layer).
    nonce_base: BigUint,
    /// Fixed-base comb of `H₃` covering exponents up to `|N|` bits.
    nonce_table: num_bigint::FixedBaseTable,
}

impl DjPublicKey {
    /// Build the outer-layer public key from the shared Paillier public key.
    pub fn from_paillier(pk: &PaillierPublicKey) -> Self {
        let n = pk.n();
        let n_s = n * n;
        let n_s_plus_1 = &n_s * n;
        let ctx_n3 = context_for(&n_s_plus_1, n).expect(WITHIN_MAX_MODULUS_BITS);
        // N is odd, so 2⁻¹ mod N = (N+1)/2.
        let inv2_mod_n = (n + BigUint::one()) >> 1u32;
        let h = BigUint::from(crate::paillier::NONCE_BASE_H);
        let nonce_base = ctx_n3.modpow(&h, &n_s);
        let nonce_table = ctx_n3.precompute_fixed_base(&nonce_base, n.bits());
        DjPublicKey {
            inner: Arc::new(DjInner {
                paillier: pk.clone(),
                n_s,
                n_s_plus_1,
                ctx_n3,
                inv2_mod_n,
                nonce_base,
                nonce_table,
            }),
        }
    }

    /// The shared modulus `N`.
    pub fn n(&self) -> &BigUint {
        self.inner.paillier.n()
    }

    /// The outer message-space modulus `N²`.
    pub fn n_s(&self) -> &BigUint {
        &self.inner.n_s
    }

    /// The outer ciphertext-space modulus `N³`.
    pub fn n_s_plus_1(&self) -> &BigUint {
        &self.inner.n_s_plus_1
    }

    /// Encrypt an arbitrary message `m ∈ Z_{N²}` under the outer layer:
    /// `E2(m) = (1+N)^m · H₃^a mod N³` for an exponent `a < N` drawn from `rng`
    /// ([`Self::nonce_from_exponent`]), the nonce every pool hands out.
    pub fn encrypt<R: RngCore + CryptoRng>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<LayeredCiphertext> {
        if m >= self.n_s() {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        let a = random_below(rng, self.n());
        Ok(self.encrypt_with_nonce(m, &self.nonce_from_exponent(&a)))
    }

    /// Encrypt a small constant.
    pub fn encrypt_u64<R: RngCore + CryptoRng>(
        &self,
        m: u64,
        rng: &mut R,
    ) -> Result<LayeredCiphertext> {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// `H₃ = h^{N²} mod N³` for `h =` [`crate::paillier::NONCE_BASE_H`] — the fixed
    /// base of the amortized nonce subgroup, and the differential reference for
    /// [`Self::nonce_from_exponent`].
    pub fn nonce_base(&self) -> &BigUint {
        &self.inner.nonce_base
    }

    /// The encryption nonce `H₃^a mod N³` for a random exponent `a < N`, evaluated over
    /// the key's cached fixed-base comb (`|N|/32 − 1` squarings and at most `|N|/8`
    /// Montgomery products) — the outer-layer twin of
    /// [`crate::paillier::PaillierPublicKey::nonce_from_exponent`], and the only nonce
    /// path: [`Self::encrypt`] and [`crate::pool::RandomnessPool`] both take it.
    pub fn nonce_from_exponent(&self, a: &BigUint) -> BigUint {
        self.inner.ctx_n3.fixed_base_modpow(&self.inner.nonce_table, a)
    }

    /// Encryption given a precomputed nonce ([`Self::nonce_from_exponent`]).
    ///
    /// `(1+N)^m mod N³` is evaluated by the binomial identity
    /// `1 + mN + (m(m−1)/2 mod N)·N²` — all terms of degree ≥ 3 vanish mod `N³` — so
    /// the only exponentiation left in an encryption is the nonce itself.
    pub fn encrypt_with_nonce(&self, m: &BigUint, r_ns: &BigUint) -> LayeredCiphertext {
        LayeredCiphertext(self.inner.ctx_n3.mul_mod(&self.g_pow(m), r_ns))
    }

    /// `(1+N)^m mod N³` via the closed-form binomial expansion (no exponentiation).
    fn g_pow(&self, m: &BigUint) -> BigUint {
        let n = self.n();
        let n3 = self.n_s_plus_1();
        if m.is_zero() {
            return BigUint::one();
        }
        // binom = m(m−1)/2 mod N; the division by 2 becomes a multiplication by
        // 2⁻¹ = (N+1)/2, valid because N is odd.
        let m_mod_n = m % n;
        let m_minus_1_mod_n = ((&m_mod_n + n) - BigUint::one()) % n;
        let binom = ((m_mod_n * m_minus_1_mod_n) % n) * &self.inner.inv2_mod_n % n;
        // 1 + mN + binom·N²  <  N³ + N³: one reduction suffices.
        (BigUint::one() + m * n + binom * self.n_s()) % n3
    }

    /// Sanity-check a layered ciphertext: a nonzero residue modulo `N³`.
    pub fn validate(&self, a: &LayeredCiphertext) -> Result<()> {
        if a.0.is_zero() || a.0 >= *self.n_s_plus_1() {
            Err(CryptoError::CiphertextOutOfRange)
        } else {
            Ok(())
        }
    }
}

/// Secret (decryption) half of the Damgård–Jurik scheme: the Paillier key's `λ` and
/// `λ⁻¹ mod N²`, both fixed at [`Self::from_paillier`].
#[derive(Clone)]
pub struct DjSecretKey {
    public: DjPublicKey,
    lambda: BigUint,
    lambda_inv: BigUint,
}

impl std::fmt::Debug for DjSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; the public half identifies the key for debugging.
        f.debug_struct("DjSecretKey").field("public", &self.public).finish_non_exhaustive()
    }
}

impl DjSecretKey {
    /// Derive the outer-layer secret key from the Paillier secret key.
    pub fn from_paillier(sk: &PaillierSecretKey) -> Self {
        let public = DjPublicKey::from_paillier(sk.public_key());
        // λ = lcm(p−1, q−1) shares no factor with N = pq, so none with N² either.
        let lambda = sk.lambda_for_dj().clone();
        let lambda_inv = mod_inverse(&lambda, public.n_s()).expect("λ is coprime to N²");
        DjSecretKey { public, lambda, lambda_inv }
    }

    /// Decrypt a layered ciphertext to its message in `Z_{N²}`, by the textbook path:
    /// `c^λ mod N³ = (1+N)^{mλ mod N²}` (the nonce's order divides `N²λ`) under the
    /// key's cached `N³` context, the exponent `mλ` extracted by the Damgård–Jurik
    /// recursion, and `m` recovered with `λ⁻¹ mod N²`.
    pub fn decrypt(&self, c: &LayeredCiphertext) -> Result<BigUint> {
        self.public.validate(c)?;
        let a = self.public.inner.ctx_n3.modpow(&c.0, &self.lambda);
        let i = extract_exponent(&a, self.public.n(), DJ_S)?;
        Ok((i * &self.lambda_inv) % self.public.n_s())
    }
}

/// Extract `i` from `a = (1+N)^i mod N^{s+1}` where `i < N^s`, using the iterative
/// algorithm from the Damgård–Jurik paper (Theorem 1).
fn extract_exponent(a: &BigUint, n: &BigUint, s: u32) -> Result<BigUint> {
    let mut i = BigUint::zero();
    for j in 1..=s {
        let n_j = n.pow(j);
        let n_j_plus_1 = n.pow(j + 1);
        // t1 = L(a mod N^{j+1})
        let a_mod = a % &n_j_plus_1;
        if !(&a_mod % n).is_one() {
            return Err(CryptoError::DecryptionFailed);
        }
        let mut t1 = l_function(&a_mod, n) % &n_j;
        let mut t2 = i.clone();
        let mut i_k = i.clone();
        for k in 2..=j {
            // i_k counts down: i, i-1, i-2, ...
            if i_k.is_zero() {
                i_k = &n_j - BigUint::one();
            } else {
                i_k -= BigUint::one();
            }
            t2 = (&t2 * &i_k) % &n_j;
            let k_fact_inv = mod_inverse(&factorial(k as u64), &n_j)?;
            let term = (&t2 * n.pow(k - 1) % &n_j) * k_fact_inv % &n_j;
            t1 = ((&t1 + &n_j) - term) % &n_j;
        }
        i = t1;
    }
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::{generate_keypair, MIN_MODULUS_BITS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DjPublicKey, DjSecretKey, PaillierPublicKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let (pk, sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        (DjPublicKey::from_paillier(&pk), DjSecretKey::from_paillier(&sk), pk, rng)
    }

    #[test]
    fn round_trip_small_values() {
        let (dj_pk, dj_sk, _pk, mut rng) = setup();
        for m in [0u64, 1, 2, 255, 1_000_000, u64::MAX] {
            let c = dj_pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(dj_sk.decrypt(&c).unwrap(), BigUint::from(m), "m = {m}");
        }
    }

    #[test]
    fn round_trip_values_larger_than_n() {
        let (dj_pk, dj_sk, pk, mut rng) = setup();
        // Messages in [N, N²) exercise the second extraction round.
        let m = pk.n() + BigUint::from(12345u64);
        let c = dj_pk.encrypt(&m, &mut rng).unwrap();
        assert_eq!(dj_sk.decrypt(&c).unwrap(), m);

        let m2 = dj_pk.n_s() - BigUint::one();
        let c2 = dj_pk.encrypt(&m2, &mut rng).unwrap();
        assert_eq!(dj_sk.decrypt(&c2).unwrap(), m2);
    }

    #[test]
    fn layered_encryption_round_trip() {
        // A Paillier ciphertext is an outer-layer message, as in the paper's `E2(Enc(m))`.
        let (dj_pk, dj_sk, pk, mut rng) = setup();
        let inner = pk.encrypt_u64(777, &mut rng).unwrap();
        let layered = dj_pk.encrypt(inner.as_biguint(), &mut rng).unwrap();
        assert_eq!(&dj_sk.decrypt(&layered).unwrap(), inner.as_biguint());
    }

    #[test]
    fn rejects_plaintext_outside_message_space() {
        let (dj_pk, _dj_sk, _pk, mut rng) = setup();
        let too_big = dj_pk.n_s().clone();
        assert!(matches!(dj_pk.encrypt(&too_big, &mut rng), Err(CryptoError::PlaintextOutOfRange)));
    }

    #[test]
    fn fixed_base_nonce_matches_naive_exponentiation() {
        let (dj_pk, dj_sk, pk, mut rng) = setup();
        let h = BigUint::from(crate::paillier::NONCE_BASE_H);
        assert_eq!(dj_pk.nonce_base(), &h.modpow(dj_pk.n_s(), dj_pk.n_s_plus_1()));
        for a in [
            BigUint::zero(),
            BigUint::one(),
            pk.n() - BigUint::one(),
            crate::bigint::random_below(&mut rng, pk.n()),
        ] {
            assert_eq!(
                dj_pk.nonce_from_exponent(&a),
                dj_pk.nonce_base().modpow_naive(&a, dj_pk.n_s_plus_1()),
            );
        }
        let a = crate::bigint::random_below(&mut rng, pk.n());
        let c = dj_pk.encrypt_with_nonce(&BigUint::from(31337u64), &dj_pk.nonce_from_exponent(&a));
        assert_eq!(dj_sk.decrypt(&c).unwrap(), BigUint::from(31337u64));
    }

    #[test]
    fn fresh_nonces_are_comb_powers_of_an_exponent_drawn_from_the_callers_rng() {
        // The twin of the Paillier test: the 512-bit key checks that the comb covers
        // every exponent bit of a wider `N`.
        let mut keygen = StdRng::seed_from_u64(47);
        for bits in [MIN_MODULUS_BITS, 256, 512] {
            let (pk, sk) = generate_keypair(bits, &mut keygen).unwrap();
            let (dj_pk, dj_sk) = (DjPublicKey::from_paillier(&pk), DjSecretKey::from_paillier(&sk));
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let mut reference = rng.clone();
            let m = random_below(&mut keygen, dj_pk.n_s());

            let c = dj_pk.encrypt(&m, &mut rng).unwrap();
            let nonce = dj_pk.nonce_from_exponent(&random_below(&mut reference, pk.n()));
            assert_eq!(c, dj_pk.encrypt_with_nonce(&m, &nonce), "{bits}-bit encrypt");
            assert_eq!(rng.next_u64(), reference.next_u64(), "{bits}-bit RNGs");
            assert_eq!(dj_sk.decrypt(&c).unwrap(), m, "{bits}-bit");
        }
    }

    #[test]
    fn validate_rejects_garbage() {
        let (dj_pk, _dj_sk, _pk, _rng) = setup();
        assert!(dj_pk.validate(&LayeredCiphertext(BigUint::zero())).is_err());
        assert!(dj_pk.validate(&LayeredCiphertext(dj_pk.n_s_plus_1().clone())).is_err());
    }
}
