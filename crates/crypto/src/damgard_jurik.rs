//! The Damgård–Jurik generalized Paillier cryptosystem (PKC'01), specialised to the
//! single extra layer (`s = 2`) that SecTopK needs (§3.3 of the paper).
//!
//! With `s = 2` the message space is `Z_{N²}` — exactly the ciphertext space of plain
//! Paillier under the same modulus — which allows a Paillier ciphertext to be treated as
//! a plaintext of the outer layer.  The single homomorphic identity the paper relies on:
//!
//! ```text
//! E2(Enc(m1))^Enc(m2) = E2(Enc(m1) · Enc(m2)) = E2(Enc(m1 + m2))
//! ```
//!
//! is exercised directly by the sub-protocols SecWorst / SecBest / SecUpdate (Algorithms
//! 4, 6 and 9) and verified by the unit tests below.
//!
//! Those sub-protocols use it to *select*: `E2(t)^X · E2(1−t)^Y = E2(t·X + (1−t)·Y)`
//! is `E2(X)` or `E2(Y)` for a bit `t` only S2 knows (Algorithm 4 line 6).
//! [`DjPublicKey::select_blinded`] is that identity for any number of candidates of
//! which at most one is chosen, `E2(Σ t_i·X_i + (1 − Σ t_i)·Y)`, with the `RecoverEnc`
//! blinding (Algorithm 5) folded into the exponents — one multi-exponentiation per
//! decision, whatever the number of candidates.

use num_bigint::{BigUint, MontgomeryContext};
use num_traits::{One, Zero};
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::bigint::{factorial, l_function, mod_inverse, random_invertible};
use crate::error::{CryptoError, Result};
use crate::paillier::{context_for, Ciphertext, PaillierPublicKey, PaillierSecretKey};

/// The Damgård–Jurik exponent used throughout the paper: one extra layer over Paillier.
pub const DJ_S: u32 = 2;

/// Why the outer-layer contexts always exist: every Paillier key — generated or
/// deserialized — has an odd `N` of at most [`crate::paillier::MAX_MODULUS_BITS`] bits,
/// so `N³`, `p³` and `q³` fit the widest Montgomery kernel.
const WITHIN_MAX_MODULUS_BITS: &str = "a Paillier key's N is odd and within MAX_MODULUS_BITS";

/// A layered (Damgård–Jurik, `s = 2`) ciphertext: an element of `Z_{N³}^*` encrypting an
/// element of `Z_{N²}` — typically an inner Paillier ciphertext.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LayeredCiphertext(pub(crate) BigUint);

impl LayeredCiphertext {
    /// Raw group element backing this ciphertext.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Serialized length in bytes (for channel bandwidth accounting).
    pub fn byte_len(&self) -> usize {
        (self.0.bits() as usize).div_ceil(8)
    }

    /// The canonical wire form: the group element as a big-endian byte string.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Parse the canonical big-endian wire form produced by [`Self::to_bytes_be`].
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        LayeredCiphertext(BigUint::from_bytes_be(bytes))
    }
}

// Same wire form as the inner Paillier [`Ciphertext`]: a big-endian byte string, so the
// metered channel measures exactly `byte_len` bytes per shipped ciphertext.
impl Serialize for LayeredCiphertext {
    fn to_value(&self) -> serde::Value {
        serde::Value::Bytes(self.to_bytes_be())
    }
}

impl Deserialize for LayeredCiphertext {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        crate::encoding::bytes_from_value(v, "LayeredCiphertext")
            .map(|b| LayeredCiphertext::from_bytes_be(&b))
    }
}

/// Public (encryption) half of the Damgård–Jurik scheme, derived from a Paillier public
/// key: same modulus `N`, ciphertexts live in `Z_{N^{s+1}}`.
///
/// Like [`PaillierPublicKey`], the precomputed quantities — the big moduli and the
/// [`MontgomeryContext`] for `N³` — live behind one shared [`Arc`], so clones (one per
/// cloud view, per engine, per pool) are pointer bumps and every exponentiation under
/// `N³` reuses the same CIOS parameters.
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
    /// Fixed-base power table of `H₃` covering exponents up to `|N|` bits.
    nonce_table: num_bigint::FixedBaseTable,
}

// Everything in `DjInner` is derived from the Paillier public key, so only that key
// crosses the wire and deserialization rebuilds the caches.
impl Serialize for DjPublicKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("paillier".to_string(), self.inner.paillier.to_value())])
    }
}

impl Deserialize for DjPublicKey {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let paillier = PaillierPublicKey::from_value(
            v.get("paillier").ok_or_else(|| serde::Error::missing_field("paillier"))?,
        )?;
        Ok(DjPublicKey::from_paillier(&paillier))
    }
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

    /// The inner Paillier public key.
    pub fn paillier(&self) -> &PaillierPublicKey {
        &self.inner.paillier
    }

    /// Encrypt an arbitrary message `m ∈ Z_{N²}` under the outer layer:
    /// `E2(m) = (1+N)^m · r^{N²} mod N³`.
    pub fn encrypt<R: RngCore + CryptoRng>(
        &self,
        m: &BigUint,
        rng: &mut R,
    ) -> Result<LayeredCiphertext> {
        if m >= self.n_s() {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        let r = random_invertible(rng, self.n());
        Ok(self.encrypt_with_randomness(m, &r))
    }

    /// Encrypt a small constant (e.g. the `E2(1)` used on line 6 of Algorithm 4).
    pub fn encrypt_u64<R: RngCore + CryptoRng>(
        &self,
        m: u64,
        rng: &mut R,
    ) -> Result<LayeredCiphertext> {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// Encrypt an inner Paillier ciphertext: the "doubly encrypted" `E2(Enc(m))` object
    /// the sub-protocols exchange.
    pub fn encrypt_ciphertext<R: RngCore + CryptoRng>(
        &self,
        inner: &Ciphertext,
        rng: &mut R,
    ) -> Result<LayeredCiphertext> {
        self.encrypt(inner.as_biguint(), rng)
    }

    /// Deterministic encryption with caller-supplied randomness.
    pub fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> LayeredCiphertext {
        self.encrypt_with_nonce(m, &self.nonce_from_r(r))
    }

    /// The encryption nonce `r^{N²} mod N³` for a given `r ∈ Z_N^*` — the expensive
    /// half of a layered encryption, precomputable ahead of time (see
    /// [`crate::pool::RandomnessPool`]).
    pub fn nonce_from_r(&self, r: &BigUint) -> BigUint {
        self.inner.ctx_n3.modpow(r, self.n_s())
    }

    /// `H₃ = h^{N²} mod N³` for `h =` [`crate::paillier::NONCE_BASE_H`] — the fixed
    /// base of the amortized nonce subgroup, and the differential reference for
    /// [`Self::nonce_from_exponent`].
    pub fn nonce_base(&self) -> &BigUint {
        &self.inner.nonce_base
    }

    /// The encryption nonce `H₃^a mod N³` for a pool-drawn random exponent `a < N`,
    /// evaluated over the key's cached fixed-base table (one Montgomery multiplication
    /// per nonzero 4-bit window, no squarings) — the outer-layer twin of
    /// [`crate::paillier::PaillierPublicKey::nonce_from_exponent`].
    pub fn nonce_from_exponent(&self, a: &BigUint) -> BigUint {
        self.inner.ctx_n3.fixed_base_modpow(&self.inner.nonce_table, a)
    }

    /// Encryption given a precomputed nonce `r^{N²} mod N³`.
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

    /// Homomorphic addition in the outer layer: `E2(a) · E2(b) = E2(a + b mod N²)`.
    pub fn add(&self, a: &LayeredCiphertext, b: &LayeredCiphertext) -> LayeredCiphertext {
        LayeredCiphertext(self.inner.ctx_n3.mul_mod(&a.0, &b.0))
    }

    /// Scalar multiplication in the outer layer: `E2(a)^k = E2(k · a mod N²)`
    /// (windowed Montgomery exponentiation under the cached `N³` context).
    ///
    /// This is the operation that realises the paper's layered identity when `k` is an
    /// inner Paillier ciphertext: `E2(Enc(m1))^{Enc(m2)} = E2(Enc(m1+m2))`.
    pub fn mul_plain(&self, a: &LayeredCiphertext, k: &BigUint) -> LayeredCiphertext {
        LayeredCiphertext(self.inner.ctx_n3.modpow(&a.0, k))
    }

    /// Scalar multiplication by an inner Paillier ciphertext (sugar over [`Self::mul_plain`]).
    pub fn mul_by_ciphertext(&self, a: &LayeredCiphertext, k: &Ciphertext) -> LayeredCiphertext {
        self.mul_plain(a, k.as_biguint())
    }

    /// Fused double scalar multiplication `a^{k_a} · b^{k_b} mod N³` by Strauss–Shamir
    /// joint exponentiation ([`num_bigint::MontgomeryContext::multi_modpow`]): one
    /// shared squaring chain instead of two, ~2× over
    /// `add(mul_by_ciphertext(a, k_a), mul_by_ciphertext(b, k_b))`.  Bit-for-bit equal
    /// to the unfused path, which stays as the differential reference.
    pub fn mul_add_ciphertexts(
        &self,
        a: &LayeredCiphertext,
        k_a: &Ciphertext,
        b: &LayeredCiphertext,
        k_b: &Ciphertext,
    ) -> LayeredCiphertext {
        LayeredCiphertext(self.inner.ctx_n3.multi_modpow(
            &a.0,
            k_a.as_biguint(),
            &b.0,
            k_b.as_biguint(),
        ))
    }

    /// Oblivious one-of-many selection with the `RecoverEnc` blinding folded in: from
    /// `terms = [(E2(t_i), X_i)]`, a fresh `E2(1)` and the inner ciphertexts
    /// `Y = otherwise`, `R = Enc(r)`, compute
    ///
    /// ```text
    /// Π_i E2(t_i)^{(X_i−Y)·R mod N²} · E2(1)^{Y·R mod N²}
    ///     =  E2( (Σ t_i·X_i + (1 − Σ t_i)·Y) · R mod N² )
    /// ```
    ///
    /// — one Straus multi-exponentiation over `n + 1` bases.  **At most one `t_i` may
    /// be 1**: then the outer plaintext is `X_i·R = Enc(x_i + r)` for the hot term and
    /// `Y·R = Enc(y + r)` when there is none.  With two hot terms it is
    /// `(X_a + X_b − Y)·R`, a sum of ciphertexts in `Z_{N²}` that encrypts nothing
    /// meaningful — the caller owns the invariant, nothing here can check it.
    ///
    /// With one term this is Algorithm 4 line 6 followed by Algorithm 5, the paper's
    /// `(E2(t)^X · (E2(1)·E2(t)⁻¹)^Y)^R`: exponents of the outer layer live in `Z_{N²}`
    /// where `t·(X−Y) + Y = t·X + (1−t)·Y`, but it needs no inversion modulo `N³` and
    /// one shared squaring chain instead of a double plus a single exponentiation.  The
    /// outer nonce is `Π ρ_{t_i}^{(X_i−Y)·R} · ρ_1^{Y·R}`: masked by the fresh `ρ_1` of
    /// `E2(1)` whatever the number of terms.
    pub fn select_blinded(
        &self,
        terms: &[(&LayeredCiphertext, &Ciphertext)],
        e2_one: &LayeredCiphertext,
        otherwise: &Ciphertext,
        enc_r: &Ciphertext,
    ) -> LayeredCiphertext {
        // Exponent products mod N² under the inner Paillier key's cached context.
        let (ctx_n2, n2) = (self.paillier().ctx_n2(), self.n_s());
        let yr = ctx_n2.mul_mod(otherwise.as_biguint(), enc_r.as_biguint());
        let diffs_r: Vec<BigUint> = terms
            .iter()
            .map(|(_, x)| {
                let xr = ctx_n2.mul_mod(x.as_biguint(), enc_r.as_biguint());
                if xr >= yr {
                    xr - &yr
                } else {
                    xr + n2 - &yr
                }
            })
            .collect();
        let mut product: Vec<(&BigUint, &BigUint)> =
            terms.iter().zip(&diffs_r).map(|((e2_t, _), diff_r)| (&e2_t.0, diff_r)).collect();
        product.push((&e2_one.0, &yr));
        LayeredCiphertext(self.inner.ctx_n3.multi_exp(&product))
    }

    /// Homomorphic negation in the outer layer.
    pub fn negate(&self, a: &LayeredCiphertext) -> LayeredCiphertext {
        let inv = mod_inverse(&a.0, self.n_s_plus_1())
            .expect("layered ciphertext is invertible for honestly generated keys");
        LayeredCiphertext(inv)
    }

    /// Subtraction in the outer layer: `E2(a) / E2(b) = E2(a − b mod N²)`.  The
    /// reference: one inversion modulo `N³` per call — [`Self::select_blinded`] needs
    /// none.
    pub fn sub(&self, a: &LayeredCiphertext, b: &LayeredCiphertext) -> LayeredCiphertext {
        self.add(a, &self.negate(b))
    }

    /// Re-randomize a layered ciphertext.
    pub fn rerandomize<R: RngCore + CryptoRng>(
        &self,
        a: &LayeredCiphertext,
        rng: &mut R,
    ) -> LayeredCiphertext {
        let r = random_invertible(rng, self.n());
        self.rerandomize_with_nonce(a, &self.nonce_from_r(&r))
    }

    /// Re-randomization given a precomputed nonce `r^{N²} mod N³`.
    pub fn rerandomize_with_nonce(
        &self,
        a: &LayeredCiphertext,
        r_ns: &BigUint,
    ) -> LayeredCiphertext {
        LayeredCiphertext(self.inner.ctx_n3.mul_mod(&a.0, r_ns))
    }

    /// Sanity-check a layered ciphertext received from the network.
    pub fn validate(&self, a: &LayeredCiphertext) -> Result<()> {
        if a.0.is_zero() || a.0 >= *self.n_s_plus_1() {
            Err(CryptoError::CiphertextOutOfRange)
        } else {
            Ok(())
        }
    }
}

/// Secret (decryption) half of the Damgård–Jurik scheme.  Wraps the Paillier secret key —
/// the crypto cloud S2 holds both.
///
/// Like the Paillier secret key, decryption runs in CRT form: the dominating
/// exponentiation `c^λ mod N³` becomes two half-width exponentiations modulo `p³` and
/// `q³`, recombined with Garner's formula before the exponent-extraction recursion.
/// The CRT parameters are derived from the Paillier key's factors and live behind an
/// [`Arc`] (cheap clones); serialization ships only the Paillier key and rebuilds them.
#[derive(Clone)]
pub struct DjSecretKey {
    paillier: PaillierSecretKey,
    public: DjPublicKey,
    crt: Arc<DjCrt>,
}

impl std::fmt::Debug for DjSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; the public half identifies the key for debugging.
        f.debug_struct("DjSecretKey").field("public", &self.public).finish_non_exhaustive()
    }
}

/// CRT parameters for the outer-layer modulus `N³ = p³·q³`.
///
/// Each branch decrypts with the *half-size* exponent `p−1` (resp. `q−1`) instead of
/// `λ`: `c^{p−1} mod p³ = (1+N)^{y} mod p³` with `y = m(p−1) mod p²` (the nonce's
/// contribution vanishes because `N²(p−1) ≡ 0 mod p²(p−1)`, the group order), and `y`
/// is extracted from the binomial closed form
/// `1 + y·q·p + (y(y−1)/2 mod p)·q²·p² (mod p³)` with two inversions precomputed here.
/// No `Debug`: the fields are the factors themselves and must never be formatted.
struct DjCrt {
    p: BigUint,
    q: BigUint,
    p_squared: BigUint,
    q_squared: BigUint,
    /// Montgomery parameters for `p³` and `q³`.
    ctx_p3: MontgomeryContext,
    ctx_q3: MontgomeryContext,
    /// Branch exponents `p − 1` and `q − 1`.
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// `q⁻¹ mod p²` and `p⁻¹ mod q²` (strip the co-factor from the linear term).
    q_inv_mod_p2: BigUint,
    p_inv_mod_q2: BigUint,
    /// `q mod p` and `p mod q` (the co-factor re-enters the quadratic correction).
    q_mod_p: BigUint,
    p_mod_q: BigUint,
    /// `2⁻¹ mod p` / `2⁻¹ mod q` for the binomial correction term.
    inv2_mod_p: BigUint,
    inv2_mod_q: BigUint,
    /// `(p−1)⁻¹ mod p²` and `(q−1)⁻¹ mod q²` (divide the branch exponent back out).
    pm1_inv_mod_p2: BigUint,
    qm1_inv_mod_q2: BigUint,
    /// Garner coefficient `(p²)⁻¹ mod q²` recombining the branch messages in `Z_{N²}`.
    p2_inv_mod_q2: BigUint,
}

impl Serialize for DjSecretKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("paillier".to_string(), self.paillier.to_value())])
    }
}

impl Deserialize for DjSecretKey {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let paillier = PaillierSecretKey::from_value(
            v.get("paillier").ok_or_else(|| serde::Error::missing_field("paillier"))?,
        )?;
        Ok(DjSecretKey::from_paillier(&paillier))
    }
}

impl DjSecretKey {
    /// Derive the outer-layer secret key from the Paillier secret key.
    pub fn from_paillier(sk: &PaillierSecretKey) -> Self {
        let public = DjPublicKey::from_paillier(sk.public_key());
        let (p, q) = sk.factors();
        let p_squared = p * p;
        let q_squared = q * q;
        let p_cubed = &p_squared * p;
        let q_cubed = &q_squared * q;
        let ctx_p3 = context_for(&p_cubed, sk.public_key().n()).expect(WITHIN_MAX_MODULUS_BITS);
        let ctx_q3 = context_for(&q_cubed, sk.public_key().n()).expect(WITHIN_MAX_MODULUS_BITS);
        let invertible = "factors are odd, distinct and coprime to their co-factors";
        let crt = DjCrt {
            p_minus_1: p - BigUint::one(),
            q_minus_1: q - BigUint::one(),
            q_inv_mod_p2: mod_inverse(q, &p_squared).expect(invertible),
            p_inv_mod_q2: mod_inverse(p, &q_squared).expect(invertible),
            q_mod_p: q % p,
            p_mod_q: p % q,
            inv2_mod_p: (p + BigUint::one()) >> 1u32,
            inv2_mod_q: (q + BigUint::one()) >> 1u32,
            pm1_inv_mod_p2: mod_inverse(&(p - BigUint::one()), &p_squared).expect(invertible),
            qm1_inv_mod_q2: mod_inverse(&(q - BigUint::one()), &q_squared).expect(invertible),
            p2_inv_mod_q2: mod_inverse(&p_squared, &q_squared).expect(invertible),
            p: p.clone(),
            q: q.clone(),
            p_squared,
            q_squared,
            ctx_p3,
            ctx_q3,
        };
        DjSecretKey { paillier: sk.clone(), public, crt: Arc::new(crt) }
    }

    /// The matching public key.
    pub fn public_key(&self) -> &DjPublicKey {
        &self.public
    }

    /// The inner Paillier secret key.
    pub fn paillier(&self) -> &PaillierSecretKey {
        &self.paillier
    }

    /// Decrypt a layered ciphertext to its message in `Z_{N²}`, in CRT form.
    ///
    /// Each prime-power branch raises to the *half-size* exponent `p−1` (not `λ`):
    /// `c^{p−1} mod p³ = (1+N)^{m(p−1) mod p²} mod p³` because the nonce's order
    /// divides `N²(p−1)`.  The exponent `y = m(p−1) mod p²` falls out of the binomial
    /// closed form in two steps (no recursion), `m mod p²` follows by multiplying with
    /// `(p−1)⁻¹ mod p²`, and Garner recombines the halves in `Z_{N²}`.  Bit-for-bit
    /// equal to [`Self::decrypt_via_lambda`].
    pub fn decrypt(&self, c: &LayeredCiphertext) -> Result<BigUint> {
        self.public.validate(c)?;
        let crt = &*self.crt;
        let m_p = Self::decrypt_branch(
            &c.0,
            &crt.p,
            &crt.p_squared,
            &crt.ctx_p3,
            &crt.p_minus_1,
            &crt.q_inv_mod_p2,
            &crt.q_mod_p,
            &crt.inv2_mod_p,
            &crt.pm1_inv_mod_p2,
        )?;
        let m_q = Self::decrypt_branch(
            &c.0,
            &crt.q,
            &crt.q_squared,
            &crt.ctx_q3,
            &crt.q_minus_1,
            &crt.p_inv_mod_q2,
            &crt.p_mod_q,
            &crt.inv2_mod_q,
            &crt.qm1_inv_mod_q2,
        )?;
        // Garner: m = m_p + p² · ((m_q − m_p) · (p²)⁻¹ mod q²)  ∈ Z_{N²}
        let diff = ((&crt.q_squared + &m_q) - (&m_p % &crt.q_squared)) % &crt.q_squared;
        Ok(m_p + &crt.p_squared * ((diff * &crt.p2_inv_mod_q2) % &crt.q_squared))
    }

    /// One CRT branch of [`Self::decrypt`]: recover `m mod p²` from `c mod p³`.
    #[allow(clippy::too_many_arguments)]
    fn decrypt_branch(
        c: &BigUint,
        p: &BigUint,
        p_squared: &BigUint,
        ctx_p3: &MontgomeryContext,
        p_minus_1: &BigUint,
        cofactor_inv: &BigUint, // q⁻¹ mod p²
        cofactor: &BigUint,     // q mod p
        inv2: &BigUint,         // 2⁻¹ mod p
        pm1_inv: &BigUint,      // (p−1)⁻¹ mod p²
    ) -> Result<BigUint> {
        // a = c^{p−1} mod p³ = 1 + y·q·p + (y(y−1)/2 mod p)·q²·p²  with y = m(p−1) mod p².
        let a = ctx_p3.modpow(c, p_minus_1);
        if !(&a % p).is_one() {
            return Err(CryptoError::DecryptionFailed);
        }
        // x = L_p(a) mod p² = y·q + (y(y−1)/2 mod p)·q²·p ;  w = x·q⁻¹ = y + (…)·q·p.
        let x = l_function(&a, p) % p_squared;
        let w = (&x * cofactor_inv) % p_squared;
        // y mod p survives the correction term (it is divisible by p).
        let y1 = &w % p;
        let y1_minus_1 = (&y1 + p - BigUint::one()) % p;
        let half_binom = ((&y1 * y1_minus_1) % p) * inv2 % p;
        // Undo the correction: w − y = (y(y−1)/2)·q·p, and as a multiple of p only its
        // factor modulo p matters: correction = ((y(y−1)/2)·q mod p) · p < p².
        let correction = ((half_binom * cofactor) % p) * p;
        let y = ((&w + p_squared) - correction) % p_squared;
        // m mod p² = y · (p−1)⁻¹ mod p².
        Ok((y * pm1_inv) % p_squared)
    }

    /// The textbook decryption with a single full-width `c^λ mod N³` — kept as the
    /// reference implementation the CRT fast path is differentially tested against.
    pub fn decrypt_via_lambda(&self, c: &LayeredCiphertext) -> Result<BigUint> {
        self.public.validate(c)?;
        let n = self.public.n();
        let n_s = self.public.n_s();
        let n_s_plus_1 = self.public.n_s_plus_1();
        let lambda = self.lambda();

        let a = c.0.modpow(lambda, n_s_plus_1);
        let i = extract_exponent(&a, n, DJ_S)?;
        let lambda_inv = mod_inverse(lambda, n_s)?;
        Ok((i * lambda_inv) % n_s)
    }

    fn lambda(&self) -> &BigUint {
        // λ is private to the Paillier key; re-expose it through a crate-internal
        // accessor to avoid duplicating key material.
        self.paillier.lambda_for_dj()
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
    use num_bigint::BigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The inner ciphertext under the outer layer, as `RecoverEnc` strips it.
    fn strip(dj_sk: &DjSecretKey, c: &LayeredCiphertext) -> Ciphertext {
        Ciphertext::from_biguint(dj_sk.decrypt(c).unwrap())
    }

    /// Both layers decrypted: the inner ciphertext's plaintext.
    fn both_layers(dj_sk: &DjSecretKey, c: &LayeredCiphertext) -> BigUint {
        dj_sk.paillier().decrypt(&strip(dj_sk, c)).unwrap()
    }

    fn setup() -> (DjPublicKey, DjSecretKey, PaillierPublicKey, PaillierSecretKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let (pk, sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let dj_pk = DjPublicKey::from_paillier(&pk);
        let dj_sk = DjSecretKey::from_paillier(&sk);
        (dj_pk, dj_sk, pk, sk, rng)
    }

    #[test]
    fn round_trip_small_values() {
        let (dj_pk, dj_sk, _pk, _sk, mut rng) = setup();
        for m in [0u64, 1, 2, 255, 1_000_000, u64::MAX] {
            let c = dj_pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(dj_sk.decrypt(&c).unwrap(), BigUint::from(m), "m = {m}");
        }
    }

    #[test]
    fn round_trip_values_larger_than_n() {
        let (dj_pk, dj_sk, pk, _sk, mut rng) = setup();
        // Messages in [N, N²) exercise the second extraction round.
        let m = pk.n() + BigUint::from(12345u64);
        let c = dj_pk.encrypt(&m, &mut rng).unwrap();
        assert_eq!(dj_sk.decrypt(&c).unwrap(), m);

        let m2 = dj_pk.n_s() - BigUint::one();
        let c2 = dj_pk.encrypt(&m2, &mut rng).unwrap();
        assert_eq!(dj_sk.decrypt(&c2).unwrap(), m2);
    }

    #[test]
    fn rejects_plaintext_outside_message_space() {
        let (dj_pk, _dj_sk, _pk, _sk, mut rng) = setup();
        let too_big = dj_pk.n_s().clone();
        assert!(matches!(dj_pk.encrypt(&too_big, &mut rng), Err(CryptoError::PlaintextOutOfRange)));
    }

    #[test]
    fn outer_layer_homomorphic_addition() {
        let (dj_pk, dj_sk, _pk, _sk, mut rng) = setup();
        let a = dj_pk.encrypt_u64(1_000, &mut rng).unwrap();
        let b = dj_pk.encrypt_u64(2_345, &mut rng).unwrap();
        let sum = dj_pk.add(&a, &b);
        assert_eq!(dj_sk.decrypt(&sum).unwrap(), BigUint::from(3_345u64));
    }

    #[test]
    fn outer_layer_scalar_multiplication() {
        let (dj_pk, dj_sk, _pk, _sk, mut rng) = setup();
        let a = dj_pk.encrypt_u64(21, &mut rng).unwrap();
        let doubled = dj_pk.mul_plain(&a, &BigUint::from(2u32));
        assert_eq!(dj_sk.decrypt(&doubled).unwrap(), BigUint::from(42u64));
    }

    #[test]
    fn layered_encryption_round_trip() {
        let (dj_pk, dj_sk, pk, sk, mut rng) = setup();
        let inner = pk.encrypt_u64(777, &mut rng).unwrap();
        let layered = dj_pk.encrypt_ciphertext(&inner, &mut rng).unwrap();
        let recovered = strip(&dj_sk, &layered);
        assert_eq!(sk.decrypt_u64(&recovered).unwrap(), 777);
        assert_eq!(both_layers(&dj_sk, &layered), BigUint::from(777u64));
    }

    #[test]
    fn paper_identity_e2_enc_m1_pow_enc_m2() {
        // E2(Enc(m1))^{Enc(m2)}  ~  E2(Enc(m1 + m2))   — the only homomorphic property the
        // construction relies on (§3.3).
        let (dj_pk, dj_sk, pk, _sk, mut rng) = setup();
        let m1 = 1_234u64;
        let m2 = 8_766u64;
        let enc_m1 = pk.encrypt_u64(m1, &mut rng).unwrap();
        let enc_m2 = pk.encrypt_u64(m2, &mut rng).unwrap();

        let layered = dj_pk.encrypt_ciphertext(&enc_m1, &mut rng).unwrap();
        let combined = dj_pk.mul_by_ciphertext(&layered, &enc_m2);

        assert_eq!(both_layers(&dj_sk, &combined), BigUint::from(m1 + m2));
    }

    #[test]
    fn select_between_ciphertexts_with_encrypted_bit() {
        // The SecWorst/SecBest trick (Algorithm 4 line 6):
        //   E2(t)^{Enc(x)} · (E2(1) / E2(t))^{Enc(0)}  =  E2( t·Enc(x) + (1−t)·Enc(0) )
        // decrypting to Enc(x) when t = 1 and Enc(0) when t = 0.
        let (dj_pk, dj_sk, pk, _sk, mut rng) = setup();
        let enc_x = pk.encrypt_u64(555, &mut rng).unwrap();
        let enc_zero = pk.encrypt_u64(0, &mut rng).unwrap();

        for t in [0u64, 1] {
            let e2_t = dj_pk.encrypt_u64(t, &mut rng).unwrap();
            let e2_one = dj_pk.encrypt_u64(1, &mut rng).unwrap();
            let one_minus_t = dj_pk.sub(&e2_one, &e2_t);

            let left = dj_pk.mul_by_ciphertext(&e2_t, &enc_x);
            let right = dj_pk.mul_by_ciphertext(&one_minus_t, &enc_zero);
            let selected = dj_pk.add(&left, &right);

            let value = both_layers(&dj_sk, &selected);
            let expected = if t == 1 { 555u64 } else { 0 };
            assert_eq!(value, BigUint::from(expected), "t = {t}");
        }
    }

    #[test]
    fn fixed_base_nonce_matches_naive_exponentiation() {
        let (dj_pk, dj_sk, pk, _sk, mut rng) = setup();
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
    fn fused_mul_add_matches_unfused_path() {
        // The oblivious-select shape: E2(t)^{Enc(x)} · E2(1−t)^{Enc(y)}.  The fused
        // Strauss–Shamir path must be bit-for-bit equal to the two-modpow reference.
        let (dj_pk, _dj_sk, pk, _sk, mut rng) = setup();
        let enc_x = pk.encrypt_u64(555, &mut rng).unwrap();
        let enc_y = pk.encrypt_u64(77, &mut rng).unwrap();
        for t in [0u64, 1] {
            let e2_t = dj_pk.encrypt_u64(t, &mut rng).unwrap();
            let e2_one = dj_pk.encrypt_u64(1, &mut rng).unwrap();
            let one_minus_t = dj_pk.sub(&e2_one, &e2_t);
            let unfused = dj_pk.add(
                &dj_pk.mul_by_ciphertext(&e2_t, &enc_x),
                &dj_pk.mul_by_ciphertext(&one_minus_t, &enc_y),
            );
            let fused = dj_pk.mul_add_ciphertexts(&e2_t, &enc_x, &one_minus_t, &enc_y);
            assert_eq!(fused, unfused, "t = {t}");
        }
    }

    #[test]
    fn select_blinded_has_the_outer_plaintext_of_select_then_blind() {
        // Reference: the paper's sequence — invert, double exponentiation, then the
        // RecoverEnc blinding as a second exponentiation of the result.
        let (dj_pk, dj_sk, pk, sk, mut rng) = setup();
        let enc_x = pk.encrypt_u64(555, &mut rng).unwrap();
        let enc_r = pk.encrypt_u64(1_000, &mut rng).unwrap();
        // Both job kinds: a real false branch, and the fresh Enc(0) of a zeroing job.
        for y in [77u64, 0] {
            let enc_y = pk.encrypt_u64(y, &mut rng).unwrap();
            for t in [0u64, 1] {
                let e2_t = dj_pk.encrypt_u64(t, &mut rng).unwrap();
                let e2_one = dj_pk.encrypt_u64(1, &mut rng).unwrap();
                let selected =
                    dj_pk.mul_add_ciphertexts(&e2_t, &enc_x, &dj_pk.sub(&e2_one, &e2_t), &enc_y);
                let reference = dj_pk.mul_by_ciphertext(&selected, &enc_r);
                let fused = dj_pk.select_blinded(&[(&e2_t, &enc_x)], &e2_one, &enc_y, &enc_r);
                // Same inner ciphertext, byte for byte — S2's view of the round.
                let inner = strip(&dj_sk, &fused);
                assert_eq!(inner, strip(&dj_sk, &reference), "t = {t}");
                let expected = if t == 1 { 555 } else { y } + 1_000;
                assert_eq!(sk.decrypt_u64(&inner).unwrap(), expected, "t = {t}, y = {y}");
            }
        }
    }

    #[test]
    fn one_of_many_selection_agrees_with_the_sum_of_single_selections() {
        let (dj_pk, dj_sk, pk, sk, mut rng) = setup();
        let r = 1_000u64;
        let enc_r = pk.encrypt_u64(r, &mut rng).unwrap();
        let e2_one = dj_pk.encrypt_u64(1, &mut rng).unwrap();
        // A real `otherwise`, and the fresh Enc(0) a job without one is given.
        for y in [77u64, 0] {
            let enc_y = pk.encrypt_u64(y, &mut rng).unwrap();
            for n in [1usize, 2, 5, 14] {
                let xs: Vec<u64> = (0..n as u64).map(|i| 100 + 3 * i).collect();
                let enc_xs: Vec<Ciphertext> =
                    xs.iter().map(|&x| pk.encrypt_u64(x, &mut rng).unwrap()).collect();
                // Every hot position, and none.
                for hot in (0..n).map(Some).chain([None]) {
                    let bits: Vec<LayeredCiphertext> = (0..n)
                        .map(|i| dj_pk.encrypt_u64(u64::from(Some(i) == hot), &mut rng).unwrap())
                        .collect();
                    let terms: Vec<_> = bits.iter().zip(&enc_xs).collect();
                    let fused = dj_pk.select_blinded(&terms, &e2_one, &enc_y, &enc_r);

                    // S2's view: exactly the hot ciphertext (or `otherwise`) times Enc(r).
                    let chosen = hot.map_or(&enc_y, |i| &enc_xs[i]);
                    assert_eq!(strip(&dj_sk, &fused), pk.add(chosen, &enc_r));

                    // n single selections, each decrypted and unblinded, summed in the
                    // clear; an unset row adds `otherwise` once.
                    let singles: u64 = terms
                        .iter()
                        .map(|&term| {
                            let zero = pk.encrypt_u64(0, &mut rng).unwrap();
                            let single = dj_pk.select_blinded(&[term], &e2_one, &zero, &enc_r);
                            let inner = strip(&dj_sk, &single);
                            sk.decrypt_u64(&inner).unwrap() - r
                        })
                        .sum();
                    let expected = singles + if hot.is_none() { y } else { 0 };
                    let plain = both_layers(&dj_sk, &fused);
                    assert_eq!(plain, BigUint::from(expected + r), "n = {n}, hot = {hot:?}");
                }
            }
        }
    }

    #[test]
    fn single_term_selection_is_the_double_exponentiation_byte_for_byte() {
        // The two-base body `select_blinded` had before it took a term list.
        let (dj_pk, _dj_sk, pk, _sk, mut rng) = setup();
        let n2 = dj_pk.n_s();
        let [x, y, enc_r] = [555u64, 77, 1_000].map(|v| pk.encrypt_u64(v, &mut rng).unwrap());
        for t in [0u64, 1] {
            let e2_t = dj_pk.encrypt_u64(t, &mut rng).unwrap();
            let e2_one = dj_pk.encrypt_u64(1, &mut rng).unwrap();
            let xr = (x.as_biguint() * enc_r.as_biguint()) % n2;
            let yr = (y.as_biguint() * enc_r.as_biguint()) % n2;
            let diff_r = ((xr + n2) - &yr) % n2;
            let two_base = dj_pk.mul_add_ciphertexts(
                &e2_t,
                &Ciphertext::from_biguint(diff_r),
                &e2_one,
                &Ciphertext::from_biguint(yr),
            );
            assert_eq!(dj_pk.select_blinded(&[(&e2_t, &x)], &e2_one, &y, &enc_r), two_base);
        }
    }

    #[test]
    fn rerandomize_preserves_message() {
        let (dj_pk, dj_sk, _pk, _sk, mut rng) = setup();
        let a = dj_pk.encrypt_u64(31337, &mut rng).unwrap();
        let b = dj_pk.rerandomize(&a, &mut rng);
        assert_ne!(a, b);
        assert_eq!(dj_sk.decrypt(&b).unwrap(), BigUint::from(31337u64));
    }

    #[test]
    fn signed_full_decryption() {
        let (dj_pk, dj_sk, pk, _sk, mut rng) = setup();
        let inner = pk.encrypt_i64(-42, &mut rng).unwrap();
        let layered = dj_pk.encrypt_ciphertext(&inner, &mut rng).unwrap();
        assert_eq!(
            dj_sk.paillier().decrypt_signed(&strip(&dj_sk, &layered)).unwrap(),
            BigInt::from(-42)
        );
    }

    #[test]
    fn validate_rejects_garbage() {
        let (dj_pk, _dj_sk, _pk, _sk, _rng) = setup();
        assert!(dj_pk.validate(&LayeredCiphertext(BigUint::zero())).is_err());
        assert!(dj_pk.validate(&LayeredCiphertext(dj_pk.n_s_plus_1().clone())).is_err());
    }
}
