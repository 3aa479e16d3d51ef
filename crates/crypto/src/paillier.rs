//! The Paillier cryptosystem (Paillier, EUROCRYPT'99) — the additively homomorphic
//! encryption scheme every SecTopK score is encrypted under (§3.3 of the paper).
//!
//! Properties used by the protocols:
//!
//! * **Addition**:              `Enc(x) · Enc(y) = Enc(x + y)`
//! * **Scalar multiplication**: `Enc(x)^a       = Enc(a · x)`
//! * Semantic security (ciphertexts are re-randomizable), which Lemma 5.1 relies on.
//!
//! The implementation uses the standard simplification `g = N + 1`, so encryption is
//! `Enc(m) = (1 + mN) · r^N mod N²` and decryption is `L(c^λ mod N²) · μ mod N` with
//! `λ = lcm(p−1, q−1)` and `μ = λ⁻¹ mod N`.  Every nonce `r^N` is taken as `H^a` for the
//! key's fixed `H = h^N` and a fresh exponent `a < N` (so `r = h^a`; see
//! [`NONCE_BASE_H`]).

use num_bigint::{BigUint, FixedBaseTable, MontgomeryContext};
use num_integer::Integer;
use num_traits::{One, Zero};
use rand::{CryptoRng, RngCore};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::bigint::{from_i64, l_function, mod_inverse, random_below};
use crate::error::{CryptoError, Result};
use crate::par::{cores, par_map};
use crate::prime::generate_safe_factor_pair;

/// Minimum supported modulus size.  Far below any secure size — it exists so that unit
/// tests and the worked Fig. 3 example can run instantly — but large enough that the
/// score arithmetic of the protocols never wraps.
pub const MIN_MODULUS_BITS: usize = 128;

/// Default modulus size used by the library constructors when the caller does not choose
/// one (matches the "256-bit N" configuration the paper quotes for the EHL+ false-positive
/// analysis; benches print the size they use).
pub const DEFAULT_MODULUS_BITS: usize = 256;

/// Maximum supported modulus size.  At 2048 bits the widest modulus the keys reduce by,
/// the Damgård–Jurik `N³`, is 96 limbs: the top of the vendored bignum's Montgomery
/// kernel ladder.  Key generation refuses anything wider, and so does every key
/// deserializer — before it parses the value, because the bytes can come from a peer.
pub const MAX_MODULUS_BITS: usize = 2048;

/// Decimal digits of the largest value below `2^MAX_MODULUS_BITS`.
const MAX_DECIMAL_DIGITS: usize = 617;

/// The Montgomery context for `modulus`, a power of `N` or of one of its odd factors.
/// It exists for every `N` of at most [`MAX_MODULUS_BITS`] bits; the error is the typed
/// form of "too wide for the kernels".
pub(crate) fn context_for(modulus: &BigUint, n: &BigUint) -> Result<MontgomeryContext> {
    MontgomeryContext::new(modulus).ok_or(CryptoError::KeySizeTooLarge {
        requested: n.bits() as usize,
        maximum: MAX_MODULUS_BITS,
    })
}

/// Read the key quantity `field` of a serialized key: `N` or a value below it, so at
/// most [`MAX_MODULUS_BITS`] bits.  A longer decimal string is refused before it is
/// parsed, so no work is proportional to an unvalidated length.
fn bounded_field(v: &serde::Value, field: &str) -> std::result::Result<BigUint, serde::Error> {
    let value = v.get(field).ok_or_else(|| serde::Error::missing_field(field))?;
    let too_large =
        || serde::Error::custom(format!("`{field}` is wider than {MAX_MODULUS_BITS} bits"));
    if matches!(value, serde::Value::Str(digits) if digits.len() > MAX_DECIMAL_DIGITS) {
        return Err(too_large());
    }
    let parsed = BigUint::from_value(value)?;
    if parsed.bits() > MAX_MODULUS_BITS as u64 {
        return Err(too_large());
    }
    Ok(parsed)
}

/// Public parameters of a Paillier key pair: the modulus `N`, `N²`, and `g = N + 1`.
///
/// Cheap to clone (the big integers live behind an [`Arc`]) because every ciphertext
/// operation needs access to `N²`.  The shared [`Arc`] also owns the precomputed
/// [`MontgomeryContext`] for `N²`, so every `modpow`-shaped operation (encrypt,
/// re-randomize, scalar multiplication) reuses the same CIOS parameters instead of
/// re-deriving them per call; only serialization and equality look at the raw moduli.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierPublicKey {
    inner: Arc<PublicInner>,
}

/// The fixed generator `h` of the precomputed-nonce subgroup: nonces are sampled as
/// `H^a` for `H = h^N mod N²` and a random exponent `a < N` (the precomputation
/// variant of Damgård–Jurik '01 §4.2).  Any small constant coprime to `N` works — `N`
/// is a product of large odd primes, so 2 always qualifies — and a *fixed* `h` is the
/// whole point: it makes `H` a per-key constant whose power table can be built once.
pub const NONCE_BASE_H: u64 = 2;

#[derive(Debug)]
struct PublicInner {
    n: BigUint,
    n_squared: BigUint,
    /// Montgomery parameters for the ciphertext-space modulus `N²`.
    ctx_n2: MontgomeryContext,
    /// `H = h^N mod N²`, the fixed base of the precomputed-nonce subgroup.
    nonce_base: BigUint,
    /// Fixed-base comb of `H` covering exponents up to `|N|` bits: at a 256-bit `N`,
    /// `H^a` costs 7 squarings and at most 32 Montgomery products, against about 310
    /// for a fresh sliding-window `modpow`.
    nonce_table: FixedBaseTable,
    /// Bit length requested at key generation time.
    modulus_bits: usize,
}

impl PublicInner {
    /// Derive every cached quantity from the (odd) modulus.
    fn build(n: BigUint, modulus_bits: usize) -> Result<Self> {
        let n_squared = &n * &n;
        let ctx_n2 = context_for(&n_squared, &n)?;
        let nonce_base = ctx_n2.modpow(&BigUint::from(NONCE_BASE_H), &n);
        let nonce_table = ctx_n2.precompute_fixed_base(&nonce_base, n.bits());
        Ok(PublicInner { n, n_squared, ctx_n2, nonce_base, nonce_table, modulus_bits })
    }
}

impl PartialEq for PublicInner {
    fn eq(&self, other: &Self) -> bool {
        // Everything else is derived from (n, modulus_bits).
        self.n == other.n && self.modulus_bits == other.modulus_bits
    }
}

impl Eq for PublicInner {}

// The Montgomery context is a pure function of `N`; only the modulus and the requested
// bit length go over the wire, and deserialization rebuilds the caches.
impl Serialize for PaillierPublicKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("n".to_string(), self.inner.n.to_value()),
            ("modulus_bits".to_string(), serde::Value::U64(self.inner.modulus_bits as u64)),
        ])
    }
}

impl Deserialize for PaillierPublicKey {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let n = bounded_field(v, "n")?;
        let modulus_bits = usize::from_value(
            v.get("modulus_bits").ok_or_else(|| serde::Error::missing_field("modulus_bits"))?,
        )?;
        if n <= BigUint::one() || n.is_even() {
            return Err(serde::Error::custom("Paillier modulus must be odd and greater than 1"));
        }
        let inner = PublicInner::build(n, modulus_bits).map_err(serde::Error::custom)?;
        Ok(PaillierPublicKey { inner: Arc::new(inner) })
    }
}

/// The Paillier secret key: `λ = lcm(p−1, q−1)`, `μ = λ⁻¹ mod N`, and the CRT
/// precomputation over the factors `p`, `q`.
///
/// Decryption runs in CRT form — two half-width exponentiations `c^{p−1} mod p²` and
/// `c^{q−1} mod q²` recombined with Garner's formula — which is ~4× less limb work
/// than the textbook `c^λ mod N²` path (half-size moduli *and* half-size exponents).
/// The textbook path survives as [`Self::decrypt_via_lambda`], the reference the CRT
/// path is differentially tested against.  The CRT parameters live behind their own
/// [`Arc`] so cloning the key (the S2 engine clones per request batch) stays cheap.
#[derive(Clone)]
pub struct PaillierSecretKey {
    lambda: BigUint,
    mu: BigUint,
    crt: Arc<PaillierCrt>,
    public: PaillierPublicKey,
}

impl std::fmt::Debug for PaillierSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; the public half identifies the key for debugging.
        f.debug_struct("PaillierSecretKey").field("public", &self.public).finish_non_exhaustive()
    }
}

/// CRT decryption parameters derived from the key's prime factorisation.  No `Debug`:
/// the fields are the factors themselves and must never be formatted.
struct PaillierCrt {
    p: BigUint,
    q: BigUint,
    /// Montgomery parameters for the half-width ciphertext-space moduli `p²` and `q²`.
    ctx_p2: MontgomeryContext,
    ctx_q2: MontgomeryContext,
    /// CRT exponents `p − 1` and `q − 1`.
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// `hp = L_p((1+N)^{p−1} mod p²)⁻¹ mod p = ((p−1)·q)⁻¹ mod p`, and the `q` twin.
    hp: BigUint,
    hq: BigUint,
    /// Garner coefficient `p⁻¹ mod q`.
    p_inv_mod_q: BigUint,
}

impl PaillierCrt {
    fn build(p: BigUint, q: BigUint, n: &BigUint) -> Result<Self> {
        // A mismatched (p, q, N) triple — e.g. a corrupted serialized key — would make
        // every decryption silently wrong, and a degenerate factor would panic the
        // Montgomery setup below; reject both outright.
        if p <= BigUint::one() || q <= BigUint::one() || &(&p * &q) != n {
            return Err(CryptoError::DecryptionFailed);
        }
        let ctx_p2 = context_for(&(&p * &p), n)?;
        let ctx_q2 = context_for(&(&q * &q), n)?;
        let p_minus_1 = &p - BigUint::one();
        let q_minus_1 = &q - BigUint::one();
        // (1+N)^{p−1} mod p² = 1 + (p−1)·N mod p² (binomial; N² ≡ 0 mod p²), so
        // L_p of it is (p−1)·N/p = (p−1)·q mod p.
        let hp = mod_inverse(&((&p_minus_1 * &q) % &p), &p)?;
        let hq = mod_inverse(&((&q_minus_1 * &p) % &q), &q)?;
        let p_inv_mod_q = mod_inverse(&p, &q)?;
        Ok(PaillierCrt { p, q, ctx_p2, ctx_q2, p_minus_1, q_minus_1, hp, hq, p_inv_mod_q })
    }
}

// The secret key serializes its defining quantities (λ, μ, p, q) plus the public key;
// the CRT caches are rebuilt on deserialization.
impl Serialize for PaillierSecretKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("lambda".to_string(), self.lambda.to_value()),
            ("mu".to_string(), self.mu.to_value()),
            ("p".to_string(), self.crt.p.to_value()),
            ("q".to_string(), self.crt.q.to_value()),
            ("public".to_string(), self.public.to_value()),
        ])
    }
}

impl Deserialize for PaillierSecretKey {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let lambda = bounded_field(v, "lambda")?;
        let mu = bounded_field(v, "mu")?;
        let p = bounded_field(v, "p")?;
        let q = bounded_field(v, "q")?;
        let public = PaillierPublicKey::from_value(
            v.get("public").ok_or_else(|| serde::Error::missing_field("public"))?,
        )?;
        let crt = PaillierCrt::build(p, q, public.n())
            .map_err(|e| serde::Error::custom(format!("invalid Paillier factors: {e:?}")))?;
        Ok(PaillierSecretKey { lambda, mu, crt: Arc::new(crt), public })
    }
}

/// A Paillier ciphertext, an element of `Z_{N²}^*`.
///
/// Ciphertexts deliberately do **not** implement `PartialEq` on the underlying plaintext
/// — two encryptions of the same message are different group elements; the paper's `∼`
/// relation (equal plaintexts) is only decidable with the secret key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ciphertext(pub(crate) BigUint);

impl Ciphertext {
    /// Raw group element backing this ciphertext.
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Construct a ciphertext from a raw group element (used by the serialization layer
    /// and the Damgård–Jurik layered encryption).
    pub fn from_biguint(raw: BigUint) -> Self {
        Ciphertext(raw)
    }

    /// Serialized length in bytes; used by the bandwidth accounting of the two-cloud
    /// channel (§11.2.5).
    pub fn byte_len(&self) -> usize {
        (self.0.bits() as usize).div_ceil(8)
    }

    /// The canonical wire form: the group element as a big-endian byte string.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Parse the canonical big-endian wire form produced by [`Self::to_bytes_be`].
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        Ciphertext(BigUint::from_bytes_be(bytes))
    }
}

// Ciphertexts cross the inter-cloud wire on every protocol round, so they serialize as
// raw big-endian byte strings (not decimal text): the measured message sizes then match
// the `byte_len` accounting the paper's Table 3 is computed from.
impl Serialize for Ciphertext {
    fn to_value(&self) -> serde::Value {
        serde::Value::Bytes(self.to_bytes_be())
    }
}

impl Deserialize for Ciphertext {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        crate::encoding::bytes_from_value(v, "Ciphertext").map(|b| Ciphertext::from_bytes_be(&b))
    }
}

impl PaillierPublicKey {
    /// The modulus `N`.
    pub fn n(&self) -> &BigUint {
        &self.inner.n
    }

    /// `N²`, the ciphertext-space modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.inner.n_squared
    }

    /// Bit length of `N` requested at key generation.
    pub fn modulus_bits(&self) -> usize {
        self.inner.modulus_bits
    }

    /// The sentinel value `Z = N − 1 ≡ −1 (mod N)` that SecDedup assigns to duplicated
    /// objects' worst scores (§8.2.3); in the signed interpretation it sorts below every
    /// genuine score.
    pub fn sentinel_z(&self) -> BigUint {
        self.n() - BigUint::one()
    }

    /// Encrypt `m ∈ Z_N` with fresh randomness: the nonce is `H^a` for an exponent
    /// `a < N` drawn from `rng` ([`Self::nonce_from_exponent`]), the nonce every pool
    /// hands out.
    pub fn encrypt<R: RngCore + CryptoRng>(&self, m: &BigUint, rng: &mut R) -> Result<Ciphertext> {
        if m >= self.n() {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        let a = random_below(rng, self.n());
        Ok(self.encrypt_with_nonce(m, &self.nonce_from_exponent(&a)))
    }

    /// [`Self::encrypt`] of every plaintext, in order: byte for byte the ciphertexts of
    /// a loop of `encrypt` calls, leaving `rng` where that loop leaves it.  Every
    /// plaintext is checked before anything is drawn; the exponents are drawn serially,
    /// and the nonces `H^a` are computed on the machine's [`cores`], so no byte depends
    /// on the worker count.
    pub fn encrypt_many<R: RngCore + CryptoRng>(
        &self,
        plaintexts: Vec<BigUint>,
        rng: &mut R,
    ) -> Result<Vec<Ciphertext>> {
        if plaintexts.iter().any(|m| m >= self.n()) {
            return Err(CryptoError::PlaintextOutOfRange);
        }
        let jobs: Vec<(BigUint, BigUint)> =
            plaintexts.into_iter().map(|m| (m, random_below(rng, self.n()))).collect();
        let pk = self.clone();
        Ok(par_map(cores(), jobs, move |(m, a)| {
            pk.encrypt_with_nonce(m, &pk.nonce_from_exponent(a))
        }))
    }

    /// Encrypt a small unsigned integer (convenience for scores).
    pub fn encrypt_u64<R: RngCore + CryptoRng>(&self, m: u64, rng: &mut R) -> Result<Ciphertext> {
        self.encrypt(&BigUint::from(m), rng)
    }

    /// Encrypt a signed integer using the symmetric representation ([`from_i64`]).
    pub fn encrypt_i64<R: RngCore + CryptoRng>(&self, m: i64, rng: &mut R) -> Result<Ciphertext> {
        self.encrypt(&from_i64(m, self.n()), rng)
    }

    /// `H = h^N mod N²` for the fixed constant `h =` [`NONCE_BASE_H`] — the base of
    /// the amortized nonce subgroup, and the differential reference for
    /// [`Self::nonce_from_exponent`] (`nonce_from_exponent(a) == H.modpow(a, N²)`).
    pub fn nonce_base(&self) -> &BigUint {
        &self.inner.nonce_base
    }

    /// The encryption nonce `H^a mod N²` for a random exponent `a < N`, evaluated over
    /// the key's cached fixed-base comb ([`MontgomeryContext::fixed_base_modpow`]):
    /// `|N|/32 − 1` squarings and at most `|N|/8` Montgomery products.  This is the
    /// Damgård–Jurik '01 §4.2 nonce path, and the only one: [`Self::encrypt`] and
    /// [`crate::pool::RandomnessPool`] both take it.
    pub fn nonce_from_exponent(&self, a: &BigUint) -> BigUint {
        self.inner.ctx_n2.fixed_base_modpow(&self.inner.nonce_table, a)
    }

    /// Encryption given a precomputed nonce ([`Self::nonce_from_exponent`]): one
    /// multiplication, no exponentiation.
    pub fn encrypt_with_nonce(&self, m: &BigUint, r_n: &BigUint) -> Ciphertext {
        // g^m = (1 + N)^m = 1 + mN (mod N²); below N² for m < N, reduced otherwise.
        let g_m = BigUint::one() + m * self.n();
        Ciphertext(self.inner.ctx_n2.mul_mod(&g_m, r_n))
    }

    /// The "trivial" encryption of zero with randomness 1.  Useful as the identity for
    /// homomorphic accumulation (`Enc(Σ xᵢ) = Π Enc(xᵢ)`).
    pub fn one_ciphertext(&self) -> Ciphertext {
        Ciphertext(BigUint::one())
    }

    /// Homomorphic addition: `Enc(a) ⊞ Enc(b) = Enc(a + b)`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        Ciphertext(self.inner.ctx_n2.mul_mod(&a.0, &b.0))
    }

    /// Homomorphic addition of a plaintext constant: `Enc(a) ⊞ k = Enc(a + k)`.
    pub fn add_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        // a · (1 + N)^k: the encryption of k whose nonce is a.
        self.encrypt_with_nonce(k, &a.0)
    }

    /// Homomorphic subtraction: `Enc(a) ⊟ Enc(b) = Enc(a − b)`.
    ///
    /// Every call pays one binary extended-Euclid inversion modulo `N²`; loops over
    /// many differences use [`Self::negate_many`] and [`Self::add`] instead.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let b_inv = self.negate(b);
        self.add(a, &b_inv)
    }

    /// Homomorphic negation: `Enc(a) ↦ Enc(−a)` (inverse in the ciphertext group).
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let inv = mod_inverse(&a.0, self.n_squared())
            .expect("ciphertext is invertible modulo N² for honestly generated keys");
        Ciphertext(inv)
    }

    /// [`Self::negate`] of every ciphertext for **one** modular inversion in total
    /// ([`MontgomeryContext::inverse_many`] under the cached `N²` context); each output
    /// is the group element `negate` returns.
    pub fn negate_many(&self, cs: &[&Ciphertext]) -> Vec<Ciphertext> {
        let raw: Vec<&BigUint> = cs.iter().map(|c| &c.0).collect();
        self.inner
            .ctx_n2
            .inverse_many(&raw)
            .expect("ciphertexts are invertible modulo N² for honestly generated keys")
            .into_iter()
            .map(Ciphertext)
            .collect()
    }

    /// Linear combination `Enc(Σ kᵢ · aᵢ) = Π aᵢ^{kᵢ}` as one Straus
    /// multi-exponentiation ([`MontgomeryContext::multi_exp`]): one squaring chain for
    /// all terms.  The group element equals the [`Self::add`]-fold of the separate
    /// [`Self::mul_plain`]s.
    pub fn weighted_sum(&self, terms: &[(&Ciphertext, &BigUint)]) -> Ciphertext {
        let raw: Vec<(&BigUint, &BigUint)> = terms.iter().map(|&(a, k)| (&a.0, k)).collect();
        Ciphertext(self.inner.ctx_n2.multi_exp(&raw))
    }

    /// Scalar multiplication: `Enc(a)^k = Enc(k · a)` (sliding-window Montgomery
    /// exponentiation under the cached `N²` context).
    pub fn mul_plain(&self, a: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(self.inner.ctx_n2.modpow(&a.0, k))
    }

    /// Re-randomize a ciphertext given a precomputed nonce ([`Self::nonce_from_exponent`]):
    /// one multiplication by an encryption of zero.  The output decrypts to the same
    /// plaintext but is computationally unlinkable to the input, which is what the
    /// sub-protocols rely on when S2 returns items to S1; a caller takes its nonces from
    /// a [`crate::pool::RandomnessPool`].
    pub fn rerandomize_with_nonce(&self, a: &Ciphertext, r_n: &BigUint) -> Ciphertext {
        Ciphertext(self.inner.ctx_n2.mul_mod(&a.0, r_n))
    }

    /// Check that a ciphertext is an element of `Z_{N²}` (cheap sanity check used when
    /// deserializing messages received from the other cloud).
    pub fn validate(&self, a: &Ciphertext) -> Result<()> {
        if a.0.is_zero() || a.0 >= *self.n_squared() {
            Err(CryptoError::CiphertextOutOfRange)
        } else {
            Ok(())
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the audited home of decryption: the derived reveals (u64, is_zero) are \
              defined here on top of `decrypt`; every call outside this block is checked"
)]
impl PaillierSecretKey {
    /// The matching public key.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypt a ciphertext to an element of `Z_N`, in CRT form: half-width
    /// exponentiations modulo `p²` and `q²` with half-size exponents `p−1` / `q−1`,
    /// recombined with Garner's formula.  Bit-for-bit equal to
    /// [`Self::decrypt_via_lambda`].
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint> {
        self.public.validate(c)?;
        let crt = &*self.crt;
        // m mod p = L_p(c^{p−1} mod p²) · hp mod p.  A ciphertext sharing a factor
        // with N (never produced honestly) would make L_p's exact division invalid,
        // so reject anything whose Fermat residue isn't 1.
        let cp = crt.ctx_p2.modpow(&c.0, &crt.p_minus_1);
        if !(&cp % &crt.p).is_one() {
            return Err(CryptoError::DecryptionFailed);
        }
        let mp = (l_function(&cp, &crt.p) * &crt.hp) % &crt.p;
        // m mod q, likewise
        let cq = crt.ctx_q2.modpow(&c.0, &crt.q_minus_1);
        if !(&cq % &crt.q).is_one() {
            return Err(CryptoError::DecryptionFailed);
        }
        let mq = (l_function(&cq, &crt.q) * &crt.hq) % &crt.q;
        // Garner: m = mp + p · ((mq − mp) · p⁻¹ mod q)
        let diff = ((&crt.q + &mq) - (&mp % &crt.q)) % &crt.q;
        Ok(mp + &crt.p * ((diff * &crt.p_inv_mod_q) % &crt.q))
    }

    /// The textbook decryption `L(c^λ mod N²) · μ mod N` — kept as the reference
    /// implementation the CRT fast path is differentially tested against.
    pub fn decrypt_via_lambda(&self, c: &Ciphertext) -> Result<BigUint> {
        self.public.validate(c)?;
        let n = self.public.n();
        let u = self.public.inner.ctx_n2.modpow(&c.0, &self.lambda);
        let l = l_function(&u, n);
        Ok((l * &self.mu) % n)
    }

    /// Decrypt a ciphertext known to hold a small value, as a `u64`.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> Result<u64> {
        let m = self.decrypt(c)?;
        let digits = m.to_u64_digits();
        match digits.len() {
            0 => Ok(0),
            1 => Ok(digits[0]),
            _ => Err(CryptoError::DecryptionFailed),
        }
    }

    /// Returns `true` iff the ciphertext's plaintext is 0 mod `p` — the zero test S2
    /// applies to the blinded EHL differences it receives from S1 in SecWorst / SecBest /
    /// SecDedup.
    ///
    /// Half a decryption: with `c = (1+N)^m · r^N`, `c^{p−1} mod p² = 1 + m(p−1)N mod p²`
    /// (the nonce factor has order dividing `p(p−1)` there, and `p(p−1) | N(p−1)`), which
    /// is 1 exactly when `p | m`.  One half-width exponentiation, no `L`, no Garner.  A
    /// blinded `⊖` is 0 or a uniform nonzero multiple mod `N`, which passes with
    /// probability ≈ `1/p`: the `n²/p` term of `sectopk_ehl::fpr`.  The `q` half is never
    /// computed, on a hit neither — a confirmation only on hits would make S2's reply time
    /// count the equal cells.  A ciphertext sharing a factor with `N` is a
    /// `DecryptionFailed`, as in [`Self::decrypt`]: `c mod q` is checked up front, for
    /// every input alike.
    pub fn is_zero(&self, c: &Ciphertext) -> Result<bool> {
        self.public.validate(c)?;
        let crt = &*self.crt;
        if (&c.0 % &crt.q).is_zero() {
            return Err(CryptoError::DecryptionFailed);
        }
        let cp = crt.ctx_p2.modpow(&c.0, &crt.p_minus_1);
        if cp.is_one() {
            Ok(true)
        } else if (&cp % &crt.p).is_one() {
            Ok(false)
        } else {
            Err(CryptoError::DecryptionFailed)
        }
    }

    /// Crate-internal: expose λ so the Damgård–Jurik layer can decrypt without
    /// regenerating key material.
    pub(crate) fn lambda_for_dj(&self) -> &BigUint {
        &self.lambda
    }
}

/// Generate a Paillier key pair with a modulus of (about) `modulus_bits` bits.
pub fn generate_keypair<R: RngCore + CryptoRng>(
    modulus_bits: usize,
    rng: &mut R,
) -> Result<(PaillierPublicKey, PaillierSecretKey)> {
    if modulus_bits < MIN_MODULUS_BITS {
        return Err(CryptoError::KeySizeTooSmall {
            requested: modulus_bits,
            minimum: MIN_MODULUS_BITS,
        });
    }
    if modulus_bits > MAX_MODULUS_BITS {
        return Err(CryptoError::KeySizeTooLarge {
            requested: modulus_bits,
            maximum: MAX_MODULUS_BITS,
        });
    }
    let prime_bits = (modulus_bits / 2) as u64;
    let (p, q) = generate_safe_factor_pair(prime_bits, rng)?;
    let n = &p * &q;
    let p_minus = &p - BigUint::one();
    let q_minus = &q - BigUint::one();
    let lambda = p_minus.lcm(&q_minus);
    let mu = mod_inverse(&lambda, &n)?;
    let crt = PaillierCrt::build(p, q, &n)?;

    let public = PaillierPublicKey { inner: Arc::new(PublicInner::build(n, modulus_bits)?) };
    let secret = PaillierSecretKey { lambda, mu, crt: Arc::new(crt), public: public.clone() };
    Ok((public, secret))
}

#[cfg(test)]
impl PaillierSecretKey {
    /// The prime factors, for tests that build moduli or ciphertexts from them.
    pub(crate) fn factors(&self) -> (&BigUint, &BigUint) {
        (&self.crt.p, &self.crt.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::{random_invertible, symmetric_i64};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PaillierPublicKey, PaillierSecretKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let (pk, sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        (pk, sk, rng)
    }

    #[test]
    fn round_trip_small_values() {
        let (pk, sk, mut rng) = setup();
        for m in [0u64, 1, 2, 17, 1000, u32::MAX as u64, u64::MAX] {
            let c = pk.encrypt_u64(m, &mut rng).unwrap();
            assert_eq!(sk.decrypt_u64(&c).unwrap(), m, "m = {m}");
        }
    }

    #[test]
    fn round_trip_random_group_elements() {
        let (pk, sk, mut rng) = setup();
        for _ in 0..20 {
            let m = crate::bigint::random_below(&mut rng, pk.n());
            let c = pk.encrypt(&m, &mut rng).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), m);
        }
    }

    #[test]
    fn rejects_out_of_range_plaintext() {
        let (pk, _sk, mut rng) = setup();
        let too_big = pk.n().clone();
        assert_eq!(pk.encrypt(&too_big, &mut rng), Err(CryptoError::PlaintextOutOfRange));
    }

    #[test]
    fn encrypt_many_is_a_loop_of_encrypt() {
        let (pk, _sk, mut rng) = setup();
        for count in [0usize, 1, 2, 37] {
            let plaintexts: Vec<BigUint> =
                (0..count).map(|_| crate::bigint::random_below(&mut rng, pk.n())).collect();
            let mut looped = StdRng::seed_from_u64(count as u64);
            let mut batched = looped.clone();
            let expected: Vec<Ciphertext> =
                plaintexts.iter().map(|m| pk.encrypt(m, &mut looped).unwrap()).collect();
            assert_eq!(pk.encrypt_many(plaintexts, &mut batched).unwrap(), expected, "{count}");
            assert_eq!(batched.next_u64(), looped.next_u64(), "{count}: the RNG moved apart");
        }
        // An out-of-range plaintext anywhere refuses the batch before anything is drawn.
        let mut untouched = rng.clone();
        let refused = pk.encrypt_many(vec![BigUint::one(), pk.n().clone()], &mut rng);
        assert_eq!(refused, Err(CryptoError::PlaintextOutOfRange));
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn rejects_too_small_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(generate_keypair(64, &mut rng), Err(CryptoError::KeySizeTooSmall { .. })));
        assert_eq!(
            generate_keypair(MAX_MODULUS_BITS + 1, &mut rng).unwrap_err(),
            CryptoError::KeySizeTooLarge { requested: 2049, maximum: 2048 }
        );
    }

    #[test]
    fn homomorphic_addition() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(1234, &mut rng).unwrap();
        let b = pk.encrypt_u64(8766, &mut rng).unwrap();
        let sum = pk.add(&a, &b);
        assert_eq!(sk.decrypt_u64(&sum).unwrap(), 10_000);
    }

    #[test]
    fn homomorphic_addition_wraps_modulo_n() {
        let (pk, sk, mut rng) = setup();
        let almost_n = pk.n() - BigUint::from(3u32);
        let a = pk.encrypt(&almost_n, &mut rng).unwrap();
        let b = pk.encrypt_u64(5, &mut rng).unwrap();
        let sum = pk.add(&a, &b);
        assert_eq!(sk.decrypt_u64(&sum).unwrap(), 2);
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(111, &mut rng).unwrap();
        let scaled = pk.mul_plain(&a, &BigUint::from(9u32));
        assert_eq!(sk.decrypt_u64(&scaled).unwrap(), 999);
    }

    #[test]
    fn homomorphic_subtraction_and_negation() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(50, &mut rng).unwrap();
        let b = pk.encrypt_u64(80, &mut rng).unwrap();
        let diff = pk.sub(&a, &b);
        assert_eq!(symmetric_i64(&sk.decrypt(&diff).unwrap(), pk.n()), Some(-30));
        let neg = pk.negate(&a);
        assert_eq!(symmetric_i64(&sk.decrypt(&neg).unwrap(), pk.n()), Some(-50));
    }

    #[test]
    fn negate_many_and_weighted_sum_match_the_one_at_a_time_operations() {
        let (pk, sk, mut rng) = setup();
        let cs: Vec<Ciphertext> =
            [3u64, 50, 0, 50].iter().map(|&v| pk.encrypt_u64(v, &mut rng).unwrap()).collect();
        let refs: Vec<&Ciphertext> = cs.iter().collect();
        let expected: Vec<Ciphertext> = cs.iter().map(|c| pk.negate(c)).collect();
        assert_eq!(pk.negate_many(&refs), expected);
        assert!(pk.negate_many(&[]).is_empty());

        let ks: Vec<BigUint> = (0..cs.len())
            .map(|i| if i == 2 { BigUint::zero() } else { random_invertible(&mut rng, pk.n()) })
            .collect();
        let terms: Vec<(&Ciphertext, &BigUint)> = cs.iter().zip(&ks).collect();
        let folded =
            terms.iter().fold(pk.one_ciphertext(), |acc, (c, k)| pk.add(&acc, &pk.mul_plain(c, k)));
        assert_eq!(pk.weighted_sum(&terms), folded);
        assert_eq!(pk.weighted_sum(&[]), pk.one_ciphertext());
        assert_eq!(
            sk.decrypt_u64(&pk.weighted_sum(&[(&cs[0], &BigUint::from(7u32))])).unwrap(),
            21
        );
    }

    #[test]
    fn add_plain_matches_add() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(7, &mut rng).unwrap();
        let c = pk.add_plain(&a, &BigUint::from(35u32));
        assert_eq!(sk.decrypt_u64(&c).unwrap(), 42);
    }

    #[test]
    fn rerandomization_preserves_plaintext_and_changes_ciphertext() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(99, &mut rng).unwrap();
        let nonce = pk.nonce_from_exponent(&random_below(&mut rng, pk.n()));
        let b = pk.rerandomize_with_nonce(&a, &nonce);
        assert_ne!(a, b, "re-randomized ciphertext must differ");
        assert_eq!(sk.decrypt_u64(&b).unwrap(), 99);
    }

    #[test]
    fn encryption_is_probabilistic() {
        let (pk, _sk, mut rng) = setup();
        let a = pk.encrypt_u64(5, &mut rng).unwrap();
        let b = pk.encrypt_u64(5, &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn signed_encryption_round_trip() {
        let (pk, sk, mut rng) = setup();
        for v in [i64::MIN, -1_000_000, -1, 0, 1, 123_456_789, i64::MAX] {
            let c = pk.encrypt_i64(v, &mut rng).unwrap();
            assert_eq!(symmetric_i64(&sk.decrypt(&c).unwrap(), pk.n()), Some(v));
        }
    }

    #[test]
    fn sentinel_z_is_minus_one() {
        let (pk, sk, mut rng) = setup();
        let z = pk.sentinel_z();
        let c = pk.encrypt(&z, &mut rng).unwrap();
        assert_eq!(symmetric_i64(&sk.decrypt(&c).unwrap(), pk.n()), Some(-1));
    }

    #[test]
    fn is_zero_detects_equality_of_plaintexts() {
        let (pk, sk, mut rng) = setup();
        let a = pk.encrypt_u64(77, &mut rng).unwrap();
        let b = pk.encrypt_u64(77, &mut rng).unwrap();
        let diff = pk.sub(&a, &b);
        assert!(sk.is_zero(&diff).unwrap());
        let c = pk.encrypt_u64(78, &mut rng).unwrap();
        assert!(!sk.is_zero(&pk.sub(&a, &c)).unwrap());
    }

    #[test]
    fn is_zero_is_the_plaintext_vanishing_mod_p() {
        let (pk, sk, mut rng) = setup();
        let (p, q) = sk.factors();
        let mut plaintexts =
            vec![BigUint::zero(), BigUint::one(), p.clone(), p * BigUint::from(3u32), q.clone()];
        plaintexts.extend((0..16).map(|_| crate::bigint::random_below(&mut rng, pk.n())));
        for m in plaintexts {
            let c = pk.encrypt(&m, &mut rng).unwrap();
            assert_eq!(sk.is_zero(&c).unwrap(), (&m % p).is_zero(), "m = {m}");
        }
    }

    #[test]
    fn is_zero_refuses_a_ciphertext_sharing_a_factor_with_n() {
        let (pk, sk, _rng) = setup();
        let (p, q) = sk.factors();
        for c in [pk.n().clone(), p.clone(), q.clone(), p * p] {
            let c = Ciphertext(c);
            assert!(matches!(sk.decrypt(&c), Err(CryptoError::DecryptionFailed)));
            assert!(matches!(sk.is_zero(&c), Err(CryptoError::DecryptionFailed)));
        }
    }

    #[test]
    fn fixed_base_nonce_matches_naive_exponentiation() {
        let (pk, sk, mut rng) = setup();
        assert_eq!(pk.nonce_base(), &BigUint::from(NONCE_BASE_H).modpow(pk.n(), pk.n_squared()));
        for _ in 0..8 {
            let a = crate::bigint::random_below(&mut rng, pk.n());
            assert_eq!(
                pk.nonce_from_exponent(&a),
                pk.nonce_base().modpow_naive(&a, pk.n_squared())
            );
        }
        // Edge exponents.
        for a in [BigUint::zero(), BigUint::one(), pk.n() - BigUint::one()] {
            assert_eq!(
                pk.nonce_from_exponent(&a),
                pk.nonce_base().modpow_naive(&a, pk.n_squared()),
            );
        }
        // A fixed-base nonce encrypts like any other nonce.
        let a = crate::bigint::random_below(&mut rng, pk.n());
        let c = pk.encrypt_with_nonce(&BigUint::from(4321u64), &pk.nonce_from_exponent(&a));
        assert_eq!(sk.decrypt_u64(&c).unwrap(), 4321);
    }

    #[test]
    fn fresh_nonces_are_comb_powers_of_an_exponent_drawn_from_the_callers_rng() {
        // The 512-bit key is wider than the benchmark's, so its ciphertexts decrypting
        // checks that the comb covers every exponent bit of a larger `N`.
        let mut keygen = StdRng::seed_from_u64(45);
        for bits in [MIN_MODULUS_BITS, 256, 512] {
            let (pk, sk) = generate_keypair(bits, &mut keygen).unwrap();
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let mut reference = rng.clone();
            let m = random_below(&mut keygen, pk.n());
            let nonce = |rng: &mut StdRng| pk.nonce_from_exponent(&random_below(rng, pk.n()));

            let c = pk.encrypt(&m, &mut rng).unwrap();
            assert_eq!(c, pk.encrypt_with_nonce(&m, &nonce(&mut reference)), "{bits}-bit encrypt");
            assert_eq!(rng.next_u64(), reference.next_u64(), "{bits}-bit RNGs");
            assert_eq!(sk.decrypt(&c).unwrap(), m, "{bits}-bit");
        }
    }

    #[test]
    fn deserialize_rejects_degenerate_moduli() {
        // n = 1 (or 0, or even) must come back as a decode error, not a panic in the
        // Montgomery setup — these bytes can arrive over the inter-cloud wire.
        for bad in [0u64, 1, 4096] {
            let v = serde::Value::Map(vec![
                ("n".to_string(), serde::Value::U64(bad)),
                ("modulus_bits".to_string(), serde::Value::U64(8)),
            ]);
            assert!(PaillierPublicKey::from_value(&v).is_err(), "n = {bad}");
        }
        // Too wide for the kernels: a 2049-bit N, and a 1-MB odd N whose parse alone
        // would take seconds.  Both are refused before any context is built.
        let wide = (BigUint::one() << 2048u32) + BigUint::one();
        let megabyte = "9".repeat(1 << 20);
        for bad in [wide.to_string(), megabyte] {
            let v = serde::Value::Map(vec![
                ("n".to_string(), serde::Value::Str(bad.clone())),
                ("modulus_bits".to_string(), serde::Value::U64(bad.len() as u64)),
            ]);
            let err = PaillierPublicKey::from_value(&v).unwrap_err();
            assert!(err.to_string().contains("wider than 2048 bits"), "{err}");
        }
        let mut max_digits = "9".repeat(MAX_DECIMAL_DIGITS);
        assert!(max_digits.parse::<BigUint>().unwrap().bits() > MAX_MODULUS_BITS as u64);
        max_digits.pop();
        assert!(max_digits.parse::<BigUint>().unwrap().bits() <= MAX_MODULUS_BITS as u64);
        // Secret key with p = 1, q = N: passes p·q == N but must still be rejected.
        let (pk, sk, _rng) = setup();
        let mut sk_value = sk.to_value();
        if let serde::Value::Map(entries) = &mut sk_value {
            for (key, value) in entries.iter_mut() {
                match key.as_str() {
                    "p" => *value = serde::Value::Str("1".to_string()),
                    "q" => *value = serde::Value::Str(pk.n().to_string()),
                    _ => {}
                }
            }
        }
        assert!(PaillierSecretKey::from_value(&sk_value).is_err());
    }

    #[test]
    fn decrypt_rejects_ciphertext_sharing_a_factor_with_n() {
        // c = N passes the range check but is divisible by both primes; the CRT path
        // must return an error, not panic in the exact division.
        let (pk, sk, _rng) = setup();
        let c = Ciphertext(pk.n().clone());
        assert_eq!(sk.decrypt(&c), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn validate_rejects_garbage() {
        let (pk, _sk, _rng) = setup();
        assert!(pk.validate(&Ciphertext(BigUint::zero())).is_err());
        assert!(pk.validate(&Ciphertext(pk.n_squared().clone())).is_err());
        assert!(pk.validate(&Ciphertext(BigUint::one())).is_ok());
    }

    #[test]
    fn accumulating_with_one_ciphertext_identity() {
        let (pk, sk, mut rng) = setup();
        let mut acc = pk.one_ciphertext();
        let mut expected = 0u64;
        for v in [3u64, 5, 11, 20] {
            let c = pk.encrypt_u64(v, &mut rng).unwrap();
            acc = pk.add(&acc, &c);
            expected += v;
        }
        assert_eq!(sk.decrypt_u64(&acc).unwrap(), expected);
    }

    #[test]
    fn serde_round_trip() {
        let (pk, sk, mut rng) = setup();
        let c = pk.encrypt_u64(123, &mut rng).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let c2: Ciphertext = serde_json::from_str(&json).unwrap();
        assert_eq!(sk.decrypt_u64(&c2).unwrap(), 123);

        let pk_json = serde_json::to_string(&pk).unwrap();
        let pk2: PaillierPublicKey = serde_json::from_str(&pk_json).unwrap();
        assert_eq!(pk2.n(), pk.n());
    }
}
