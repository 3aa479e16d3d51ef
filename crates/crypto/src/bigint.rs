//! Multi-precision helpers shared by the Paillier and Damgård–Jurik implementations.
//!
//! `num-bigint` provides the raw arbitrary-precision arithmetic (see DESIGN.md §3 for the
//! dependency justification); this module adds the number-theoretic operations the
//! cryptosystems need: modular inverse, random sampling in `Z_N` and `Z_N^*`, the
//! symmetric ("signed") reading of a plaintext residue used for score comparisons, and
//! L-function style exact divisions.

use std::cmp::Ordering;

use num_bigint::{BigUint, RandBigInt};
use num_integer::Integer;
use num_traits::{One, ToPrimitive, Zero};
use rand::{CryptoRng, RngCore};

use crate::error::{CryptoError, Result};

/// Compute the modular inverse of `a` modulo `m`, if it exists.
///
/// An odd modulus — `N`, `N²`, `N³` and their prime-power factors, everything a query
/// inverts under — takes the binary extended Euclid of the vendored Montgomery kernels
/// ([`BigUint::modinv`]); an even one takes plain extended Euclid
/// ([`BigUint::modinv_euclid`]), which also is the reference the binary path is
/// differentially tested against.  The split is [`is_coprime`]'s.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Result<BigUint> {
    if m.is_zero() {
        return Err(CryptoError::NotInvertible);
    }
    a.modinv(m).ok_or(CryptoError::NotInvertible)
}

/// Sample a uniformly random element of `Z_m` (i.e. `[0, m)`).
pub fn random_below<R: RngCore + CryptoRng>(rng: &mut R, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be positive");
    rng.gen_biguint_below(m)
}

/// Whether `gcd(a, m) = 1`.
///
/// Every batch of masking scalars of a `⊖` passes through this check once
/// ([`random_invertible_many`], [`random_invertible`]), against the odd `N`.  No Paillier
/// encryption nonce does: each is `H^a` for a fixed unit `H`, a unit for any exponent.
/// So an odd modulus is decided by a binary GCD on two limb arrays
/// — subtract and shift in place, no division and no allocation per step.  An even
/// modulus takes [`Integer::gcd`]'s Euclid loop, which also is the reference this
/// function is differentially tested against.
pub fn is_coprime(a: &BigUint, m: &BigUint) -> bool {
    if m.is_even() {
        return a.gcd(m).is_one();
    }
    let (mut a, mut b) = (a.to_u64_digits(), m.to_u64_digits());
    if a.is_empty() {
        return b == [1]; // gcd(0, m) = m
    }
    // `b` is odd, so factors of two in `a` are not common factors.  From here on both
    // are odd, and subtracting the smaller from the larger leaves an even number.
    shift_to_odd(&mut a);
    loop {
        match cmp_limbs(&a, &b) {
            Ordering::Equal => return a == [1],
            Ordering::Less => std::mem::swap(&mut a, &mut b),
            Ordering::Greater => {}
        }
        sub_limbs(&mut a, &b);
        shift_to_odd(&mut a);
    }
}

/// Order of two normalized little-endian limb arrays.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a -= b` for normalized `a > b`, leaving `a` normalized.
fn sub_limbs(a: &mut Vec<u64>, b: &[u64]) {
    let mut borrow = false;
    for (i, limb) in a.iter_mut().enumerate() {
        let (diff, b1) = limb.overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
        *limb = diff;
        borrow = b1 || b2;
    }
    debug_assert!(!borrow, "sub_limbs needs a > b");
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Divide the nonzero, normalized `a` by its largest power of two.
fn shift_to_odd(a: &mut Vec<u64>) {
    let zero_limbs = a.iter().take_while(|&&limb| limb == 0).count();
    a.drain(..zero_limbs);
    let shift = a[0].trailing_zeros();
    if shift > 0 {
        for i in 0..a.len() {
            let above = a.get(i + 1).copied().unwrap_or(0);
            a[i] = (a[i] >> shift) | (above << (64 - shift));
        }
        if a.last() == Some(&0) {
            a.pop();
        }
    }
}

/// Sample a uniformly random element of `Z_m^*` (invertible residues): the batch of one
/// of [`random_invertible_many`].
///
/// For an RSA-style modulus the failure probability per draw is negligible, but the
/// redraw makes the function correct for any modulus > 1.
pub fn random_invertible<R: RngCore + CryptoRng>(rng: &mut R, m: &BigUint) -> BigUint {
    random_invertible_many(rng, m, 1).pop().expect("a batch of one holds one draw")
}

/// Sample `count` uniformly random elements of `Z_m^*` for **one** coprimality check.
///
/// Each value is drawn as [`random_invertible`] draws one, a zero redrawn in place.  The
/// draws' product modulo `m` is coprime to `m` exactly when every draw is, so one
/// [`is_coprime`] decides the whole batch.  Only if it fails is each draw checked on its
/// own, and every one that shares a factor with `m` is redrawn until it does not.  So
/// unless a draw is rejected — for an RSA-style modulus, with negligible probability —
/// the output is the stream of `count` successive [`random_invertible`] calls.
pub fn random_invertible_many<R: RngCore + CryptoRng>(
    rng: &mut R,
    m: &BigUint,
    count: usize,
) -> Vec<BigUint> {
    assert!(m > &BigUint::one(), "modulus must exceed 1");
    let mut draw_nonzero = || loop {
        let candidate = rng.gen_biguint_below(m);
        if !candidate.is_zero() {
            return candidate;
        }
    };
    let mut draws: Vec<BigUint> = (0..count).map(|_| draw_nonzero()).collect();
    let product = draws.iter().fold(BigUint::one(), |acc, draw| acc * draw % m);
    if !is_coprime(&product, m) {
        for draw in &mut draws {
            while !is_coprime(draw, m) {
                *draw = draw_nonzero();
            }
        }
    }
    draws
}

/// Sample a random integer with exactly `bits` bits (most significant bit forced to 1).
pub fn random_exact_bits<R: RngCore + CryptoRng>(rng: &mut R, bits: u64) -> BigUint {
    assert!(bits >= 2, "need at least 2 bits");
    let mut x = rng.gen_biguint(bits);
    x.set_bit(bits - 1, true);
    x
}

/// The sign of `x ∈ Z_n` in the symmetric (signed) representation, where a residue
/// above `⌊n/2⌋` stands for the negative number `x − n`: `Equal` for 0, `Less` above
/// `⌊n/2⌋`, `Greater` otherwise.
///
/// The paper's SecDedup sub-protocol replaces a duplicate's worst score with
/// `Z = N − 1 ≡ −1 (mod N)` so that it sorts below every genuine score (§8.2.3, Fig. 3);
/// all plaintext comparisons therefore read residues this way.
pub fn symmetric_sign(x: &BigUint, n: &BigUint) -> Ordering {
    if x.is_zero() {
        Ordering::Equal
    } else if x > &(n >> 1u32) {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// The `i64` that `x ∈ Z_n` stands for in the symmetric representation
/// ([`symmetric_sign`]), or `None` if it lies outside the `i64` range.
pub fn symmetric_i64(x: &BigUint, n: &BigUint) -> Option<i64> {
    match symmetric_sign(x, n) {
        Ordering::Less => {
            (n - x).to_u64().and_then(|magnitude| 0i64.checked_sub_unsigned(magnitude))
        }
        _ => x.to_i64(),
    }
}

/// The residue in `Z_n` that stands for `v` in the symmetric representation: `v` itself,
/// or `n − |v|` for a negative `v`.  Needs `n > 2|v|`, which every key meets
/// (`n ≥ 2¹²⁷`), so that [`symmetric_i64`] reads `v` back.
pub fn from_i64(v: i64, n: &BigUint) -> BigUint {
    let magnitude = BigUint::from(v.unsigned_abs());
    debug_assert!(n > &(&magnitude << 1u32), "from_i64: modulus too small for {v}");
    if v < 0 {
        n - magnitude
    } else {
        magnitude
    }
}

/// Exact division `(u - 1) / n`, the `L` function of the Paillier / Damgård–Jurik
/// cryptosystems.  Panics if `u ≢ 1 (mod n)` — callers guarantee this by construction.
pub fn l_function(u: &BigUint, n: &BigUint) -> BigUint {
    debug_assert!(((u - BigUint::one()) % n).is_zero(), "L-function input must be ≡ 1 mod n");
    (u - BigUint::one()) / n
}

/// Convert an arbitrary byte string (e.g. an HMAC tag) to an element of `Z_m` by
/// interpreting it as a big-endian integer and reducing.
pub fn bytes_to_element(bytes: &[u8], m: &BigUint) -> BigUint {
    BigUint::from_bytes_be(bytes) % m
}

/// A small deterministic factorial, used by the Damgård–Jurik decryption recursion
/// (the `k!` terms are tiny because `s` is tiny).
pub fn factorial(k: u64) -> BigUint {
    let mut acc = BigUint::one();
    for i in 2..=k {
        acc *= BigUint::from(i);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = BigUint::from(10007u32); // prime
        for a in [1u32, 2, 3, 17, 5000, 10006] {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &m).unwrap();
            assert_eq!((a * inv) % &m, BigUint::one());
        }
    }

    #[test]
    fn mod_inverse_rejects_non_invertible() {
        let m = BigUint::from(12u32);
        assert_eq!(mod_inverse(&BigUint::from(4u32), &m), Err(CryptoError::NotInvertible));
        assert_eq!(mod_inverse(&BigUint::from(6u32), &m), Err(CryptoError::NotInvertible));
        assert!(mod_inverse(&BigUint::from(5u32), &m).is_ok());
    }

    #[test]
    fn mod_inverse_zero_modulus() {
        assert_eq!(
            mod_inverse(&BigUint::from(3u32), &BigUint::zero()),
            Err(CryptoError::NotInvertible)
        );
    }

    #[test]
    fn random_below_is_in_range() {
        let mut r = rng();
        let m = BigUint::from(1_000_000u64);
        for _ in 0..200 {
            assert!(random_below(&mut r, &m) < m);
        }
    }

    #[test]
    fn random_invertible_is_invertible() {
        let mut r = rng();
        let m = BigUint::from(3u32 * 5 * 7 * 11);
        for _ in 0..100 {
            let x = random_invertible(&mut r, &m);
            assert!(x.gcd(&m).is_one());
            assert!(!x.is_zero());
        }
    }

    #[test]
    fn a_batch_is_the_stream_of_single_draws() {
        // An RSA-shaped 256-bit modulus: no draw is rejected, so a batch of c is the
        // next c single draws, and leaves the RNG where they leave it.
        let mut r = rng();
        let p = crate::prime::generate_prime(128, &mut r).unwrap();
        let q = crate::prime::generate_prime(128, &mut r).unwrap();
        let m = p * q;
        assert_eq!(m.bits(), 256);
        for count in 0..=40 {
            let mut single = r.clone();
            let expected: Vec<BigUint> =
                (0..count).map(|_| random_invertible(&mut single, &m)).collect();
            assert_eq!(random_invertible_many(&mut r, &m, count), expected, "count {count}");
            assert_eq!(r.gen_biguint(64), single.gen_biguint(64), "count {count}");
        }
    }

    #[test]
    fn a_batch_under_many_small_factors_redraws_every_shared_factor() {
        // Fewer than one draw in six is coprime to this modulus, so nearly every batch
        // fails its one product check and takes the per-draw redraw.
        let m = [3u32, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
            .into_iter()
            .fold(BigUint::one(), |acc, p| acc * BigUint::from(p));
        let mut r = rng();
        for count in 0..=40 {
            let draws = random_invertible_many(&mut r, &m, count);
            assert_eq!(draws.len(), count);
            for x in &draws {
                assert!(!x.is_zero() && x < &m, "{x}");
                assert!(x.gcd(&m).is_one(), "{x} shares a factor with {m}");
            }
        }
    }

    #[test]
    fn random_exact_bits_has_correct_length() {
        let mut r = rng();
        for bits in [8u64, 16, 64, 128, 256] {
            for _ in 0..10 {
                let x = random_exact_bits(&mut r, bits);
                assert_eq!(x.bits(), bits);
            }
        }
    }

    #[test]
    fn signed_round_trip() {
        let n = BigUint::from(1000u32);
        for v in [0u32, 1, 2, 499, 500] {
            assert_eq!(symmetric_i64(&BigUint::from(v), &n), Some(i64::from(v)));
        }
        // 501..999 map to negatives.
        assert_eq!(symmetric_i64(&BigUint::from(999u32), &n), Some(-1));
        assert_eq!(symmetric_i64(&BigUint::from(501u32), &n), Some(-499));
        // Round trip.
        for v in [-499i64, -1, 0, 1, 499] {
            assert_eq!(symmetric_i64(&from_i64(v, &n), &n), Some(v));
        }
    }

    #[test]
    fn the_sign_boundary_is_half_the_modulus() {
        // An odd and an even modulus, both wider than 2·2⁶³.
        for n in [(BigUint::one() << 100u32) + BigUint::from(277u32), BigUint::one() << 100u32] {
            let half = &n >> 1u32;
            let one = BigUint::one();
            assert_eq!(symmetric_sign(&BigUint::zero(), &n), Ordering::Equal);
            assert_eq!(symmetric_sign(&one, &n), Ordering::Greater);
            assert_eq!(symmetric_sign(&half, &n), Ordering::Greater);
            assert_eq!(symmetric_sign(&(&half + &one), &n), Ordering::Less);
            assert_eq!(symmetric_sign(&(&n - &one), &n), Ordering::Less);

            assert_eq!(symmetric_i64(&BigUint::zero(), &n), Some(0));
            assert_eq!(symmetric_i64(&(&n - &one), &n), Some(-1));
            // ⌊n/2⌋ and ⌊n/2⌋ + 1 are the extreme positive and negative values, far past
            // the i64 range at this width.
            assert_eq!(symmetric_i64(&half, &n), None);
            assert_eq!(symmetric_i64(&(&half + &one), &n), None);

            for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
                let residue = from_i64(v, &n);
                assert!(residue < n);
                assert_eq!(symmetric_i64(&residue, &n), Some(v), "{v}");
                assert_eq!(symmetric_sign(&residue, &n), v.cmp(&0), "{v}");
            }
            assert_eq!(from_i64(-1, &n), &n - &one);
            assert_eq!(from_i64(i64::MIN, &n), &n - (BigUint::one() << 63u32));

            // One past each end of the i64 range.
            let past_max = BigUint::one() << 63u32;
            assert_eq!(symmetric_i64(&past_max, &n), None);
            assert_eq!(symmetric_i64(&(&n - &past_max - &one), &n), None);
        }
    }

    #[test]
    fn l_function_divides_exactly() {
        let n = BigUint::from(77u32);
        let u = BigUint::one() + BigUint::from(5u32) * &n;
        assert_eq!(l_function(&u, &n), BigUint::from(5u32));
    }

    #[test]
    fn bytes_to_element_reduces() {
        let m = BigUint::from(97u32);
        let e = bytes_to_element(&[0xff; 32], &m);
        assert!(e < m);
        // Deterministic for the same bytes.
        assert_eq!(e, bytes_to_element(&[0xff; 32], &m));
    }

    #[test]
    fn factorial_small_values() {
        assert_eq!(factorial(0), BigUint::one());
        assert_eq!(factorial(1), BigUint::one());
        assert_eq!(factorial(2), BigUint::from(2u32));
        assert_eq!(factorial(5), BigUint::from(120u32));
        assert_eq!(factorial(10), BigUint::from(3_628_800u64));
    }
}
