//! Probabilistic prime generation (trial-division sieve + Miller–Rabin) used for
//! Paillier / Damgård–Jurik key generation.
//!
//! The paper's experiments use "128-bit security for the Paillier and DJ encryption"
//! (§11); key sizes in this reproduction are a constructor parameter, so the same code
//! path generates the small keys used in fast tests and the larger keys used in benches.
//!
//! Candidate search is incremental: one random odd starting point, residues against a
//! sieve of small primes computed once with word-sized divisions, then the search walks
//! `candidate + 2·Δ` updating only the residues (pure `u64` arithmetic) and runs
//! Miller–Rabin — whose modpows ride the Montgomery fast path of the vendored bignum —
//! only on candidates that survive the sieve.

use std::sync::OnceLock;

use num_bigint::{BigUint, MontgomeryContext, RandBigInt};
use num_traits::One;
use rand::{CryptoRng, RngCore};

use crate::bigint::random_exact_bits;
use crate::error::{CryptoError, Result};

/// Small primes used for cheap trial division before running Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Upper bound (exclusive) of the sieve prime table used by [`generate_prime`].
const SIEVE_LIMIT: u32 = 1 << 14;

/// How far the incremental search walks (`candidate + 2·Δ`, `Δ < SEARCH_SPAN`) before
/// drawing a fresh random starting point.  ~2¹³ odd candidates covers many times the
/// expected prime gap at every key size this library accepts.
const SEARCH_SPAN: u64 = 1 << 13;

/// The odd sieve primes `3, 5, 7, …` below [`SIEVE_LIMIT`], computed once.
fn sieve_primes() -> &'static [u32] {
    static PRIMES: OnceLock<Vec<u32>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let limit = SIEVE_LIMIT as usize;
        let mut composite = vec![false; limit];
        let mut primes = Vec::new();
        // Odd numbers only — generated candidates are always odd, so 2 never divides.
        for n in (3..limit).step_by(2) {
            if !composite[n] {
                primes.push(n as u32);
                let mut multiple = n * n;
                while multiple < limit {
                    composite[multiple] = true;
                    multiple += 2 * n; // skip even multiples
                }
            }
        }
        primes
    })
}

/// Number of Miller–Rabin rounds.  40 rounds gives an error probability below 2^-80 for
/// random candidates, which is the conventional choice for RSA-style key generation.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Maximum number of candidates examined before giving up (far above the expected number,
/// which is O(bits) by the prime number theorem).
const MAX_CANDIDATES: usize = 100_000;

/// Returns `true` if `n` is (probably) prime.
///
/// Deterministic for `n < 2^32` (full trial division against the small prime table plus
/// Miller–Rabin with random bases), probabilistic with error < 2^-80 above that.
pub fn is_probable_prime<R: RngCore + CryptoRng>(n: &BigUint, rng: &mut R) -> bool {
    if n < &BigUint::from(2u32) {
        return false;
    }
    for &p in SMALL_PRIMES.iter() {
        let p64 = p as u64;
        if n.rem_u64(p64) == 0 {
            // Divisible by p: prime exactly when n *is* p.
            return *n == BigUint::from(p64);
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin primality test with `rounds` random bases.  All exponentiations share
/// one Montgomery context for the candidate (the candidate is odd: trial division by 2
/// already happened); a candidate wider than the Montgomery kernels takes the naive path.
fn miller_rabin<R: RngCore + CryptoRng>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u32);
    let n_minus_one = n - &one;
    let ctx = MontgomeryContext::new(n);
    let pow = |base: &BigUint, exponent: &BigUint| match &ctx {
        Some(ctx) => ctx.modpow(base, exponent),
        None => base.modpow_naive(exponent, n),
    };

    // Write n - 1 = 2^s * d with d odd.
    let s = n_minus_one.trailing_zeros().unwrap_or(0);
    let d = &n_minus_one >> s;

    'witness: for _ in 0..rounds {
        // Base in [2, n-2].
        let a = loop {
            let a = rng.gen_biguint_below(n);
            if a >= two && a <= n - &two {
                break a;
            }
        };
        let mut x = pow(&a, &d);
        if x == one || x == n_minus_one {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = pow(&x, &two);
            if x == n_minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generate a random probable prime with exactly `bits` bits.
///
/// Incremental search: from a random odd `bits`-bit starting point, the candidate
/// residues against every sieve prime are computed once ([`BigUint::rem_u64`]); the
/// walk to `candidate + 2·Δ` then only checks `(residue + 2·Δ) mod p` in word
/// arithmetic and reserves Miller–Rabin for candidates no sieve prime divides.
pub fn generate_prime<R: RngCore + CryptoRng>(bits: u64, rng: &mut R) -> Result<BigUint> {
    if bits < 8 {
        return Err(CryptoError::KeySizeTooSmall { requested: bits as usize, minimum: 8 });
    }
    // Only sieve by primes whose square is below the candidate range: a larger prime
    // dividing a `bits`-bit candidate implies a smaller cofactor another sieve prime
    // already catches — and this keeps tiny test sizes (where a table prime can *be*
    // the candidate) correct.
    let max_sieve_prime: u64 = match bits.checked_sub(1).map(|b| b / 2) {
        Some(half_bits) if half_bits >= 14 => SIEVE_LIMIT as u64,
        Some(half_bits) => 1u64 << half_bits,
        None => unreachable!("bits >= 8 checked above"),
    };
    let primes: Vec<u64> =
        sieve_primes().iter().map(|&p| p as u64).take_while(|&p| p < max_sieve_prime).collect();

    for _ in 0..MAX_CANDIDATES {
        let mut base = random_exact_bits(rng, bits);
        base.set_bit(0, true); // force odd
        let residues: Vec<u64> = primes.iter().map(|&p| base.rem_u64(p)).collect();

        'delta: for delta in 0..SEARCH_SPAN {
            let offset = 2 * delta;
            for (&p, &r) in primes.iter().zip(residues.iter()) {
                if (r + offset) % p == 0 {
                    continue 'delta; // divisible by a sieve prime
                }
            }
            let candidate = &base + BigUint::from(offset);
            if candidate.bits() != bits {
                break; // walked past the top of the `bits`-bit range
            }
            if miller_rabin(&candidate, MILLER_RABIN_ROUNDS, rng) {
                return Ok(candidate);
            }
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

/// Generate two distinct random primes of `bits` bits each, suitable as Paillier factors.
///
/// The primes are rejected if they are equal or if `gcd(pq, (p-1)(q-1)) != 1` (the
/// standard Paillier requirement, automatically satisfied for same-length primes but
/// checked for robustness with small test keys).
pub fn generate_safe_factor_pair<R: RngCore + CryptoRng>(
    bits: u64,
    rng: &mut R,
) -> Result<(BigUint, BigUint)> {
    use num_integer::Integer;
    for _ in 0..64 {
        let p = generate_prime(bits, rng)?;
        let q = generate_prime(bits, rng)?;
        if p == q {
            continue;
        }
        let n = &p * &q;
        let phi = (&p - BigUint::one()) * (&q - BigUint::one());
        if n.gcd(&phi).is_one() {
            return Ok((p, q));
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_are_recognised() {
        let mut r = rng();
        for p in [2u32, 3, 5, 7, 11, 13, 97, 101, 251, 257, 65537] {
            assert!(is_probable_prime(&BigUint::from(p), &mut r), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_are_rejected() {
        let mut r = rng();
        for c in [0u32, 1, 4, 6, 8, 9, 15, 21, 25, 91, 100, 255, 65535, 65536] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut r), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        let mut r = rng();
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        for c in [561u32, 1105, 1729, 2465, 2821, 6601, 8911, 62745] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut r), "{c} is Carmichael");
        }
    }

    #[test]
    fn known_large_prime() {
        let mut r = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = (BigUint::one() << 127u32) - BigUint::one();
        assert!(is_probable_prime(&m127, &mut r));
        // 2^128 - 1 factors as 3 * 5 * 17 * ...
        let c = (BigUint::one() << 128u32) - BigUint::one();
        assert!(!is_probable_prime(&c, &mut r));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [16u64, 32, 64, 128] {
            let p = generate_prime(bits, &mut r).unwrap();
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, &mut r));
        }
    }

    #[test]
    fn too_small_request_is_rejected() {
        let mut r = rng();
        assert!(matches!(generate_prime(4, &mut r), Err(CryptoError::KeySizeTooSmall { .. })));
    }

    #[test]
    fn factor_pair_is_usable() {
        let mut r = rng();
        let (p, q) = generate_safe_factor_pair(64, &mut r).unwrap();
        assert_ne!(p, q);
        assert_eq!(p.bits(), 64);
        assert_eq!(q.bits(), 64);
    }
}
