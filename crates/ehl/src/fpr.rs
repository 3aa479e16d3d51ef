//! False-positive-rate analysis for EHL and EHL+ (§5 of the paper).
//!
//! * Bloom-style EHL with `H` buckets and `s` hash functions over `n` objects:
//!   `FPR ≈ (1 − e^{−s·n/H})^s`, minimised at `s = (H/n)·ln 2`, where it is ≈ `0.62^{H/n}`.
//! * EHL+ with `s` PRF images modulo `N`: a pair collides with probability at most
//!   `1/Nˢ`, so a union bound over all pairs gives `FPR ≤ n²/Nˢ` — negligible for the
//!   moduli the scheme uses (the paper quotes `N ≈ 2^256`, `s = 4..5`).
//! * S2 decides a blinded `⊖` cell mod `p` only (half a decryption,
//!   [`PaillierSecretKey::is_zero`](sectopk_crypto::PaillierSecretKey::is_zero)).  A
//!   nonzero cell is a uniform multiple mod `N`, which vanishes mod `p` with probability
//!   ≈ `1/p`, so equality as S2 reports it errs with probability at most
//!   `n²/Nˢ + n²/p` — at a 256-bit `N`, ≤ 2⁻⁷¹ for `n ≤ 2²⁸`, whatever `s` is.
//! * The query path decides equality on **folded** images: the owner stores each EHL+
//!   as one block that sums the `s` images, `Enc(Σ_i HMAC(κ_i, o) mod N)` (what
//!   [`EhlPlus::folded`](crate::EhlPlus::folded) makes of `s` blocks), and every `⊖`
//!   runs on it.  Two distinct objects then test equal when their folded images agree
//!   mod `p`, a fixed property of the pair rather than a fresh draw per test, so the
//!   union bound is over the relation's lifetime, and the rate is
//!   [`equality_fpr_log2`]`(n, 1, |N|)` = `n²/N + n²/p`: the `n²/p` term still
//!   dominates, so it reads within a hair of the `s`-block rate.

/// Estimated Bloom-filter false positive rate for `h` buckets, `s` hash functions and `n`
/// inserted elements (here every object occupies its own filter, so the per-pair collision
/// probability is governed by `s` positions in `h` buckets).
pub fn bloom_fpr(h: usize, s: usize, _n: usize) -> f64 {
    assert!(h > 0 && s > 0);
    // Probability a specific bucket is unset in one object's pattern: (1 - 1/h)^s.
    // Two objects collide iff their bit patterns coincide; the classical approximation
    // used by the paper treats this as (1 - e^{-s/h*...}); we follow the paper's formula
    // with n interpreted as the per-filter insertion count (1 object per filter, s bits).
    let exponent = -(s as f64) / (h as f64);
    (1.0 - exponent.exp()).powi(s as i32)
}

/// The hash-function count that minimises the Bloom FPR for `h` buckets holding the bits
/// of one object's `s`-position pattern relative to `n` objects sharing the parameters
/// (`s* = (H/n)·ln 2` in the paper's notation, with `n = 1` per filter this is `H·ln 2`).
pub fn optimal_hash_count(h: usize, n: usize) -> usize {
    assert!(h > 0 && n > 0);
    (((h as f64) / (n as f64)) * std::f64::consts::LN_2).round().max(1.0) as usize
}

/// Upper bound on the EHL+ false positive rate for `n` objects, `s` PRF images and a
/// modulus of `modulus_bits` bits: `n² / N^s ≤ n² / 2^{modulus_bits·s}` (§5).
///
/// Returned as a base-2 logarithm to avoid underflow (the true value is astronomically
/// small); i.e. `FPR ≤ 2^{returned value}`.
pub fn ehl_plus_fpr_log2(n: usize, s: usize, modulus_bits: usize) -> f64 {
    assert!(n > 0 && s > 0 && modulus_bits > 0);
    2.0 * (n as f64).log2() - (modulus_bits as f64) * (s as f64)
}

/// Upper bound on the rate at which S2's mod-`p` zero test reports a nonzero `⊖` cell
/// of `n` objects as zero: `n²/p ≤ n² / 2^{modulus_bits/2 − 1}`, since `p` is half of a
/// `modulus_bits`-bit `N`.  A base-2 logarithm, like [`ehl_plus_fpr_log2`].
pub fn zero_test_fpr_log2(n: usize, modulus_bits: usize) -> f64 {
    assert!(n > 0 && modulus_bits > 1);
    2.0 * (n as f64).log2() - (modulus_bits / 2) as f64 + 1.0
}

/// Upper bound on the false positive rate of EHL+ equality as S2 decides it, both terms:
/// `n²/Nˢ + n²/p`, as a base-2 logarithm.  The relation stores, and the query path
/// compares, one folded block per EHL+ ([`EhlPlus::folded`](crate::EhlPlus::folded)), so
/// its rate is `equality_fpr_log2(n, 1, |N|)` whatever `s` the relation was encoded with.
pub fn equality_fpr_log2(n: usize, s: usize, modulus_bits: usize) -> f64 {
    let (a, b) = (ehl_plus_fpr_log2(n, s, modulus_bits), zero_test_fpr_log2(n, modulus_bits));
    let (high, low) = if a >= b { (a, b) } else { (b, a) };
    high + (low - high).exp2().ln_1p() / std::f64::consts::LN_2
}

/// True when equality as S2 decides it ([`equality_fpr_log2`]) errs with probability
/// below `2^{-target_bits}` (e.g. `target_bits = 40` for the "negligible even for
/// millions of records" claim).
pub fn ehl_plus_is_negligible(n: usize, s: usize, modulus_bits: usize, target_bits: u32) -> bool {
    equality_fpr_log2(n, s, modulus_bits) <= -(target_bits as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_fpr_decreases_with_more_buckets() {
        let few = bloom_fpr(8, 5, 1);
        let many = bloom_fpr(64, 5, 1);
        assert!(many < few);
        assert!(few > 0.0 && few < 1.0);
    }

    #[test]
    fn optimal_hash_count_matches_ln2_rule() {
        assert_eq!(optimal_hash_count(23, 1), 16); // 23 * 0.693 ≈ 15.9
        assert_eq!(optimal_hash_count(10, 1), 7);
        assert!(optimal_hash_count(1, 10) >= 1);
    }

    #[test]
    fn paper_parameters_are_negligible() {
        // The paper: N a 256-bit number, s = 4 or 5, millions of records.
        assert!(ehl_plus_is_negligible(1_000_000, 4, 256, 40));
        assert!(ehl_plus_is_negligible(1_000_000, 5, 256, 80));
        // Degenerate parameters are not negligible.
        assert!(!ehl_plus_is_negligible(1_000_000, 1, 32, 40));
    }

    #[test]
    fn fpr_log2_formula() {
        // n = 2^20, s = 5, 256-bit N: log2(FPR) = 40 - 1280 = -1240.
        let v = ehl_plus_fpr_log2(1 << 20, 5, 256);
        assert!((v - (40.0 - 1280.0)).abs() < 1e-9);
    }

    #[test]
    fn the_zero_test_term_bounds_equality_whatever_s_is() {
        // n = 2^28 at a 256-bit N: n²/p ≤ 2^{56 − 128 + 1} = 2^−71.
        assert!((zero_test_fpr_log2(1 << 28, 256) - (-71.0)).abs() < 1e-9);
        for s in [1, 3, 5] {
            let both = equality_fpr_log2(1 << 28, s, 256);
            assert!((-71.0..-70.99).contains(&both), "s = {s}: {both}");
        }
        // The terms add: 2^−4 + 2^−1 at n = 1, s = 1, a 4-bit N.
        assert!((equality_fpr_log2(1, 1, 4) - 0.5625f64.log2()).abs() < 1e-9);
        assert!(!ehl_plus_is_negligible(1 << 28, 5, 256, 80));
        assert!(ehl_plus_is_negligible(1 << 28, 5, 2048, 80));
    }

    #[test]
    fn the_folded_query_path_keeps_the_zero_test_rate() {
        // n = 2^28 at a 256-bit N: one folded image errs at n²/N + n²/p, still ≤ 2^−71.
        let folded = equality_fpr_log2(1 << 28, 1, 256);
        assert!(folded <= -71.0, "{folded}");
        assert!((folded - equality_fpr_log2(1 << 28, 5, 256)).abs() < 0.01, "{folded}");
    }

    #[test]
    fn larger_s_reduces_ehl_plus_fpr() {
        assert!(ehl_plus_fpr_log2(1000, 5, 128) < ehl_plus_fpr_log2(1000, 2, 128));
    }
}
