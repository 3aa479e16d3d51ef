//! False-positive-rate analysis for EHL and EHL+ (§5 of the paper).
//!
//! * Bloom-style EHL with `H` buckets and `s` hash functions over `n` objects:
//!   `FPR ≈ (1 − e^{−s·n/H})^s`, minimised at `s = (H/n)·ln 2`, where it is ≈ `0.62^{H/n}`.
//! * EHL+: the paper's `s` PRF images modulo `N` collide with probability at most `1/Nˢ`
//!   per pair, so a union bound over all pairs gives `FPR ≤ n²/Nˢ`.  Here an EHL+ is one
//!   block of the images' sum ([`EhlPlus`](crate::EhlPlus)), so two distinct objects
//!   collide mod `N` with probability `1/N`: `n²/N` over the relation's pairs.
//! * S2 decides a blinded `⊖` cell mod `p` only (half a decryption,
//!   [`PaillierSecretKey::is_zero`](sectopk_crypto::PaillierSecretKey::is_zero)).  A
//!   nonzero cell is a uniform multiple mod `N`, which vanishes mod `p` with probability
//!   ≈ `1/p`.  Whether two distinct objects' images agree mod `p` is a fixed property of
//!   the pair rather than a fresh draw per test, so the union bound is over the
//!   relation's lifetime, and equality as S2 reports it errs with probability at most
//!   [`equality_fpr_log2`] = `n²/N + n²/p` — at a 256-bit `N`, ≤ 2⁻⁷¹ for `n ≤ 2²⁸`,
//!   whatever `s` is.

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

/// Upper bound on the rate at which S2's mod-`p` zero test reports a nonzero `⊖` cell
/// of `n` objects as zero: `n²/p ≤ n² / 2^{modulus_bits/2 − 1}`, since `p` is half of a
/// `modulus_bits`-bit `N`.  A base-2 logarithm, like [`equality_fpr_log2`].
pub fn zero_test_fpr_log2(n: usize, modulus_bits: usize) -> f64 {
    assert!(n > 0 && modulus_bits > 1);
    2.0 * (n as f64).log2() - (modulus_bits / 2) as f64 + 1.0
}

/// Upper bound on the false positive rate of EHL+ equality as S2 decides it, both terms:
/// `n²/N + n²/p` for `n` objects and a `modulus_bits`-bit `N`.  Returned as a base-2
/// logarithm to avoid underflow; i.e. `FPR ≤ 2^{returned value}`.
pub fn equality_fpr_log2(n: usize, modulus_bits: usize) -> f64 {
    assert!(n > 0 && modulus_bits > 0);
    let collision = 2.0 * (n as f64).log2() - modulus_bits as f64;
    let (a, b) = (collision, zero_test_fpr_log2(n, modulus_bits));
    let (high, low) = if a >= b { (a, b) } else { (b, a) };
    high + (low - high).exp2().ln_1p() / std::f64::consts::LN_2
}

/// True when equality as S2 decides it ([`equality_fpr_log2`]) errs with probability
/// below `2^{-target_bits}` (e.g. `target_bits = 40` for the "negligible even for
/// millions of records" claim).
pub fn ehl_plus_is_negligible(n: usize, modulus_bits: usize, target_bits: u32) -> bool {
    equality_fpr_log2(n, modulus_bits) <= -(target_bits as f64)
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
        // The paper: N a 256-bit number, millions of records.
        assert!(ehl_plus_is_negligible(1_000_000, 256, 40));
        assert!(ehl_plus_is_negligible(1_000_000, 256, 80));
        // Degenerate parameters are not negligible.
        assert!(!ehl_plus_is_negligible(1_000_000, 32, 40));
    }

    #[test]
    fn fpr_log2_formula() {
        // n = 2^20, 256-bit N: n²/N = 2^{40 − 256} beside n²/p = 2^{40 − 128 + 1}.
        let v = equality_fpr_log2(1 << 20, 256);
        assert!((v - (40.0 - 128.0 + 1.0)).abs() < 1e-9, "{v}");
        // The terms add: 2^−4 + 2^−1 at n = 1, a 4-bit N.
        assert!((equality_fpr_log2(1, 4) - 0.5625f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn the_zero_test_term_bounds_equality_whatever_s_is() {
        // n = 2^28 at a 256-bit N: n²/p ≤ 2^{56 − 128 + 1} = 2^−71.
        assert!((zero_test_fpr_log2(1 << 28, 256) - (-71.0)).abs() < 1e-9);
        let both = equality_fpr_log2(1 << 28, 256);
        assert!((-71.0..-70.99).contains(&both), "{both}");
        assert!(!ehl_plus_is_negligible(1 << 28, 256, 80));
        assert!(ehl_plus_is_negligible(1 << 28, 2048, 80));
    }

    #[test]
    fn the_folded_query_path_keeps_the_zero_test_rate() {
        // n = 2^28 at a 256-bit N: one block errs at n²/N + n²/p, still ≤ 2^−71, and the
        // n²/N term moves the n²/p rate by less than 0.01 bit.
        let folded = equality_fpr_log2(1 << 28, 256);
        assert!(folded <= -71.0, "{folded}");
        assert!((folded - zero_test_fpr_log2(1 << 28, 256)).abs() < 0.01, "{folded}");
    }
}
