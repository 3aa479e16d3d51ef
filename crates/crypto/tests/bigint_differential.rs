//! Differential property tests pinning every fast arithmetic path against its naive
//! reference implementation, bit for bit:
//!
//! * Montgomery fixed-window `modpow` (odd moduli) and the even-modulus fallback vs.
//!   the bit-at-a-time [`BigUint::modpow_naive`], and the same modulus at its exact
//!   kernel width vs. the next two (zero-padded) widths of the ladder,
//! * the Straus multi-exponentiation vs. the product of the separate `modpow`s, the
//!   two-CIOS `mul_mod` vs. a product and a remainder, the batch inversion and the
//!   binary extended Euclid vs. one Euclid inversion per element, and the binary-GCD
//!   coprimality check vs. Euclid's `gcd`,
//! * CRT Paillier decryption vs. the textbook `λ` path, and Paillier / Damgård–Jurik round
//!   trips at 128-, 256- and 512-bit keys (each a different set of kernel widths),
//! * the limb-direct `from_bytes_be` vs. an explicit shift-and-add fold.
//!
//! Edge operands (0, 1, modulus−1, even moduli) are covered both by dedicated cases and
//! by pinning random draws to the range boundaries.

use num_bigint::{BigUint, MontgomeryContext, RandBigInt};
use num_traits::{One, Zero};
use proptest::proptest;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_crypto::damgard_jurik::{DjPublicKey, DjSecretKey};
use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};

/// `modulus`'s context at its exact kernel width, then at the next two ladder rungs.
fn contexts_at_three_widths(modulus: &BigUint) -> Vec<MontgomeryContext> {
    let exact = MontgomeryContext::new(modulus).expect("odd modulus > 1");
    let next = MontgomeryContext::with_width_at_least(modulus, exact.width() + 1).unwrap();
    let after = MontgomeryContext::with_width_at_least(modulus, next.width() + 1).unwrap();
    assert!(exact.width() < next.width() && next.width() < after.width());
    vec![exact, next, after]
}

/// Random value with roughly `bits` bits drawn from a seeded RNG.
fn random_biguint(rng: &mut StdRng, bits: u64) -> BigUint {
    rng.gen_biguint(bits)
}

proptest! {
    #[test]
    fn modpow_fast_matches_naive(seed in 0u64..500, base_bits in 1u64..320, exp_bits in 1u64..200, mod_bits in 2u64..320) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_biguint(&mut rng, base_bits);
        let exponent = random_biguint(&mut rng, exp_bits);
        let mut modulus = random_biguint(&mut rng, mod_bits);
        if modulus.is_zero() {
            modulus = BigUint::one() + BigUint::one();
        }
        // Covers both parities: odd moduli take the Montgomery path, even ones the
        // naive fallback — either way `modpow` must agree with `modpow_naive`.
        assert_eq!(
            base.modpow(&exponent, &modulus),
            base.modpow_naive(&exponent, &modulus),
            "base={base} exp={exponent} mod={modulus}"
        );
    }

    #[test]
    fn montgomery_context_matches_naive_on_edge_operands(seed in 0u64..300, mod_bits in 2u64..260) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true); // force odd so the context exists
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        let ctx = MontgomeryContext::new(&modulus).expect("odd modulus > 1");
        let minus_one = &modulus - BigUint::one();
        let edge_values =
            [BigUint::zero(), BigUint::one(), minus_one.clone(), random_biguint(&mut rng, mod_bits)];
        let edge_exponents = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(2u32),
            minus_one,
            random_biguint(&mut rng, 96),
        ];
        for base in &edge_values {
            for exponent in &edge_exponents {
                assert_eq!(
                    ctx.modpow(base, exponent),
                    base.modpow_naive(exponent, &modulus),
                    "base={base} exp={exponent} mod={modulus}"
                );
            }
        }
    }

    #[test]
    fn from_bytes_be_matches_shift_and_add(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let mut reference = BigUint::zero();
        for &b in &bytes {
            reference = (reference << 8u32) + BigUint::from(b);
        }
        assert_eq!(BigUint::from_bytes_be(&bytes), reference);
    }

    #[test]
    fn crt_decrypt_matches_lambda_decrypt(seed in 0u64..40, m in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        // Plain values, the sentinel −1, and random group elements.
        let mut plains = vec![
            BigUint::zero(),
            BigUint::one(),
            BigUint::from(m),
            pk.sentinel_z(),
            pk.n() - BigUint::one(),
        ];
        plains.push(sectopk_crypto::bigint::random_below(&mut rng, pk.n()));
        for plain in &plains {
            let plain = plain % pk.n();
            let c = pk.encrypt(&plain, &mut rng).unwrap();
            assert_eq!(sk.decrypt(&c).unwrap(), plain);
            assert_eq!(sk.decrypt(&c).unwrap(), sk.decrypt_via_lambda(&c).unwrap());
        }
    }

    #[test]
    fn dj_binomial_g_pow_matches_modpow(seed in 0u64..60) {
        // encrypt_with_nonce(m, 1) isolates (1+N)^m mod N³; compare the binomial
        // closed form against a genuine modular exponentiation.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000));
        let (pk, _sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let dj = DjPublicKey::from_paillier(&pk);
        let g = pk.n() + BigUint::one();
        let messages = [
            BigUint::zero(),
            BigUint::one(),
            pk.n().clone(),
            pk.n() - BigUint::one(),
            dj.n_s() - BigUint::one(),
            sectopk_crypto::bigint::random_below(&mut rng, dj.n_s()),
        ];
        for m in &messages {
            let via_binomial = dj.encrypt_with_nonce(m, &BigUint::one());
            let via_modpow = g.modpow_naive(m, dj.n_s_plus_1());
            assert_eq!(via_binomial.as_biguint(), &via_modpow, "m = {m}");
        }
    }
}

proptest! {
    #[test]
    fn fixed_base_table_matches_naive_modpow(seed in 0u64..200, mod_bits in 2u64..260, cover_bits in 1u64..160) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(53).wrapping_add(11));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true);
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        let ctx = MontgomeryContext::new(&modulus).expect("odd modulus > 1");
        let base = random_biguint(&mut rng, mod_bits);
        let table = ctx.precompute_fixed_base(&base, cover_bits);
        // In-coverage exponents, including both range boundaries.
        let mut exponents = vec![
            BigUint::zero(),
            BigUint::one(),
            (BigUint::one() << cover_bits) - BigUint::one(),
            random_biguint(&mut rng, cover_bits),
        ];
        // Past-coverage exponent: the table must fall back to the generic path and
        // still agree (the nonce-pool contract when a caller overshoots its sizing).
        exponents.push((BigUint::one() << cover_bits) + random_biguint(&mut rng, 40));
        for exponent in &exponents {
            assert_eq!(
                ctx.fixed_base_modpow(&table, exponent),
                base.modpow_naive(exponent, &modulus),
                "base={base} exp={exponent} mod={modulus} coverage={cover_bits}"
            );
        }
    }

    #[test]
    fn multi_exp_matches_product_of_modpows(seed in 0u64..300, mod_bits in 2u64..330, count in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(41).wrapping_add(5));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true);
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        let ctx = MontgomeryContext::new(&modulus).expect("odd modulus > 1");
        // Bases below, at and above the modulus; exponents that are zero, a single bit
        // (one nonzero window, at either end of the chain) and of unequal lengths.
        let bases: Vec<BigUint> = (0..count)
            .map(|i| match i % 4 {
                0 => random_biguint(&mut rng, mod_bits),
                1 => &modulus + random_biguint(&mut rng, mod_bits + 7),
                2 => modulus.clone(),
                _ => &modulus - BigUint::one(),
            })
            .collect();
        let exponents: Vec<BigUint> = (0..count)
            .map(|i| match (i + seed as usize) % 5 {
                0 => BigUint::zero(),
                1 => BigUint::one() << (seed % 131),
                2 => BigUint::one(),
                3 => random_biguint(&mut rng, 1 + seed % 40),
                _ => random_biguint(&mut rng, 300),
            })
            .collect();
        let terms: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exponents).collect();
        let product = terms
            .iter()
            .fold(BigUint::one() % &modulus, |acc, (b, e)| (acc * ctx.modpow(b, e)) % &modulus);
        assert_eq!(ctx.multi_exp(&terms), product, "bases={bases:?} exps={exponents:?} mod={modulus}");
        assert_eq!(ctx.multi_exp(&[]), BigUint::one() % &modulus);
    }

    #[test]
    fn batch_inverse_matches_per_element_inverse(seed in 0u64..60, count in 0usize..12) {
        use sectopk_crypto::bigint::random_invertible;
        use sectopk_crypto::paillier::Ciphertext;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(19).wrapping_add(23));
        let (pk, _sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let n2 = pk.n_squared();
        let mut values: Vec<Ciphertext> =
            (0..count).map(|_| Ciphertext::from_biguint(random_invertible(&mut rng, n2))).collect();
        let refs: Vec<&Ciphertext> = values.iter().collect();
        let expected: Vec<BigUint> =
            values.iter().map(|v| v.as_biguint().modinv_euclid(n2).unwrap()).collect();
        let negated: Vec<BigUint> =
            pk.negate_many(&refs).iter().map(|c| c.as_biguint().clone()).collect();
        assert_eq!(negated, expected);
        // One multiple of N anywhere fails the batch, with the message it always had.
        if count > 0 {
            values[seed as usize % count] = Ciphertext::from_biguint(pk.n() * BigUint::from(seed + 2));
            let refs: Vec<&Ciphertext> = values.iter().collect();
            let panic = std::panic::catch_unwind(|| pk.negate_many(&refs)).unwrap_err();
            let message = panic.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
            assert!(message.contains("ciphertexts are invertible modulo N²"), "{message}");
        }
    }

    #[test]
    fn products_and_inverses_match_the_division_paths_at_three_widths(seed in 0u64..200, mod_bits in 2u64..1100, count in 0usize..6) {
        // mul_mod against (a·b) % n and inverse_many against per-element Euclid, at the
        // exact kernel width and the next two: operands at and above n, 1, n − 1 and a
        // duplicate.  Up to 1100 bits, moduli fall on every rung up to 18 limbs and on
        // the rounded-up widths 5, 7 and 17.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(89).wrapping_add(31));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true);
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        let minus_one = &modulus - BigUint::one();
        let mut values = vec![BigUint::one(), minus_one.clone(), &modulus + BigUint::from(seed + 1)];
        values.extend((0..count).map(|_| random_biguint(&mut rng, mod_bits + 3)));
        values.push(values[values.len() - 1].clone());
        let refs: Vec<&BigUint> = values.iter().collect();
        let euclid: Option<Vec<BigUint>> = values.iter().map(|v| v.modinv_euclid(&modulus)).collect();
        for ctx in contexts_at_three_widths(&modulus) {
            for a in &values {
                for b in [&minus_one, &values[values.len() - 1], &modulus] {
                    assert_eq!(ctx.mul_mod(a, b), a * b % &modulus, "a={a} b={b} mod={modulus}");
                }
            }
            assert_eq!(ctx.inverse_many(&refs), euclid, "mod={modulus}");
        }
    }

    #[test]
    fn odd_modulus_mod_inverse_matches_euclid(seed in 0u64..300, mod_bits in 2u64..700, a_bits in 1u64..800) {
        use num_integer::Integer;
        use sectopk_crypto::bigint::mod_inverse;
        use sectopk_crypto::CryptoError;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(43).wrapping_add(9));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true);
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        // Mostly coprime draws, plus a shared small factor, zero and multiples of n.
        let a = random_biguint(&mut rng, a_bits);
        let shared = modulus.gcd(&BigUint::from(3u32 * 5 * 7 * 11 * 13)) * &a;
        for candidate in [a, shared, BigUint::zero(), modulus.clone(), &modulus * BigUint::from(seed + 2)] {
            let expected = candidate.modinv_euclid(&modulus).ok_or(CryptoError::NotInvertible);
            assert_eq!(mod_inverse(&candidate, &modulus), expected, "a={candidate} mod={modulus}");
            assert_eq!(expected.is_ok(), candidate.gcd(&modulus).is_one());
        }
    }

    #[test]
    fn coprimality_by_binary_gcd_matches_euclid(seed in 0u64..400, mod_bits in 2u64..330, a_bits in 1u64..400, force_even in 0u8..2) {
        use num_integer::Integer;
        use sectopk_crypto::bigint::{is_coprime, random_invertible};
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(41).wrapping_add(5));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, force_even == 0);
        if modulus.is_zero() || modulus.is_one() {
            modulus = BigUint::from(if force_even == 0 { 3u32 } else { 2 });
        }
        // Random operands are mostly coprime; multiples of one of the modulus's own
        // factors, limb-aligned powers of two and the edges make the other verdict.
        let a = random_biguint(&mut rng, a_bits);
        let shared = modulus.gcd(&BigUint::from(3u32 * 5 * 7 * 11 * 13)) * &a;
        let candidates = [
            BigUint::zero(),
            BigUint::one(),
            modulus.clone(),
            &modulus - BigUint::one(),
            &modulus * BigUint::from(seed + 2),
            &a << 128u32,
            shared,
            a,
        ];
        for candidate in &candidates {
            assert_eq!(
                is_coprime(candidate, &modulus),
                candidate.gcd(&modulus).is_one(),
                "a={candidate} mod={modulus}"
            );
        }
        // Same verdicts, so the same draws: the sampler consumes the RNG as the Euclid
        // loop it replaced did.
        let mut reference_rng = rng.clone();
        let reference = loop {
            let candidate = reference_rng.gen_biguint_below(&modulus);
            if !candidate.is_zero() && candidate.gcd(&modulus).is_one() {
                break candidate;
            }
        };
        assert_eq!(random_invertible(&mut rng, &modulus), reference);
        assert_eq!(rng.gen_biguint(64), reference_rng.gen_biguint(64));
    }

    #[test]
    fn results_are_byte_equal_at_the_exact_width_and_the_next_two(seed in 0u64..300, mod_bits in 2u64..1100, count in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(61).wrapping_add(17));
        let mut modulus = random_biguint(&mut rng, mod_bits);
        modulus.set_bit(0, true);
        if modulus.is_one() {
            modulus = BigUint::from(3u32);
        }
        let base = random_biguint(&mut rng, mod_bits + 5);
        let exponent = random_biguint(&mut rng, 1 + seed % 200);
        let bases: Vec<BigUint> = (0..count).map(|_| random_biguint(&mut rng, mod_bits)).collect();
        let exponents: Vec<BigUint> = (0..count).map(|i| random_biguint(&mut rng, 40 * i as u64)).collect();
        let terms: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exponents).collect();
        let results: Vec<[Vec<u8>; 3]> = contexts_at_three_widths(&modulus)
            .iter()
            .map(|ctx| {
                let table = ctx.precompute_fixed_base(&base, 96);
                [
                    ctx.modpow(&base, &exponent).to_bytes_be(),
                    ctx.multi_exp(&terms).to_bytes_be(),
                    ctx.fixed_base_modpow(&table, &exponent).to_bytes_be(),
                ]
            })
            .collect();
        assert_eq!(results[0], results[1], "mod={modulus}");
        assert_eq!(results[0], results[2], "mod={modulus}");
        assert_eq!(results[0][0], base.modpow_naive(&exponent, &modulus).to_bytes_be());
    }

    #[test]
    fn paillier_pooled_nonce_matches_naive_exponentiation(seed in 0u64..12) {
        // The amortized nonce H^a (fixed-base table over H = h^N mod N²) against the
        // from-scratch h^{N·a}, including the exponent edges 0, 1 and n−1.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(77));
        let (pk, _sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let h = BigUint::from(sectopk_crypto::paillier::NONCE_BASE_H);
        let n2 = pk.n() * pk.n();
        let exponents = [
            BigUint::zero(),
            BigUint::one(),
            pk.n() - BigUint::one(),
            sectopk_crypto::bigint::random_below(&mut rng, pk.n()),
        ];
        for a in &exponents {
            let naive = h.modpow_naive(&(pk.n() * a), &n2);
            assert_eq!(pk.nonce_from_exponent(a), naive, "a = {a}");
        }
    }
}

#[test]
fn paillier_and_dj_round_trips_at_three_key_sizes() {
    // 128-, 256- and 512-bit N put N², N³ and p² on widths {4, 6, 2}, {8, 12, 4} and
    // {16, 24, 8}: every kernel a 2048-bit-or-smaller key touches below 32 limbs.
    let mut rng = StdRng::seed_from_u64(512);
    for bits in [128, 256, 512] {
        let (pk, sk) = generate_keypair(bits, &mut rng).unwrap();
        let (dj_pk, dj_sk) = (DjPublicKey::from_paillier(&pk), DjSecretKey::from_paillier(&sk));
        let plains =
            [BigUint::zero(), BigUint::one(), pk.sentinel_z(), random_biguint(&mut rng, 60)];
        for m in &plains {
            let c = pk.encrypt(m, &mut rng).unwrap();
            assert_eq!(&sk.decrypt(&c).unwrap(), m, "{bits}-bit N");
            assert_eq!(sk.decrypt(&c).unwrap(), sk.decrypt_via_lambda(&c).unwrap());
            let layered = dj_pk.encrypt(c.as_biguint(), &mut rng).unwrap();
            assert_eq!(&dj_sk.decrypt(&layered).unwrap(), c.as_biguint(), "{bits}-bit N");
        }
        let top = dj_pk.n_s() - BigUint::one();
        let c = dj_pk.encrypt(&top, &mut rng).unwrap();
        assert_eq!(dj_sk.decrypt(&c).unwrap(), top);
    }
}

#[test]
fn modpow_even_modulus_edge_cases() {
    // The even-modulus fallback, exercised explicitly (Montgomery cannot serve these).
    let cases: [(u64, u64, u64); 6] =
        [(3, 5, 16), (2, 10, 4), (7, 0, 12), (0, 3, 8), (15, 3, 16), (123_456, 789, 1_000_000)];
    for (b, e, m) in cases {
        let base = BigUint::from(b);
        let exponent = BigUint::from(e);
        let modulus = BigUint::from(m);
        assert_eq!(
            base.modpow(&exponent, &modulus),
            base.modpow_naive(&exponent, &modulus),
            "{b}^{e} mod {m}"
        );
        assert_eq!(
            base.modpow(&exponent, &modulus),
            BigUint::from(mod_pow_u64(b, e, m)),
            "{b}^{e} mod {m} against u64 reference"
        );
    }
}

/// Plain u64 modular exponentiation reference.
fn mod_pow_u64(base: u64, mut exp: u64, modulus: u64) -> u64 {
    if modulus == 1 {
        return 0;
    }
    let mut acc: u128 = 1;
    let m = modulus as u128;
    let mut b = base as u128 % m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    acc as u64
}
