//! Property-based tests on the cryptographic substrate as used *across* crates: Paillier
//! homomorphic identities, the EHL equality semantics, and the interplay of blinding
//! (Algorithm 8) with the homomorphic operations.  A single small key pair is shared
//! across all cases so the suite stays fast.

use std::sync::OnceLock;

use num_bigint::BigUint;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_crypto::bigint::{from_i64, random_below, symmetric_i64};
use sectopk_crypto::paillier::{generate_keypair, PaillierPublicKey, PaillierSecretKey};
use sectopk_crypto::prf::PrfKey;
use sectopk_ehl::EhlEncoder;

struct SharedKeys {
    pk: PaillierPublicKey,
    sk: PaillierSecretKey,
    encoder: EhlEncoder,
}

fn keys() -> &'static SharedKeys {
    static KEYS: OnceLock<SharedKeys> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let (pk, sk) = generate_keypair(128, &mut rng).unwrap();
        let prf_keys: Vec<PrfKey> = (0..4u8).map(|i| PrfKey([i + 1; 32])).collect();
        SharedKeys { pk, sk, encoder: EhlEncoder::new(&prf_keys) }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paillier_addition_is_homomorphic(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = k.pk.encrypt_u64(a, &mut rng).unwrap();
        let cb = k.pk.encrypt_u64(b, &mut rng).unwrap();
        let sum = k.pk.add(&ca, &cb);
        let expected = (BigUint::from(a) + BigUint::from(b)) % k.pk.n();
        prop_assert_eq!(k.sk.decrypt(&sum).unwrap(), expected);
    }

    #[test]
    fn paillier_scalar_multiplication_is_homomorphic(a in any::<u32>(), w in 0u32..1000, seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = k.pk.encrypt_u64(a as u64, &mut rng).unwrap();
        let scaled = k.pk.mul_plain(&ca, &BigUint::from(w));
        prop_assert_eq!(
            k.sk.decrypt(&scaled).unwrap(),
            (BigUint::from(a) * BigUint::from(w)) % k.pk.n()
        );
    }

    #[test]
    fn paillier_signed_subtraction(a in -100_000i64..100_000, b in -100_000i64..100_000, seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = k.pk.encrypt_i64(a, &mut rng).unwrap();
        let cb = k.pk.encrypt_i64(b, &mut rng).unwrap();
        let diff = k.pk.sub(&ca, &cb);
        prop_assert_eq!(symmetric_i64(&k.sk.decrypt(&diff).unwrap(), k.pk.n()), Some(a - b));
    }

    #[test]
    fn rerandomization_never_changes_the_plaintext(v in any::<u64>(), seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = k.pk.encrypt_u64(v, &mut rng).unwrap();
        let nonce = k.pk.nonce_from_exponent(&random_below(&mut rng, k.pk.n()));
        let r = k.pk.rerandomize_with_nonce(&c, &nonce);
        prop_assert_ne!(&r, &c);
        prop_assert_eq!(k.sk.decrypt_u64(&r).unwrap(), v);
    }

    #[test]
    fn ehl_equality_agrees_with_object_equality(a in any::<u64>(), b in any::<u64>(), seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let ea = k.encoder.encode(&a.to_be_bytes(), &k.pk, &mut rng).unwrap();
        let eb = k.encoder.encode(&b.to_be_bytes(), &k.pk, &mut rng).unwrap();
        let test = ea.eq_test(&eb, &k.pk, &mut rng);
        prop_assert_eq!(k.sk.is_zero(&test).unwrap(), a == b);
    }

    #[test]
    fn ehl_blinding_round_trips(object in any::<u64>(), seed in any::<u64>()) {
        let k = keys();
        let mut rng = StdRng::seed_from_u64(seed);
        let e = k.encoder.encode(&object.to_be_bytes(), &k.pk, &mut rng).unwrap();
        let alpha = sectopk_crypto::bigint::random_below(&mut rng, k.pk.n());
        let restored = e.blind(&alpha, &k.pk).unblind(&alpha, &k.pk);
        let fresh = k.encoder.encode(&object.to_be_bytes(), &k.pk, &mut rng).unwrap();
        prop_assert!(k.sk.is_zero(&restored.eq_test(&fresh, &k.pk, &mut rng)).unwrap());
    }

    #[test]
    fn signed_representation_round_trips(v in any::<i64>()) {
        let k = keys();
        let n = k.pk.n();
        prop_assert_eq!(symmetric_i64(&from_i64(v, n), n), Some(v));
    }
}
