//! Property tests for the ciphertext wire format: a `Ciphertext` serializes as a big-endian
//! byte string and must round-trip losslessly both through the value tree (the transport
//! layer's binary codec path) and through JSON (where bytes render as hex strings).

use num_bigint::BigUint;
use proptest::proptest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use sectopk_crypto::paillier::{generate_keypair, Ciphertext, MIN_MODULUS_BITS};

proptest! {
    #[test]
    fn ciphertext_value_round_trip(seed in 0u64..1_000, m in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, _sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let c = pk.encrypt_u64(m % 1_000_000, &mut rng).unwrap();

        // Value-tree round trip (the binary wire codec path).
        let back = Ciphertext::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);

        // The wire form is the big-endian byte string, measured by `byte_len`.
        let bytes = c.to_bytes_be();
        assert_eq!(bytes.len(), c.byte_len());
        assert_eq!(Ciphertext::from_bytes_be(&bytes), c);

        // JSON round trip (bytes render as hex strings).
        let json = serde_json::to_string(&c).unwrap();
        let parsed: Ciphertext = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn arbitrary_group_elements_round_trip(limbs in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        // Exercise values of every byte length, not just well-formed encryptions.
        let mut raw = BigUint::from(0u64);
        for l in &limbs {
            raw = (raw << 64) + BigUint::from(*l);
        }
        let c = Ciphertext::from_biguint(raw.clone());
        assert_eq!(Ciphertext::from_bytes_be(&c.to_bytes_be()), c);
        assert_eq!(Ciphertext::from_value(&c.to_value()).unwrap(), c);
    }
}

#[test]
fn deserialize_rejects_wrong_value_kinds() {
    assert!(Ciphertext::from_value(&serde::Value::U64(5)).is_err());
    assert!(Ciphertext::from_value(&serde::Value::Seq(Vec::new())).is_err());
    assert!(Ciphertext::from_value(&serde::Value::Str("not hex".into())).is_err());
}
