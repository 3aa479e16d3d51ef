//! Fast standalone smoke test: stand up the two-cloud context and run the encrypted
//! comparison + selection primitives at tiny parameters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::MIN_MODULUS_BITS;
use sectopk_protocols::TwoClouds;

#[test]
fn two_clouds_compare_and_sum() {
    let mut rng = StdRng::seed_from_u64(0x2C);
    let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let mut clouds = TwoClouds::new(&master, 7).expect("cloud setup");

    let pk = clouds.pk().clone();
    let five = pk.encrypt_u64(5, &mut rng).expect("encrypt 5");
    let nine = pk.encrypt_u64(9, &mut rng).expect("encrypt 9");

    // Secure comparison of encrypted values.
    assert!(clouds.enc_compare(&five, &nine, "smoke").expect("compare"));
    assert!(!clouds.enc_compare(&nine, &five, "smoke").expect("compare"));

    // Homomorphic sum stays local to S1 (no decryption involved).
    let sum = clouds.sum_ciphertexts(&[five, nine]);
    assert_eq!(master.paillier_secret.decrypt_u64(&sum).expect("decrypt"), 14);

    // The comparisons above must have crossed the channel at least once.
    assert!(clouds.channel().rounds > 0);
}
