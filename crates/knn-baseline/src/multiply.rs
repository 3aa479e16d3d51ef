//! The secure multiplication sub-protocol (SM) of the SkNN baseline: from `Enc(a)` and
//! `Enc(b)` held by S1, compute `Enc(a · b)` with one round trip to S2.
//!
//! S1 additively blinds both operands (`Enc(a + r_a)`, `Enc(b + r_b)`), S2 decrypts the
//! blinded values, multiplies them and returns `Enc((a + r_a)(b + r_b))`; S1 removes the
//! cross terms homomorphically: `Enc(ab) = Enc((a+r_a)(b+r_b)) · Enc(a)^{-r_b} ·
//! Enc(b)^{-r_a} · Enc(-r_a r_b)`.  This is exactly the SM protocol the baseline paper
//! builds its distance computation from, and it is what makes the baseline cost
//! O(n·m) round trips per query.

use num_bigint::BigUint;

use sectopk_crypto::bigint::random_below;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_protocols::{Result, TwoClouds};

/// Compute `Enc(a · b)` from `Enc(a)` and `Enc(b)` (both under the shared public key),
/// with S2's help.  S2 sees only uniformly blinded values.
pub fn secure_multiply(
    clouds: &mut TwoClouds,
    a: &Ciphertext,
    b: &Ciphertext,
) -> Result<Ciphertext> {
    let products = secure_multiply_batch(clouds, &[(a.clone(), b.clone())])?;
    Ok(products.into_iter().next().expect("one pair in, one product out"))
}

/// Batched variant: one round trip for any number of pairs.
pub fn secure_multiply_batch(
    clouds: &mut TwoClouds,
    pairs: &[(Ciphertext, Ciphertext)],
) -> Result<Vec<Ciphertext>> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let pk = clouds.pk().clone();

    // ---- S1: blind both operands of every pair. --------------------------------------
    let mut blinded = Vec::with_capacity(pairs.len());
    let mut masks = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        let r_a = random_below(&mut clouds.s1.rng, pk.n());
        let r_b = random_below(&mut clouds.s1.rng, pk.n());
        blinded.push((pk.add_plain(a, &r_a), pk.add_plain(b, &r_b)));
        masks.push((r_a, r_b));
    }

    // ---- transport: S2 decrypts, multiplies, re-encrypts (one metered round trip). ----
    let replies = clouds.mul_blinded(blinded)?;

    // ---- S1: strip the cross terms. -----------------------------------------------------
    let mut out = Vec::with_capacity(pairs.len());
    for (((a, b), (r_a, r_b)), reply) in pairs.iter().zip(masks.iter()).zip(replies.iter()) {
        // Enc(ab) = Enc((a+ra)(b+rb)) - ra·b - rb·a - ra·rb
        let neg = |x: &BigUint| (pk.n() - (x % pk.n())) % pk.n();
        let minus_ra_b = pk.mul_plain(b, &neg(r_a));
        let minus_rb_a = pk.mul_plain(a, &neg(r_b));
        let ra_rb = (r_a * r_b) % pk.n();
        let mut c = pk.add(reply, &minus_ra_b);
        c = pk.add(&c, &minus_rb_a);
        c = pk.add_plain(&c, &neg(&ra_rb));
        out.push(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::bigint::symmetric_i64;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;

    fn setup() -> (MasterKeys, TwoClouds, StdRng) {
        let mut rng = StdRng::seed_from_u64(314);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let clouds = TwoClouds::new(&keys, 3).unwrap();
        (keys, clouds, rng)
    }

    #[test]
    fn multiplies_small_values() {
        let (keys, mut clouds, mut rng) = setup();
        let pk = &keys.paillier_public;
        for (a, b) in [(0u64, 5u64), (3, 4), (1234, 5678), (1, 1), (0, 0)] {
            let ca = pk.encrypt_u64(a, &mut rng).unwrap();
            let cb = pk.encrypt_u64(b, &mut rng).unwrap();
            let product = secure_multiply(&mut clouds, &ca, &cb).unwrap();
            assert_eq!(keys.paillier_secret.decrypt_u64(&product).unwrap(), a * b, "{a}·{b}");
        }
    }

    #[test]
    fn batch_is_one_round_trip() {
        let (keys, mut clouds, mut rng) = setup();
        let pk = &keys.paillier_public;
        let pairs: Vec<(Ciphertext, Ciphertext)> = (1u64..=5)
            .map(|i| {
                (pk.encrypt_u64(i, &mut rng).unwrap(), pk.encrypt_u64(i + 10, &mut rng).unwrap())
            })
            .collect();
        let products = secure_multiply_batch(&mut clouds, &pairs).unwrap();
        for (i, p) in products.iter().enumerate() {
            let i = i as u64 + 1;
            assert_eq!(keys.paillier_secret.decrypt_u64(p).unwrap(), i * (i + 10));
        }
        assert_eq!(clouds.channel().rounds, 1);
    }

    #[test]
    fn works_modulo_n_for_large_operands() {
        let (keys, mut clouds, mut rng) = setup();
        let pk = &keys.paillier_public;
        let a = pk.n() - BigUint::from(3u32); // ≡ −3
        let ca = pk.encrypt(&a, &mut rng).unwrap();
        let cb = pk.encrypt_u64(7, &mut rng).unwrap();
        let product = secure_multiply(&mut clouds, &ca, &cb).unwrap();
        // (−3) · 7 = −21 mod N
        let plain = keys.paillier_secret.decrypt(&product).unwrap();
        assert_eq!(symmetric_i64(&plain, pk.n()), Some(-21));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (_keys, mut clouds, _rng) = setup();
        assert!(secure_multiply_batch(&mut clouds, &[]).unwrap().is_empty());
        assert_eq!(clouds.channel(), sectopk_protocols::ChannelMetrics::default());
    }
}
