//! Owner/client-side interpretation of encrypted query results.
//!
//! SecQuery returns encrypted items `(EHL(o), Enc(W), Enc(B))`.  The clouds never learn
//! which objects these are; the party holding the secret keys (the data owner, or a
//! client that the owner authorised for decryption) identifies them and decrypts the
//! bound ciphertexts directly.  This mirrors the paper's deployment, where the client
//! takes the encrypted answers back to the key holder (or fetches the matching records
//! via ORAM, §4).
//!
//! Identification is **decrypt-and-lookup**: an `EHL+(o)` encrypts the sum of the PRF
//! images, `Σ_i HMAC(κ_i, o) mod N`, and the key holder owns both the decryption key and
//! the PRF keys.  So it decrypts an answer's block and looks the image up in a map from
//! every candidate id's image ([`EhlEncoder::image_sum`], `n·s` HMACs) to the id — `k`
//! decryptions per query, where re-encrypting every candidate and running `⊖` against
//! each (what the clouds, who hold neither key, must do) would cost `n` encryptions plus
//! up to `n` `⊖`s per item.  Both decide "the images agree", which the clouds' `⊖` on
//! stored items decides too; two distinct candidates share an image with probability
//! `≈ 1/N`.

use num_bigint::BigUint;
use rand::{CryptoRng, RngCore};
use std::cmp::Ordering;
use std::collections::HashMap;

use sectopk_crypto::bigint::{symmetric_i64, symmetric_sign};
use sectopk_crypto::keys::MasterKeys;
use sectopk_ehl::EhlEncoder;
use sectopk_protocols::ScoredItem;
use sectopk_storage::ObjectId;

use crate::error::Result;

/// A decrypted query answer: the object and the worst/best bounds the protocol reported
/// for it at halting time (signed: neutralised placeholder entries decode to −1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedResult {
    /// The identified object, or `None` for a neutralised placeholder entry (these can
    /// only reach the top-k when the relation has fewer than `k` distinct objects).
    pub object: Option<ObjectId>,
    /// Lower bound (worst score) at halting time.
    pub worst: i64,
    /// Upper bound (best score) at halting time.
    pub best: i64,
}

/// Identify and decrypt every item of a query result using the data owner's keys.
///
/// `candidates` is the universe of object ids the owner knows about (all row ids of the
/// outsourced relation); an id listed twice resolves like one listed once.  An item whose
/// image matches no candidate — a neutralised placeholder — resolves to `None`.  The
/// computation is owner-side, non-interactive and deterministic: `rng` is unused and
/// kept for the callers' sake.
#[expect(
    clippy::disallowed_methods,
    reason = "owner-side final-result decryption: the key holder opens the bounds of its own top-k \
              answer and decrypts the EHL+ block of those items to look the PRF image sum \
              up among its own object ids, outside the two-cloud boundary the rule protects; S1 \
              and S2 never run this code"
)]
pub fn resolve_results<R: RngCore + CryptoRng>(
    items: &[ScoredItem],
    candidates: &[ObjectId],
    keys: &MasterKeys,
    rng: &mut R,
) -> Result<Vec<ResolvedResult>> {
    let _ = rng;
    let encoder = EhlEncoder::new(&keys.ehl_keys);
    let (pk, sk) = (&keys.paillier_public, &keys.paillier_secret);
    let n = pk.n();

    let mut by_image: HashMap<BigUint, ObjectId> = HashMap::with_capacity(candidates.len());
    for &id in candidates {
        by_image.entry(encoder.image_sum(&id.to_bytes(), n)).or_insert(id);
    }

    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let image = sk.decrypt(item.ehl.block())?;
        let object = by_image.get(&image).copied();
        let worst = saturating_i64(&sk.decrypt(&item.worst)?, n);
        let best = saturating_i64(&sk.decrypt(&item.best)?, n);
        out.push(ResolvedResult { object, worst, best });
    }
    Ok(out)
}

/// Convenience: just the identified object ids, in result order, skipping placeholders.
pub fn resolved_object_ids(results: &[ResolvedResult]) -> Vec<ObjectId> {
    results.iter().filter_map(|r| r.object).collect()
}

/// The `i64` a decrypted bound `x ∈ Z_n` stands for, saturated by its sign outside the
/// `i64` range.
fn saturating_i64(x: &BigUint, n: &BigUint) -> i64 {
    symmetric_i64(x, n).unwrap_or(match symmetric_sign(x, n) {
        Ordering::Less => i64::MIN,
        _ => i64::MAX,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;

    /// The resolver this module replaces, as the clouds would have to do it: encode
    /// every candidate, `⊖` each answer against each encoding, first match wins.
    fn resolve_by_encode_and_eq_test(
        items: &[ScoredItem],
        candidates: &[ObjectId],
        keys: &MasterKeys,
        rng: &mut StdRng,
    ) -> Vec<ResolvedResult> {
        let encoder = EhlEncoder::new(&keys.ehl_keys);
        let (pk, sk) = (&keys.paillier_public, &keys.paillier_secret);
        let encoded: Vec<(ObjectId, sectopk_ehl::EhlPlus)> = candidates
            .iter()
            .map(|&id| (id, encoder.encode(&id.to_bytes(), pk, rng).unwrap()))
            .collect();
        items
            .iter()
            .map(|item| ResolvedResult {
                object: encoded
                    .iter()
                    .find(|(_, cand)| sk.is_zero(&item.ehl.eq_test(cand, pk, rng)).unwrap())
                    .map(|(id, _)| *id),
                worst: saturating_i64(&sk.decrypt(&item.worst).unwrap(), pk.n()),
                best: saturating_i64(&sk.decrypt(&item.best).unwrap(), pk.n()),
            })
            .collect()
    }

    #[test]
    fn resolves_known_objects_and_flags_placeholders() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let encoder = EhlEncoder::new(&keys.ehl_keys);
        let pk = &keys.paillier_public;

        let mut real = |id: u64, score: u64| ScoredItem {
            ehl: encoder.encode(&ObjectId(id).to_bytes(), pk, &mut rng).unwrap(),
            worst: pk.encrypt_u64(score, &mut rng).unwrap(),
            best: pk.encrypt_u64(score + 1, &mut rng).unwrap(),
        };
        let mut items = vec![real(7, 18), real(0, 5), real(7, 3)];
        // A neutralised placeholder as SecDedup leaves it: garbage id, sentinel scores.
        items.push(ScoredItem {
            ehl: encoder.encode(b"garbage-not-an-id", pk, &mut rng).unwrap(),
            worst: pk.encrypt(&pk.sentinel_z(), &mut rng).unwrap(),
            best: pk.encrypt(&pk.sentinel_z(), &mut rng).unwrap(),
        });
        // An item that went through the clouds: re-randomized, blinded and unblinded.
        let alpha = sectopk_crypto::bigint::random_below(&mut rng, pk.n());
        let mut pool = sectopk_crypto::RandomnessPool::new(pk, 2);
        let travelled = items[1].ehl.rerandomize_pooled(&mut pool).blind(&alpha, pk);
        items[1].ehl = travelled.unblind(&alpha, pk);

        // Id 7 is listed twice among the candidates.
        let candidates: Vec<ObjectId> = (0..10).chain([7]).map(ObjectId).collect();
        let resolved = resolve_results(&items, &candidates, &keys, &mut rng).unwrap();
        let expected = ResolvedResult { object: Some(ObjectId(7)), worst: 18, best: 19 };
        assert_eq!(resolved[0], expected);
        assert_eq!(resolved[1].object, Some(ObjectId(0)));
        assert_eq!(resolved[2].object, Some(ObjectId(7)));
        assert_eq!(resolved[3], ResolvedResult { object: None, worst: -1, best: -1 });
        let ids = resolved_object_ids(&resolved);
        assert_eq!(ids, vec![ObjectId(7), ObjectId(0), ObjectId(7)]);
        let reference = resolve_by_encode_and_eq_test(&items, &candidates, &keys, &mut rng);
        assert_eq!(resolved, reference);

        // An id outside the candidate universe is not identified by either resolver.
        let few = [ObjectId(1), ObjectId(2)];
        let unresolved = resolve_results(&items[..1], &few, &keys, &mut rng).unwrap();
        assert_eq!(unresolved[0].object, None);
        let reference = resolve_by_encode_and_eq_test(&items[..1], &few, &keys, &mut rng);
        assert_eq!(unresolved, reference);
    }

    #[test]
    fn out_of_range_bounds_saturate() {
        let n = (BigUint::from(1u32) << 200u32) + BigUint::from(1u32);
        let five = BigUint::from(5u32);
        assert_eq!(saturating_i64(&five, &n), 5);
        assert_eq!(saturating_i64(&(&n - &five), &n), -5);
        let huge = BigUint::from(u128::MAX);
        assert_eq!(saturating_i64(&huge, &n), i64::MAX);
        assert_eq!(saturating_i64(&(&n - &huge), &n), i64::MIN);
    }
}
