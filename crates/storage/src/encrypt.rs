//! Database encryption — the `Enc(R)` procedure of Algorithm 2.
//!
//! For each attribute the relation is sorted by local score; every item
//! `I = ⟨o, x⟩` becomes `E(I) = ⟨EHL(o), Enc(x)⟩`; finally the `M` encrypted lists are
//! permuted with the data owner's PRP `P_K` so that their storage position reveals
//! nothing about which attribute they rank.
//!
//! `EHL(o)` is one block `Enc(Σ_i HMAC(κ_i, o) mod N)` ([`EhlPlus`], DESIGN.md §10).  So
//! an item is two Paillier ciphertexts, whatever `s` is; `s` sets how many PRF images
//! the block sums.
//!
//! Encryption of different items is embarrassingly parallel (the paper uses 64 threads
//! in §11.1).  Each list is one batch ([`encrypt_items`]): its PRF images are computed
//! on the machine's cores, its randomness is drawn serially from the caller's RNG, in
//! the order a loop of `encrypt` calls over each item's image sum then its score
//! draws it, and its exponentiations run on the machine's cores — so the ciphertexts
//! depend on the RNG alone, not on the worker count.

use rand::{CryptoRng, RngCore};

use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::par::{cores, par_map};
use sectopk_crypto::prp::KeyedPrp;
use sectopk_crypto::Result;
use sectopk_ehl::{EhlEncoder, EhlPlus};

use crate::encrypted::{EncryptedItem, EncryptedList, EncryptedRelation};
use crate::relation::Relation;

/// Statistics about one database-encryption run (drives Fig. 7 / Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncryptionStats {
    /// Number of objects encrypted.
    pub num_objects: usize,
    /// Number of attributes (lists) encrypted.
    pub num_attributes: usize,
    /// Total number of Paillier encryptions performed.
    pub paillier_encryptions: usize,
    /// Serialized size of the encrypted relation in bytes.
    pub encrypted_bytes: usize,
}

/// Encrypt a relation with the data owner's keys: each sorted list is one
/// [`encrypt_items`] batch, so memory is bounded by one list.
pub fn encrypt_relation<R: RngCore + CryptoRng>(
    relation: &Relation,
    keys: &MasterKeys,
    rng: &mut R,
) -> Result<(EncryptedRelation, EncryptionStats)> {
    let sorted = relation.sorted_lists();
    let mut encrypted_lists = Vec::with_capacity(sorted.num_lists());
    for i in 0..sorted.num_lists() {
        let items = sorted.list(i).iter().map(|item| (item.object.to_bytes(), item.score));
        encrypted_lists.push(EncryptedList::new(encrypt_items(items, keys, rng)?));
    }
    Ok(assemble(relation, keys, encrypted_lists))
}

/// `E(I) = ⟨EHL(o), Enc(x)⟩` of every `(o, x)`, in order: one [`encrypt_many`] over each
/// item's [`EhlEncoder::image_sum`] then its score, so byte for byte the items a loop
/// of [`EhlEncoder::encode`] and `encrypt` calls makes on the same RNG.
/// The images are HMAC sums and draw nothing, so they are computed in parallel before
/// any randomness is drawn.
///
/// [`encrypt_many`]: sectopk_crypto::paillier::PaillierPublicKey::encrypt_many
pub fn encrypt_items<R: RngCore + CryptoRng>(
    items: impl IntoIterator<Item = ([u8; 8], u64)>,
    keys: &MasterKeys,
    rng: &mut R,
) -> Result<Vec<EncryptedItem>> {
    let encoder = EhlEncoder::new(&keys.ehl_keys);
    let pk = &keys.paillier_public;
    let (objects, scores): (Vec<[u8; 8]>, Vec<u64>) = items.into_iter().unzip();
    let n = pk.n().clone();
    let images = par_map(cores(), objects, move |object| encoder.image_sum(object, &n));
    let plaintexts =
        images.into_iter().zip(scores).flat_map(|(image, score)| [image, score.into()]).collect();
    let mut ciphertexts = pk.encrypt_many(plaintexts, rng)?.into_iter();
    Ok(std::iter::from_fn(|| {
        let ehl = EhlPlus::new(ciphertexts.next()?);
        Some(EncryptedItem { ehl, score: ciphertexts.next()? })
    })
    .collect())
}

/// Permute the encrypted lists with the owner's PRP and collect statistics.
fn assemble(
    relation: &Relation,
    keys: &MasterKeys,
    encrypted_lists: Vec<EncryptedList>,
) -> (EncryptedRelation, EncryptionStats) {
    let m = encrypted_lists.len();
    let prp = KeyedPrp::new(&keys.prp_key, m);
    let mut permuted: Vec<Option<EncryptedList>> = vec![None; m];
    for (i, list) in encrypted_lists.into_iter().enumerate() {
        permuted[prp.apply(i)] = Some(list);
    }
    let lists: Vec<EncryptedList> =
        permuted.into_iter().map(|l| l.expect("PRP is a bijection")).collect();

    // Every stored ciphertext is one Paillier encryption: an item's EHL+ block and its
    // score.
    let paillier_encryptions = 2 * lists.iter().map(EncryptedList::len).sum::<usize>();
    let er = EncryptedRelation::new(lists, relation.len());
    let stats = EncryptionStats {
        num_objects: relation.len(),
        num_attributes: m,
        paillier_encryptions,
        encrypted_bytes: er.byte_len(),
    };
    (er, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{ObjectId, Row};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;

    fn small_relation() -> Relation {
        Relation::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                Row { id: ObjectId(1), values: vec![10, 3, 2] },
                Row { id: ObjectId(2), values: vec![8, 8, 0] },
                Row { id: ObjectId(3), values: vec![5, 7, 6] },
                Row { id: ObjectId(4), values: vec![3, 2, 8] },
                Row { id: ObjectId(5), values: vec![1, 1, 1] },
            ],
        )
    }

    fn master_keys(rng: &mut StdRng) -> MasterKeys {
        MasterKeys::generate(MIN_MODULUS_BITS, 3, rng).unwrap()
    }

    #[test]
    fn encryption_has_right_shape() {
        let mut rng = StdRng::seed_from_u64(2024);
        let keys = master_keys(&mut rng);
        let relation = small_relation();
        let (er, stats) = encrypt_relation(&relation, &keys, &mut rng).unwrap();
        assert_eq!(er.num_attributes(), 3);
        assert_eq!(er.num_objects(), 5);
        assert_eq!(er.setup_leakage(), (5, 3));
        assert_eq!(stats.num_objects, 5);
        // Two ciphertexts per item — the EHL+ block and the score — at `s` = 3.
        assert_eq!(stats.paillier_encryptions, 5 * 3 * 2);
        assert_eq!(stats.encrypted_bytes, er.byte_len());
        for list in er.lists() {
            assert_eq!(list.len(), 5);
        }
    }

    #[test]
    fn scores_decrypt_to_sorted_plaintext_lists() {
        let mut rng = StdRng::seed_from_u64(7);
        let keys = master_keys(&mut rng);
        let relation = small_relation();
        let (er, _) = encrypt_relation(&relation, &keys, &mut rng).unwrap();

        let sorted = relation.sorted_lists();
        let prp = KeyedPrp::new(&keys.prp_key, 3);
        for logical in 0..3 {
            let stored = prp.apply(logical);
            let encrypted = er.list(stored);
            for (depth, item) in sorted.list(logical).iter().enumerate() {
                let score = keys
                    .paillier_secret
                    .decrypt_u64(&encrypted.item(depth).unwrap().score)
                    .unwrap();
                assert_eq!(score, item.score, "list {logical}, depth {depth}");
            }
        }
    }

    #[test]
    fn ehl_encodings_identify_objects() {
        let mut rng = StdRng::seed_from_u64(99);
        let keys = master_keys(&mut rng);
        let relation = small_relation();
        let (er, _) = encrypt_relation(&relation, &keys, &mut rng).unwrap();

        let encoder = EhlEncoder::new(&keys.ehl_keys);
        let pk = &keys.paillier_public;
        let sk = &keys.paillier_secret;
        let sorted = relation.sorted_lists();
        let prp = KeyedPrp::new(&keys.prp_key, 3);

        // The stored EHL at (list 0, depth 0) must match a freshly encoded copy of the
        // same object and must not match a different object.
        let logical = 0usize;
        let stored = prp.apply(logical);
        let expected_object = sorted.item(logical, 0).unwrap().object;
        let mut fresh = |id: ObjectId| encoder.encode(&id.to_bytes(), pk, &mut rng).unwrap();
        let (fresh_same, fresh_other) = (fresh(expected_object), fresh(ObjectId(999)));
        let stored_ehl = &er.list(stored).item(0).unwrap().ehl;
        assert!(sk.is_zero(&stored_ehl.eq_test(&fresh_same, pk, &mut rng)).unwrap());
        assert!(!sk.is_zero(&stored_ehl.eq_test(&fresh_other, pk, &mut rng)).unwrap());
    }

    fn one_attribute_relation() -> Relation {
        Relation::new(
            vec!["only".into()],
            vec![
                Row { id: ObjectId(1), values: vec![4] },
                Row { id: ObjectId(2), values: vec![9] },
            ],
        )
    }

    /// `Enc(R)` one object at a time: [`EhlEncoder::encode`] of the object then
    /// `encrypt_u64` of the score, item by item, list by list.
    fn per_object_encryption(
        relation: &Relation,
        keys: &MasterKeys,
        rng: &mut StdRng,
    ) -> Vec<EncryptedList> {
        let encoder = EhlEncoder::new(&keys.ehl_keys);
        let pk = &keys.paillier_public;
        let sorted = relation.sorted_lists();
        (0..sorted.num_lists())
            .map(|i| {
                let items = sorted.list(i).iter().map(|item| EncryptedItem {
                    ehl: encoder.encode(&item.object.to_bytes(), pk, rng).unwrap(),
                    score: pk.encrypt_u64(item.score, rng).unwrap(),
                });
                EncryptedList::new(items.collect())
            })
            .collect()
    }

    #[test]
    fn parallel_and_serial_encryption_agree_on_structure() {
        // The batches draw what the per-object loop draws, in its order, and compute in
        // parallel: equal RNGs give equal bytes and leave the RNGs level.
        for relation in [small_relation(), one_attribute_relation()] {
            let mut rng = StdRng::seed_from_u64(31);
            let keys = master_keys(&mut rng);
            let mut reference_rng = rng.clone();
            let (er, stats) = encrypt_relation(&relation, &keys, &mut rng).unwrap();
            let reference = per_object_encryption(&relation, &keys, &mut reference_rng);
            assert_eq!((er, stats), assemble(&relation, &keys, reference));
            assert_eq!(rng.next_u64(), reference_rng.next_u64());
        }
    }

    /// SHA-256 over every ciphertext of `er` — list by list, item by item, EHL block
    /// then score, each length-prefixed — in hex.
    fn ciphertext_digest(er: &EncryptedRelation) -> String {
        let mut hasher = sectopk_crypto::sha256::Sha256::new();
        for item in er.lists().iter().flat_map(|list| list.items()) {
            for c in [item.ehl.block(), &item.score] {
                let bytes = c.to_bytes_be();
                hasher.update(&(bytes.len() as u64).to_le_bytes());
                hasher.update(&bytes);
            }
        }
        hasher.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn parallel_encryption_ciphertexts_are_pinned() {
        // The digest of the one-object-at-a-time loop on this seed: however many cores
        // compute the batches, no byte moves.  Re-recorded when the owner's nonces became
        // `H^a` off the key's comb instead of `r^N`, and when each EHL+ came to be stored
        // as its one folded block.
        let mut rng = StdRng::seed_from_u64(4242);
        let keys = master_keys(&mut rng);
        let (er, _) = encrypt_relation(&small_relation(), &keys, &mut rng).unwrap();
        assert_eq!(
            ciphertext_digest(&er),
            "af61e604b6bdc46a2c083e4a870c00d1f457ea46af34a24660784126ffa60482"
        );
    }

    #[test]
    fn two_encryptions_of_same_relation_are_different_ciphertexts() {
        // Probabilistic encryption: Theorem 6.1's indistinguishability needs fresh
        // randomness every time.
        let mut rng = StdRng::seed_from_u64(55);
        let keys = master_keys(&mut rng);
        let relation = small_relation();
        let (a, _) = encrypt_relation(&relation, &keys, &mut rng).unwrap();
        let (b, _) = encrypt_relation(&relation, &keys, &mut rng).unwrap();
        assert_ne!(a, b);
    }
}
