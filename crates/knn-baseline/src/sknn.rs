//! The SkNN-style query protocol: per-record secure distance computation followed by
//! secure minimum selection.

use serde::{Deserialize, Serialize};

use rand::{CryptoRng, RngCore};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_protocols::{ChannelMetrics, Result, TwoClouds};
use sectopk_storage::Relation;

use crate::multiply::secure_multiply_batch;

/// A relation encrypted for the SkNN baseline: every attribute of every record is a
/// Paillier ciphertext (no sorted lists, no EHL — the baseline scans everything anyway).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct KnnEncryptedDatabase {
    /// `records[i][j]` = `Enc(x_j(o_i))`.
    pub records: Vec<Vec<Ciphertext>>,
}

impl KnnEncryptedDatabase {
    /// Number of records `n`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of attributes `m`.
    pub fn num_attributes(&self) -> usize {
        self.records.first().map(Vec::len).unwrap_or(0)
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.records.iter().map(|r| r.iter().map(Ciphertext::byte_len).sum::<usize>()).sum()
    }
}

/// Encrypt a relation for the SkNN baseline.
pub fn encrypt_for_knn<R: RngCore + CryptoRng>(
    relation: &Relation,
    keys: &MasterKeys,
    rng: &mut R,
) -> Result<KnnEncryptedDatabase> {
    // Row-major, one batch: the draws of a loop of `encrypt_u64` calls.
    let scores = relation.rows().iter().flat_map(|row| &row.values);
    let plaintexts = scores.map(|&v| v.into()).collect();
    let mut ciphertexts = keys.paillier_public.encrypt_many(plaintexts, rng)?.into_iter();
    let records =
        relation.rows().iter().map(|row| ciphertexts.by_ref().take(row.values.len()).collect());
    Ok(KnnEncryptedDatabase { records: records.collect() })
}

/// Outcome of one SkNN query.
#[derive(Clone, Debug)]
pub struct KnnQueryOutcome {
    /// Indices (record positions) of the k records nearest to the query point, nearest
    /// first.  The baseline inherently reveals these positions to S1.
    pub nearest: Vec<usize>,
    /// Communication accrued by this query alone.
    pub channel: ChannelMetrics,
    /// Number of secure multiplications performed (= n·m, the baseline's dominant cost).
    pub secure_multiplications: usize,
    /// Number of secure comparisons performed during the k minimum-selection rounds.
    pub secure_comparisons: usize,
}

/// Run one SkNN query: find the `k` records closest (squared Euclidean distance) to
/// `query_point`, which S1 holds encrypted.
///
/// Following §11.3, a top-k query with scoring function `Σ x_i²` is answered by querying
/// the per-attribute upper bound as the point.
pub fn sknn_query(
    clouds: &mut TwoClouds,
    db: &KnnEncryptedDatabase,
    query_point: &[u64],
    k: usize,
) -> Result<KnnQueryOutcome> {
    assert_eq!(
        query_point.len(),
        db.num_attributes(),
        "query point must have one coordinate per attribute"
    );
    let channel_before = clouds.channel();
    let pk = clouds.pk().clone();
    let n = db.len();
    let m = db.num_attributes();
    let k = k.min(n);

    // Encrypt the query point (done by the querying client in [21]; S1 only ever holds
    // ciphertexts of it).  Nonces come from S1's precomputed pool.
    let enc_query: Vec<Ciphertext> = query_point
        .iter()
        .map(|&q| clouds.s1.pool.encrypt_u64(q))
        .collect::<sectopk_crypto::Result<Vec<_>>>()?;

    // ---- Per-record encrypted squared distance: Σ_j (x_j − q_j)². ----------------------
    // Every squared difference needs one secure multiplication — n·m of them in total,
    // which is exactly the O(n·m) per-query cost the paper criticises.
    let mut distances: Vec<Ciphertext> = Vec::with_capacity(n);
    let mut secure_multiplications = 0usize;
    for record in &db.records {
        let diffs: Vec<Ciphertext> =
            record.iter().zip(enc_query.iter()).map(|(x, q)| pk.sub(x, q)).collect();
        let pairs: Vec<(Ciphertext, Ciphertext)> =
            diffs.iter().map(|d| (d.clone(), d.clone())).collect();
        let squares = secure_multiply_batch(clouds, &pairs)?;
        secure_multiplications += squares.len();
        let mut dist = pk.one_ciphertext();
        for s in &squares {
            dist = pk.add(&dist, s);
        }
        distances.push(dist);
    }
    debug_assert_eq!(secure_multiplications, n * m);

    // ---- k rounds of secure minimum selection. -----------------------------------------
    let mut remaining: Vec<(usize, Ciphertext)> = distances.into_iter().enumerate().collect();
    let mut nearest = Vec::with_capacity(k);
    let mut secure_comparisons = 0usize;
    for _ in 0..k {
        let mut best = 0usize;
        for idx in 1..remaining.len() {
            // Keep `best` if its distance is ≤ the candidate's.
            let keep = clouds.enc_compare(&remaining[best].1, &remaining[idx].1, "sknn_min")?;
            secure_comparisons += 1;
            if !keep {
                best = idx;
            }
        }
        nearest.push(remaining.swap_remove(best).0);
    }

    Ok(KnnQueryOutcome {
        nearest,
        channel: clouds.channel().since(&channel_before),
        secure_multiplications,
        secure_comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_storage::{ObjectId, Row};

    fn setup() -> (MasterKeys, TwoClouds, StdRng) {
        let mut rng = StdRng::seed_from_u64(2718);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let clouds = TwoClouds::new(&keys, 27).unwrap();
        (keys, clouds, rng)
    }

    fn relation() -> Relation {
        Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                Row { id: ObjectId(0), values: vec![1, 1] },
                Row { id: ObjectId(1), values: vec![9, 9] },
                Row { id: ObjectId(2), values: vec![5, 4] },
                Row { id: ObjectId(3), values: vec![8, 7] },
            ],
        )
    }

    #[test]
    fn nearest_records_to_the_upper_bound_are_the_top_scorers() {
        let (keys, mut clouds, mut rng) = setup();
        let db = encrypt_for_knn(&relation(), &keys, &mut rng).unwrap();
        assert_eq!(db.len(), 4);
        assert_eq!(db.num_attributes(), 2);
        // Query the upper bound (10, 10): the nearest records are those with the largest
        // attribute values — record 1 (9,9), then record 3 (8,7).
        let outcome = sknn_query(&mut clouds, &db, &[10, 10], 2).unwrap();
        assert_eq!(outcome.nearest, vec![1, 3]);
        assert_eq!(outcome.secure_multiplications, 8);
        assert_eq!(outcome.secure_comparisons, 3 + 2);
        assert!(outcome.channel.bytes > 0);
    }

    #[test]
    fn knn_encryption_ciphertexts_are_pinned() {
        // Every record's ciphertexts in order, each length-prefixed: the bytes the
        // baseline's set-up hands the clouds for one fixed seed.  Re-recorded when the
        // owner's nonces became `H^a` off the key's comb instead of `r^N`.
        let mut rng = StdRng::seed_from_u64(1011);
        let keys = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let db = encrypt_for_knn(&relation(), &keys, &mut rng).unwrap();
        let mut hasher = sectopk_crypto::sha256::Sha256::new();
        for c in db.records.iter().flatten() {
            let bytes = c.to_bytes_be();
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(&bytes);
        }
        let hex: String = hasher.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "752ca3165d2ffcc6876aa3777e66fe06c808a254232f0c0913d9fbfa3f4f449b");
    }

    #[test]
    fn exact_nearest_neighbour_semantics() {
        let (keys, mut clouds, mut rng) = setup();
        let db = encrypt_for_knn(&relation(), &keys, &mut rng).unwrap();
        // Query (5, 5): record 2 = (5,4) is closest (distance 1).
        let outcome = sknn_query(&mut clouds, &db, &[5, 5], 1).unwrap();
        assert_eq!(outcome.nearest, vec![2]);
    }

    #[test]
    fn per_query_cost_scales_with_n_times_m() {
        let (keys, mut clouds, mut rng) = setup();
        let small = encrypt_for_knn(&relation(), &keys, &mut rng).unwrap();
        let small_outcome = sknn_query(&mut clouds, &small, &[10, 10], 1).unwrap();

        let bigger_relation = Relation::from_rows(
            (0..8u64).map(|i| Row { id: ObjectId(i), values: vec![i, 2 * i, 3 * i] }).collect(),
        );
        let bigger = encrypt_for_knn(&bigger_relation, &keys, &mut rng).unwrap();
        let bigger_outcome = sknn_query(&mut clouds, &bigger, &[30, 30, 30], 1).unwrap();

        assert_eq!(small_outcome.secure_multiplications, 4 * 2);
        assert_eq!(bigger_outcome.secure_multiplications, 8 * 3);
        assert!(bigger_outcome.channel.bytes > small_outcome.channel.bytes);
    }

    #[test]
    fn k_is_clamped_to_n() {
        let (keys, mut clouds, mut rng) = setup();
        let db = encrypt_for_knn(&relation(), &keys, &mut rng).unwrap();
        let outcome = sknn_query(&mut clouds, &db, &[0, 0], 10).unwrap();
        assert_eq!(outcome.nearest.len(), 4);
        // Nearest to the origin is record 0 = (1,1).
        assert_eq!(outcome.nearest[0], 0);
    }
}
