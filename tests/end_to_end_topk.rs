//! End-to-end correctness of the full SecTopK pipeline (Enc → Token → SecQuery →
//! resolution) on the worked examples and on randomly generated relations, checked
//! against the exact plaintext top-k and the plaintext NRA baseline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{
    nra_top_k, DataOwner, Query, QueryConfig, QueryVariant, Session, VariantChoice,
};
use sectopk_crypto::prp::KeyedPrp;
use sectopk_datasets::{fig3_relation, patient_name, patients_relation};
use sectopk_ehl::EhlEncoder;
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{assert_valid_top_k, harness, run_query, TEST_EHL_KEYS, TEST_MODULUS_BITS};

#[test]
fn fig3_full_privacy_returns_x3_and_x2() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 1);
    let query = TopKQuery::sum(vec![0, 1, 2], 2);
    let (ids, outcome) = run_query(&mut h, &query, &QueryConfig::full());
    assert_valid_top_k(&relation, &[0, 1, 2], &[], 2, &ids, "fig3 Qry_F");
    // Fig. 3c: the walk-through halts after depth 3 with X3 and X2.
    assert_eq!(ids, vec![ObjectId(3), ObjectId(2)]);
    assert!(outcome.stats.halted);
    assert!(outcome.stats.depths_scanned <= relation.len());
}

#[test]
fn patients_example_returns_david_and_emma() {
    // Example 1.1: top-2 by chol + thalach over the encrypted patients table.
    let relation = patients_relation();
    let chol = relation.attribute_index("chol").unwrap();
    let thalach = relation.attribute_index("thalach").unwrap();
    let mut h = harness(relation.clone(), 2);
    let query = TopKQuery::sum(vec![chol, thalach], 2);
    let (ids, _) = run_query(&mut h, &query, &QueryConfig::dup_elim());
    let names: Vec<&str> = ids.iter().map(|&id| patient_name(id)).collect();
    assert_eq!(names, vec!["David", "Emma"]);
}

#[test]
fn random_relations_full_variant_matches_plaintext_top_k() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..4 {
        let n = rng.gen_range(6..12);
        let m = rng.gen_range(2..4usize);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row {
                id: ObjectId(i as u64 + 1),
                values: (0..m).map(|_| rng.gen_range(0..30)).collect(),
            })
            .collect();
        let relation = Relation::from_rows(rows);
        let attrs: Vec<usize> = (0..m).collect();
        let k = rng.gen_range(1..=3);

        let mut h = harness(relation.clone(), 1000 + trial);
        let query = TopKQuery::sum(attrs.clone(), k);
        let (ids, outcome) = run_query(&mut h, &query, &QueryConfig::full());
        assert_valid_top_k(&relation, &attrs, &[], k, &ids, &format!("random trial {trial}"));

        // The secure protocol may halt later than plaintext NRA (its upper bounds can be
        // stale between refreshes) but never scans past the relation size.
        let nra = nra_top_k(&relation, &attrs, &[], k);
        assert!(outcome.stats.depths_scanned >= nra.halting_depth.min(relation.len()));
        assert!(outcome.stats.depths_scanned <= relation.len());
    }
}

#[test]
fn weighted_query_is_honoured() {
    // Weighting attribute 2 by 10 changes the winner (see the NRA unit test).
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 7);
    let query = TopKQuery::weighted(vec![0, 2], vec![1, 10], 1);
    let (ids, _) = run_query(&mut h, &query, &QueryConfig::dup_elim());
    assert_valid_top_k(&relation, &[0, 2], &[1, 10], 1, &ids, "weighted");
    assert_eq!(ids, vec![ObjectId(4)]);
}

#[test]
fn k_equal_to_relation_size_returns_everything() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 8);
    let query = TopKQuery::sum(vec![0, 1], 5);
    let (ids, _) = run_query(&mut h, &query, &QueryConfig::dup_elim());
    assert_valid_top_k(&relation, &[0, 1], &[], 5, &ids, "k = n");
    assert_eq!(ids.len(), 5);
}

#[test]
fn single_attribute_query_halts_quickly() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 9);
    let query = TopKQuery::sum(vec![0], 2);
    let (ids, outcome) = run_query(&mut h, &query, &QueryConfig::dup_elim());
    assert_valid_top_k(&relation, &[0], &[], 2, &ids, "single attribute");
    assert!(outcome.stats.halted);
    assert!(outcome.stats.depths_scanned <= 3, "one list: top-2 is known after few depths");
}

#[test]
fn depth_cap_returns_partial_answer_without_halting() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 10);
    let query = TopKQuery::sum(vec![0, 1, 2], 2);
    let config = QueryConfig::dup_elim().with_max_depth(1);
    let (_ids, outcome) = run_query(&mut h, &query, &config);
    assert_eq!(outcome.stats.depths_scanned, 1);
    assert!(!outcome.stats.halted);
    assert_eq!(outcome.top_k.len(), 2);
}

#[test]
fn communication_statistics_are_populated() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 11);
    let query = TopKQuery::sum(vec![0, 1], 2);
    let (_, outcome) = run_query(&mut h, &query, &QueryConfig::full());
    let stats = &outcome.stats;
    assert!(stats.channel.bytes > 0);
    assert!(stats.channel.rounds > 0);
    assert_eq!(stats.per_depth_channel.len(), stats.depths_scanned);
    assert_eq!(stats.per_depth_seconds.len(), stats.depths_scanned);
    assert!(stats.seconds_per_depth() > 0.0);
    assert!(stats.bytes_per_depth() > 0.0);
    // Latency model: positive and decreasing in link speed.
    let slow = stats.channel.latency_seconds(50.0, 0.0);
    let fast = stats.channel.latency_seconds(500.0, 0.0);
    assert!(slow > fast);
}

#[test]
fn every_stored_item_is_one_block_of_its_folded_image() {
    // The owner stores each EHL+ as one ciphertext of `Σ_i HMAC(κ_i, o) mod N`.
    let relation = fig3_relation();
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).unwrap();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).unwrap();
    let keys = owner.keys();
    let encoder = EhlEncoder::new(&keys.ehl_keys);
    let (n, sk) = (keys.paillier_public.n(), &keys.paillier_secret);
    let sorted = relation.sorted_lists();
    let prp = KeyedPrp::new(&keys.prp_key, sorted.num_lists());
    for list in 0..sorted.num_lists() {
        let stored = outsourced.er().list(prp.apply(list));
        for (depth, item) in sorted.list(list).iter().enumerate() {
            let ehl = &stored.item(depth).unwrap().ehl;
            let image = encoder.image_sum(&item.object.to_bytes(), n);
            assert_eq!(sk.decrypt(ehl.block()).unwrap(), image, "list {list}, depth {depth}");
        }
    }
}

#[test]
fn the_stored_relation_does_not_grow_with_s() {
    // `s` sets how many PRF images the stored block sums, not how many blocks there are:
    // two ciphertexts per item at every `s`.  A ciphertext is written in its minimal
    // big-endian bytes, so one that happens to start with a zero byte is a byte shorter;
    // the size is pinned to that window rather than to one byte count.
    let relation = fig3_relation();
    let items = relation.len() * relation.num_attributes();
    for s in [1, 3, 5] {
        let mut rng = StdRng::seed_from_u64(0x5175);
        let owner = DataOwner::new(TEST_MODULUS_BITS, s, &mut rng).unwrap();
        let (outsourced, stats) = owner.outsource(&relation, &mut rng).unwrap();
        let width = (owner.keys().paillier_public.n_squared().bits() as usize).div_ceil(8);
        assert_eq!(stats.paillier_encryptions, 2 * items, "s = {s}");
        assert_eq!(stats.encrypted_bytes, outsourced.er().byte_len(), "s = {s}");
        let window = 2 * items * (width - 1)..=2 * items * width;
        assert!(window.contains(&stats.encrypted_bytes), "s = {s}: {}", stats.encrypted_bytes);
    }
}

#[test]
fn fig3_answers_and_halting_depth_do_not_depend_on_s() {
    let relation = fig3_relation();
    let attrs = vec![0, 1, 2];
    let variants = [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 2 }];
    for variant in variants {
        let runs: Vec<(Vec<ObjectId>, usize)> = [1, 3, 5]
            .into_iter()
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(0xF163);
                let owner = DataOwner::new(TEST_MODULUS_BITS, s, &mut rng).unwrap();
                let (outsourced, _) = owner.outsource(&relation, &mut rng).unwrap();
                let mut session = owner.connect(&outsourced, 0xF164).unwrap();
                let query = Query::from_spec(TopKQuery::sum(attrs.clone(), 2))
                    .with_variant(VariantChoice::Fixed(variant));
                let resolved = session.execute(&query).unwrap();
                let context = format!("{} at s = {s}", variant.name());
                assert_valid_top_k(&relation, &attrs, &[], 2, &resolved.object_ids(), &context);
                (resolved.object_ids(), resolved.stats().depths_scanned)
            })
            .collect();
        assert!(runs.iter().all(|run| run == &runs[0]), "{}: {runs:?}", variant.name());
    }
}
