//! The §11.3 comparison: SecTopK versus the secure-kNN baseline on the same workload.
//!
//! The baseline must (a) produce the same top-k answers when the scoring function is the
//! one §11.3 uses (`Σ x_i²`, queried as the nearest neighbours of the per-attribute upper
//! bound), and (b) exhibit its characteristic O(n·m) per-query cost, which is what makes
//! it lose to SecTopK on anything but tiny relations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{QueryConfig, Session};
use sectopk_knn::{encrypt_for_knn, sknn_query};
use sectopk_storage::{ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{assert_valid_top_k, harness, run_query};

fn random_relation(n: usize, m: usize, rng: &mut StdRng) -> Relation {
    Relation::from_rows(
        (0..n)
            .map(|i| Row {
                id: ObjectId(i as u64),
                values: (0..m).map(|_| rng.gen_range(0..50)).collect(),
            })
            .collect(),
    )
}

#[test]
fn baseline_and_sectopk_agree_on_sum_scores() {
    // With non-negative attributes, the records nearest to the upper-bound point under
    // squared Euclidean distance are not necessarily the top records by plain sum, but
    // for the clearly separated relation below both notions coincide; the test pins the
    // adaptation described in §11.3.
    let mut rng = StdRng::seed_from_u64(42);
    let relation = Relation::from_rows(vec![
        Row { id: ObjectId(0), values: vec![45, 48] },
        Row { id: ObjectId(1), values: vec![10, 12] },
        Row { id: ObjectId(2), values: vec![30, 29] },
        Row { id: ObjectId(3), values: vec![5, 2] },
    ]);
    let attrs = vec![0, 1];
    let k = 2;

    // SecTopK answer.
    let mut h = harness(relation.clone(), 55);
    let (topk_ids, _) =
        run_query(&mut h, &TopKQuery::sum(attrs.clone(), k), &QueryConfig::dup_elim());
    assert_valid_top_k(&relation, &attrs, &[], k, &topk_ids, "SecTopK");

    // Baseline answer: k nearest to the upper bound (50, 50).
    let db = encrypt_for_knn(&relation, h.owner.keys(), &mut rng).unwrap();
    let knn = sknn_query(h.session.clouds_mut(), &db, &[50, 50], k).unwrap();
    let knn_ids: Vec<ObjectId> = knn.nearest.iter().map(|&i| relation.rows()[i].id).collect();

    let mut a = topk_ids.clone();
    let mut b = knn_ids.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "both approaches must select the same records");
}

#[test]
fn baseline_cost_scales_linearly_with_the_relation() {
    // The baseline's per-query work is n·m secure multiplications; doubling n doubles the
    // interactive work and bandwidth.  (SecTopK's per-depth cost is independent of n —
    // that contrast is Fig. / §11.3's headline claim.)
    let mut rng = StdRng::seed_from_u64(77);
    let small_rel = random_relation(4, 3, &mut rng);
    let large_rel = random_relation(8, 3, &mut rng);

    let mut h = harness(small_rel.clone(), 56);
    let small_db = encrypt_for_knn(&small_rel, h.owner.keys(), &mut rng).unwrap();
    let small = sknn_query(h.session.clouds_mut(), &small_db, &[50, 50, 50], 2).unwrap();

    let large_db = encrypt_for_knn(&large_rel, h.owner.keys(), &mut rng).unwrap();
    let large = sknn_query(h.session.clouds_mut(), &large_db, &[50, 50, 50], 2).unwrap();

    assert_eq!(small.secure_multiplications, 4 * 3);
    assert_eq!(large.secure_multiplications, 8 * 3);
    assert!(large.channel.bytes > small.channel.bytes);
}

#[test]
fn sectopk_per_depth_bandwidth_is_independent_of_n() {
    // Scan the same number of depths on two relations of different sizes: the bandwidth
    // per depth must be (nearly) identical, whereas the baseline's grows with n.
    let mut rng = StdRng::seed_from_u64(88);
    let small_rel = random_relation(6, 2, &mut rng);
    let large_rel = random_relation(12, 2, &mut rng);
    let query = TopKQuery::sum(vec![0, 1], 2);
    let config = QueryConfig::dup_elim().with_max_depth(2);

    let mut h_small = harness(small_rel, 57);
    let (_, small) = run_query(&mut h_small, &query, &config);
    let mut h_large = harness(large_rel, 58);
    let (_, large) = run_query(&mut h_large, &query, &config);

    assert_eq!(small.stats.depths_scanned, 2);
    assert_eq!(large.stats.depths_scanned, 2);
    let ratio = large.stats.bytes_per_depth() / small.stats.bytes_per_depth();
    assert!(ratio < 2.0, "per-depth bandwidth should not scale with n (ratio {ratio:.2})");
}
