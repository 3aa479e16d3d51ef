//! End-to-end secure top-k join (§12): encryption of both relations, token generation,
//! SecJoin + SecFilter + encrypted top-k selection, checked against a plaintext join.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{encrypt_for_join, join_token, top_k_join, JoinQuery};
use sectopk_crypto::MasterKeys;
use sectopk_protocols::sort::sort_plan;
use sectopk_protocols::TwoClouds;
use sectopk_storage::{ObjectId, Relation, Row};
use sectopk_tests::{TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// Plaintext reference: all matching (left, right) row pairs with their join scores,
/// sorted by score descending.
fn plaintext_join_scores(left: &Relation, right: &Relation, q: &JoinQuery) -> Vec<u64> {
    let mut scores = Vec::new();
    for l in left.rows() {
        for r in right.rows() {
            if l.values[q.join_left] == r.values[q.join_right] {
                scores.push(l.values[q.score_left] + r.values[q.score_right]);
            }
        }
    }
    scores.sort_unstable_by(|a, b| b.cmp(a));
    scores
}

fn setup(seed: u64) -> (MasterKeys, TwoClouds, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = MasterKeys::generate(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).unwrap();
    let clouds = TwoClouds::new(&keys, seed ^ 0xFEED).unwrap();
    (keys, clouds, rng)
}

#[test]
fn join_example_from_section_12() {
    // Q = SELECT * FROM R1, R2 WHERE R1.A = R2.B ORDER BY R1.C + R2.D STOP AFTER k.
    let (keys, mut clouds, mut rng) = setup(500);
    let left = Relation::new(
        vec!["A".into(), "C".into()],
        vec![
            Row { id: ObjectId(1), values: vec![7, 50] },
            Row { id: ObjectId(2), values: vec![8, 10] },
            Row { id: ObjectId(3), values: vec![7, 20] },
        ],
    );
    let right = Relation::new(
        vec!["B".into(), "D".into()],
        vec![
            Row { id: ObjectId(1), values: vec![7, 5] },
            Row { id: ObjectId(2), values: vec![9, 99] },
        ],
    );
    let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 2 };

    let enc_left = encrypt_for_join(&left, &keys, "join/left", &mut rng).unwrap();
    let enc_right = encrypt_for_join(&right, &keys, "join/right", &mut rng).unwrap();
    let token = join_token(&keys, 2, 2, &q, &[1], &[1]).unwrap();
    let outcome = top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();

    let expected = plaintext_join_scores(&left, &right, &q);
    assert_eq!(outcome.matching_pairs, expected.len());
    assert_eq!(outcome.pairs_considered, 6);

    let scores: Vec<u64> =
        outcome.top_k.iter().map(|t| keys.paillier_secret.decrypt_u64(&t.score).unwrap()).collect();
    assert_eq!(scores, expected[..2.min(expected.len())].to_vec());
}

#[test]
fn random_joins_match_the_plaintext_reference() {
    let mut rng = StdRng::seed_from_u64(600);
    for trial in 0..3u64 {
        let (keys, mut clouds, mut local_rng) = setup(601 + trial);
        let n_left = rng.gen_range(3..6);
        let n_right = rng.gen_range(3..6);
        // Join keys drawn from a tiny domain so matches actually occur.
        let left = Relation::from_rows(
            (0..n_left)
                .map(|i| Row {
                    id: ObjectId(i as u64),
                    values: vec![rng.gen_range(0..4), rng.gen_range(0..30)],
                })
                .collect(),
        );
        let right = Relation::from_rows(
            (0..n_right)
                .map(|i| Row {
                    id: ObjectId(i as u64),
                    values: vec![rng.gen_range(0..4), rng.gen_range(0..30)],
                })
                .collect(),
        );
        let k = rng.gen_range(1..4);
        let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k };

        let enc_left = encrypt_for_join(&left, &keys, "join/left", &mut local_rng).unwrap();
        let enc_right = encrypt_for_join(&right, &keys, "join/right", &mut local_rng).unwrap();
        let token = join_token(&keys, 2, 2, &q, &[], &[]).unwrap();
        let outcome = top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();

        let expected = plaintext_join_scores(&left, &right, &q);
        assert_eq!(outcome.matching_pairs, expected.len(), "trial {trial}");
        let scores: Vec<u64> = outcome
            .top_k
            .iter()
            .map(|t| keys.paillier_secret.decrypt_u64(&t.score).unwrap())
            .collect();
        assert_eq!(scores, expected[..k.min(expected.len())].to_vec(), "trial {trial}");
    }
}

#[test]
fn the_final_selection_is_one_sort_of_the_matches() {
    // SecJoin costs an equality round and a RecoverEnc round, SecFilter one more; the
    // top-k selection is then one `sort_plan` ranking of the L surviving tuples, where
    // finding the maximum k times took one EncCompare round per candidate: k·(L − 1).
    let (keys, mut clouds, mut rng) = setup(800);
    let side = |rows: u64, rng: &mut StdRng| {
        Relation::from_rows(
            (0..rows)
                .map(|i| Row {
                    id: ObjectId(i),
                    values: vec![rng.gen_range(0..3), rng.gen_range(0..50)],
                })
                .collect(),
        )
    };
    let (left, right) = (side(6, &mut rng), side(5, &mut rng));
    let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 3 };
    let enc_left = encrypt_for_join(&left, &keys, "join/left", &mut rng).unwrap();
    let enc_right = encrypt_for_join(&right, &keys, "join/right", &mut rng).unwrap();
    let token = join_token(&keys, 2, 2, &q, &[], &[]).unwrap();
    let outcome = top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();

    let expected = plaintext_join_scores(&left, &right, &q);
    let matches = outcome.matching_pairs;
    assert_eq!(matches, expected.len());
    assert!(matches > q.k + 1, "{matches} matches: too few to tell the schedules apart");
    let plan = sort_plan(matches, clouds.link_profile());
    // The join's equality round (which gates every value), the filter, then the sort.
    assert_eq!(clouds.channel().rounds, 2 + plan.rounds as u64, "{plan:?}");
    assert!(plan.rounds < q.k * (matches - 1), "{plan:?} against {} rounds", q.k * (matches - 1));
    assert_eq!(clouds.s1_ledger().count_kind("comparison_bit"), plan.comparisons);
    let scores: Vec<u64> =
        outcome.top_k.iter().map(|t| keys.paillier_secret.decrypt_u64(&t.score).unwrap()).collect();
    assert_eq!(scores, expected[..q.k].to_vec());
}

#[test]
fn join_leaks_only_equality_bits_and_match_count() {
    let (keys, mut clouds, mut rng) = setup(700);
    let left = Relation::from_rows(vec![
        Row { id: ObjectId(1), values: vec![1, 5] },
        Row { id: ObjectId(2), values: vec![2, 6] },
    ]);
    let right = Relation::from_rows(vec![Row { id: ObjectId(1), values: vec![2, 9] }]);
    let q = JoinQuery { join_left: 0, join_right: 0, score_left: 1, score_right: 1, k: 1 };
    let enc_left = encrypt_for_join(&left, &keys, "join/left", &mut rng).unwrap();
    let enc_right = encrypt_for_join(&right, &keys, "join/right", &mut rng).unwrap();
    let token = join_token(&keys, 2, 2, &q, &[], &[]).unwrap();
    let _ = top_k_join(&mut clouds, &enc_left, &enc_right, &token).unwrap();

    assert!(clouds.s2_ledger().only_contains(&[
        "equality_bit",
        "masked_values",
        "join_match_count",
        "blinded_sign"
    ]));
    assert!(clouds.s1_ledger().only_contains(&["join_match_count", "comparison_bit"]));
    // Both parties learned the same match count (1), and nothing about which pair it was.
    assert_eq!(clouds.s1_ledger().count_kind("join_match_count"), 1);
}
