//! Builder + planner coverage: every builder-accepted query must round-trip through
//! token generation and execute identically under `variant(Auto)` and under the variant
//! the planner would have chosen explicitly — the planner is a pure function of the
//! query shape, so `Auto` can never change *what* a query answers, only how fast and
//! with which leakage profile.
//!
//! Alongside the property tests, unit tests pin the planner's decisions at the §11
//! dataset sizes (10⁵–10⁶ rows → `Qry_Ba` with a planner-chosen `p ≥ k`; worked-example
//! sizes → `Qry_F`).

use proptest::proptest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::{
    plan, DataOwner, PlannerInputs, Query, QueryVariant, SecTopKError, Session, VariantChoice,
};
use sectopk_storage::{ObjectId, QueryError, Relation, Row};
use sectopk_tests::{
    assert_valid_top_k, harness, run_built_query, TEST_EHL_KEYS, TEST_MODULUS_BITS,
};

fn random_relation(rng: &mut StdRng) -> Relation {
    let num_attributes = rng.gen_range(2usize..=3);
    let rows = rng.gen_range(3usize..=6);
    let names = (0..num_attributes).map(|i| format!("a{i}")).collect();
    let rows = (1..=rows)
        .map(|id| Row {
            id: ObjectId(id as u64),
            values: (0..num_attributes).map(|_| rng.gen_range(0..16)).collect(),
        })
        .collect();
    Relation::new(names, rows)
}

/// A random builder-accepted query over `relation`, built by *name* half the time to
/// exercise schema resolution.
fn random_query(rng: &mut StdRng, relation: &Relation) -> Query {
    let num_attributes = relation.num_attributes();
    let m = rng.gen_range(1..=num_attributes);
    let mut attrs: Vec<usize> = (0..num_attributes).collect();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..=i));
    }
    attrs.truncate(m);
    attrs.sort_unstable();
    let k = rng.gen_range(1..=3);

    let builder = if rng.gen() {
        let names: Vec<String> =
            attrs.iter().map(|&a| relation.attribute_names()[a].clone()).collect();
        Query::top_k(k).attributes(names)
    } else {
        Query::top_k(k).attribute_indices(attrs.clone())
    };
    let builder = if rng.gen() {
        builder.weights(attrs.iter().map(|_| rng.gen_range(1..4)))
    } else {
        builder
    };
    builder.resolve(relation).expect("builder-accepted query")
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]
    #[test]
    fn auto_executes_identically_to_the_explicitly_planned_variant(case_seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(case_seed ^ 0x0B11_1DE5);
        let relation = random_relation(&mut rng);
        let query = random_query(&mut rng, &relation);
        let harness_seed = rng.gen::<u64>();

        // The builder-accepted query must round-trip through token generation.
        let mut h = harness(relation.clone(), harness_seed);
        let token = h
            .owner
            .authorize_client()
            .token(relation.num_attributes(), query.spec())
            .expect("builder-accepted queries generate tokens");
        assert_eq!(token.k, query.spec().k);
        assert_eq!(token.num_attributes(), query.spec().num_attributes());

        // Execute under variant(Auto)…
        let auto = run_built_query(&mut h, &query);
        let decision = auto.plan().expect("auto execution records its plan").clone();
        assert!(decision.auto);

        // …and again, on a fresh but identically seeded session, with the planner's
        // choice pinned explicitly.  Results must be byte-identical.
        let mut h2 = harness(relation.clone(), harness_seed);
        let pinned = query.clone().with_variant(VariantChoice::Fixed(decision.variant));
        let explicit = run_built_query(&mut h2, &pinned);

        assert_eq!(auto.results, explicit.results, "resolved answers must agree");
        assert_eq!(auto.outcome.top_k, explicit.outcome.top_k, "ciphertexts must be identical");
        assert_eq!(explicit.plan().expect("plan recorded").variant, decision.variant);
        assert!(!explicit.plan().expect("plan recorded").auto);

        // And the answer itself is a valid top-k set.
        let spec = query.spec();
        assert_valid_top_k(
            &relation,
            &spec.attributes,
            &spec.weights,
            spec.k,
            &auto.object_ids(),
            "auto-planned query",
        );
    }
}

#[test]
fn planner_decisions_pin_the_section_11_operating_points() {
    // Worked-example scale (Fig. 3: n = 5): full privacy is affordable.
    let fig3 = plan(&PlannerInputs::new(5, 3, 2, 0.0));
    assert_eq!(fig3.variant, QueryVariant::Full);

    // §11.2.1 scale (insurance/forest ≈ 10⁵ rows, synthetic up to 10⁶; k = 5, m = 3):
    // the planner reaches for Qry_Ba with p ≥ k.
    for n in [100_000usize, 1_000_000] {
        let decision = plan(&PlannerInputs::new(n, 3, 5, 0.0));
        match decision.variant {
            QueryVariant::Batched { p } => assert!(p >= 5, "n = {n}: p = {p} must be ≥ k"),
            other => panic!("n = {n}: expected Qry_Ba, got {other:?}"),
        }
    }

    // In between, the uniqueness-pattern trade of Qry_E wins.
    let mid = plan(&PlannerInputs::new(1_000, 3, 5, 0.0));
    assert_eq!(mid.variant, QueryVariant::DupElim);
}

#[test]
fn session_plan_preview_matches_what_execute_records() {
    let mut rng = StdRng::seed_from_u64(0x9999);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).unwrap();
    let relation = sectopk_datasets::fig3_relation();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).unwrap();
    let mut session = owner.connect(&outsourced, 0x9999).unwrap();

    let query = Query::top_k(2).attribute_indices([0, 1, 2]).build().unwrap();
    let preview = session.plan(&query);
    let executed = session.execute(&query).unwrap();
    assert_eq!(&preview, executed.plan().expect("plan recorded"));
}

#[test]
fn builder_rejections_surface_as_typed_query_errors() {
    // The builder and the session agree on what is invalid, and nothing invalid
    // reaches token generation or the clouds.
    let err = Query::top_k(0).attribute_indices([0]).build().unwrap_err();
    assert_eq!(err, SecTopKError::Query(QueryError::ZeroK));

    let mut rng = StdRng::seed_from_u64(0x77AA);
    let relation = random_relation(&mut rng);
    let err = Query::top_k(1).attributes(["not-a-column"]).resolve(&relation).unwrap_err();
    assert!(matches!(err, SecTopKError::Query(QueryError::UnknownAttribute { .. })));
}
