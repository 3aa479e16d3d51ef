//! Shared helpers for the cross-crate integration tests.
//!
//! Every end-to-end test follows the same pattern: a data owner outsources a small
//! relation, a [`Session`] executes queries built with the `QueryBuilder` front door,
//! and the resolved object ids are checked to form a *valid* top-k set (same score
//! multiset as the exact plaintext answer — NRA only guarantees set validity, not a
//! particular tie-break order).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, DirectSession, Outsourced, Query, QueryConfig, QueryOutcome, Session, VariantChoice,
};
use sectopk_protocols::{S1Request, TwoClouds};
use sectopk_server::SessionReport;
use sectopk_storage::{ObjectId, Relation, Score, TopKQuery};

/// Paillier modulus size used by the integration tests (small = fast; the protocols are
/// parameterised over it, see DESIGN.md).
pub const TEST_MODULUS_BITS: usize = 128;

/// Number of EHL PRF keys used by the integration tests.
pub const TEST_EHL_KEYS: usize = 3;

/// A request S2 answers with a typed `MalformedRequest` frame before it has any effect:
/// an equality matrix of two columns whose last row is partial.
pub fn malformed_request(clouds: &mut TwoClouds) -> S1Request {
    let zero = clouds.fresh_zero().expect("encrypt a zero");
    S1Request::EqMatrix {
        diffs: vec![zero; 3],
        cols: 2,
        context: "test".into(),
        depth: None,
        sets: Vec::new(),
        select: Vec::new(),
        disclose_rows: false,
    }
}

/// Everything a test needs to run secure queries against one relation.
pub struct Harness {
    /// The data owner (key holder).
    pub owner: DataOwner,
    /// The plaintext relation (kept for oracle comparisons).
    pub relation: Relation,
    /// The outsourced encrypted relation plus its resolution universe.
    pub outsourced: Outsourced,
    /// The session executing queries (a dedicated two-cloud deployment).
    pub session: DirectSession,
    /// Test-local randomness.
    pub rng: StdRng,
}

/// Build a harness around `relation`.
pub fn harness(relation: Relation, seed: u64) -> Harness {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng)
        .expect("key generation succeeds");
    let (outsourced, _) =
        owner.outsource(&relation, &mut rng).expect("relation encryption succeeds");
    let session = owner.connect(&outsourced, seed ^ 0xABCD).expect("cloud setup succeeds");
    Harness { owner, relation, outsourced, session, rng }
}

/// Run a secure query end to end through the `Session` front door and return the
/// resolved object ids (plus the outcome).  The legacy `(TopKQuery, QueryConfig)` shape
/// is kept so the suites can keep sweeping explicit variants.
pub fn run_query(
    h: &mut Harness,
    query: &TopKQuery,
    config: &QueryConfig,
) -> (Vec<ObjectId>, QueryOutcome) {
    h.session.reset_accounting();
    let mut built =
        Query::from_spec(query.clone()).with_variant(VariantChoice::Fixed(config.variant));
    if let Some(depths) = config.max_depth {
        built = built.with_max_depth(depths);
    }
    let resolved = h.session.execute(&built).expect("secure query succeeds");
    (resolved.object_ids(), resolved.outcome)
}

/// Run a builder-described query as-is (e.g. with `variant(Auto)`) and return the full
/// resolved answer.
pub fn run_built_query(h: &mut Harness, query: &Query) -> sectopk_core::ResolvedTopK {
    h.session.reset_accounting();
    h.session.execute(query).expect("secure query succeeds")
}

/// Assert that `returned` is a valid top-k answer for the query: it must contain `k`
/// distinct objects whose exact aggregate scores form the same multiset as the exact
/// plaintext top-k (ties may be broken differently by the secure protocol).
pub fn assert_valid_top_k(
    relation: &Relation,
    attributes: &[usize],
    weights: &[Score],
    k: usize,
    returned: &[ObjectId],
    context: &str,
) {
    let expected = relation.plaintext_top_k(attributes, weights, k);
    assert_eq!(
        returned.len(),
        expected.len(),
        "{context}: expected {} results, got {:?}",
        expected.len(),
        returned
    );
    let mut seen = std::collections::HashSet::new();
    for id in returned {
        assert!(seen.insert(*id), "{context}: object {id} returned twice");
    }
    let mut returned_scores: Vec<u128> = returned
        .iter()
        .map(|&id| {
            relation
                .aggregate_score(id, attributes, weights)
                .unwrap_or_else(|| panic!("{context}: unknown object {id} in result"))
        })
        .collect();
    let mut expected_scores: Vec<u128> = expected.iter().map(|(_, s)| *s).collect();
    returned_scores.sort_unstable();
    expected_scores.sort_unstable();
    assert_eq!(
        returned_scores, expected_scores,
        "{context}: returned objects {returned:?} do not form a valid top-{k} set"
    );
}

/// The one definition of "byte-identical" for two per-session serving reports:
/// everything deterministic must agree (wall-clock is excluded, and so is the
/// absorbed-fault count, which legitimately differs between a faulted run and its
/// fault-free baseline).
pub fn assert_sessions_identical(a: &SessionReport, b: &SessionReport, context: &str) {
    assert_eq!(a.session, b.session, "{context}: session ids diverge");
    assert_eq!(a.seed, b.seed, "{context}: session seeds diverge");
    assert_eq!(a.failures, b.failures, "{context}: failure lists diverge");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{context}: query counts diverge");
    for (i, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        // ScoredItem equality is group-element equality: byte-identical ciphertexts.
        assert_eq!(x.top_k, y.top_k, "{context}: query {i} ciphertexts diverge");
        assert_eq!(
            x.stats.depths_scanned, y.stats.depths_scanned,
            "{context}: query {i} scan depths diverge"
        );
        assert_eq!(x.stats.halted, y.stats.halted, "{context}: query {i} halting diverges");
        assert_eq!(x.stats.plan, y.stats.plan, "{context}: query {i} planner decisions diverge");
    }
    assert_eq!(a.metrics, b.metrics, "{context}: channel metrics diverge");
    assert_eq!(a.s1_ledger.events(), b.s1_ledger.events(), "{context}: S1 ledgers diverge");
    assert_eq!(a.s2_ledger.events(), b.s2_ledger.events(), "{context}: S2 ledgers diverge");
}
