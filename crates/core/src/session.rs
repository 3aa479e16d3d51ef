//! The `Session` abstraction: one front door for executing top-k queries, and the one
//! struct behind it ([`DirectSession`]) — whether S2 is a direct call, a seat in a
//! shared pool or a remote `sectopk-s2d` process.
//!
//! ```text
//!   Query::top_k(k).attributes(…)           DataOwner::outsource(R)
//!            │                                       │
//!            ▼                                       ▼
//!   session.execute(&query) ──▶ token ──▶ plan (Auto: §11 cost model) ──▶ SecQuery
//!            │                                                              │
//!            ▼                                                              ▼
//!      ResolvedTopK  ◀── resolve_results ◀── encrypted top-k + QueryStats (incl. plan)
//! ```
//!
//! Every door executes through the same [`execute_with_clouds`] engine, so tests,
//! benches and examples observe identical behaviour regardless of how their session
//! was opened.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};

use sectopk_crypto::keys::MasterKeys;
use sectopk_protocols::{
    ChannelMetrics, LeakageLedger, LinkProfile, SessionId, TransportKind, TwoClouds,
};
use sectopk_storage::{encrypt_relation, EncryptedRelation, EncryptionStats, ObjectId, Relation};

use crate::builder::{Query, VariantChoice};
use crate::error::Result;
use crate::planner::{self, PlanDecision, PlannerInputs};
use crate::query::{sec_query, QueryOutcome, QueryStats};
use crate::results::{resolve_results, ResolvedResult};
use crate::scheme::DataOwner;

/// An outsourced relation: the encrypted lists plus the owner-side object-id universe
/// needed to resolve encrypted answers.  Cheap to clone (both halves are `Arc`-shared),
/// so any number of sessions and servers can serve the same outsourcing.
#[derive(Clone, Debug)]
pub struct Outsourced {
    er: Arc<EncryptedRelation>,
    object_ids: Arc<Vec<ObjectId>>,
}

impl Outsourced {
    /// Bundle an already-encrypted relation with its object-id universe (the ids the
    /// key holder will test candidate results against).
    pub fn from_parts(er: EncryptedRelation, object_ids: Vec<ObjectId>) -> Self {
        Outsourced { er: Arc::new(er), object_ids: Arc::new(object_ids) }
    }

    /// The encrypted relation.
    pub fn er(&self) -> &EncryptedRelation {
        &self.er
    }

    /// The object-id universe used for result resolution.
    pub fn object_ids(&self) -> &[ObjectId] {
        &self.object_ids
    }

    /// Number of objects `n`.
    pub fn num_objects(&self) -> usize {
        self.er.num_objects()
    }

    /// Number of attributes `M`.
    pub fn num_attributes(&self) -> usize {
        self.er.num_attributes()
    }
}

/// A fully resolved query answer: the identified objects with their decrypted bounds,
/// plus the encrypted outcome and execution statistics (including the planner's
/// decision).
#[derive(Clone, Debug)]
pub struct ResolvedTopK {
    /// The resolved results, best first.
    pub results: Vec<ResolvedResult>,
    /// The raw encrypted outcome and its statistics.
    pub outcome: QueryOutcome,
}

impl ResolvedTopK {
    /// The identified object ids in result order, skipping neutralised placeholders.
    pub fn object_ids(&self) -> Vec<ObjectId> {
        crate::results::resolved_object_ids(&self.results)
    }

    /// The execution statistics.
    pub fn stats(&self) -> &QueryStats {
        &self.outcome.stats
    }

    /// The planner decision this execution ran under.
    pub fn plan(&self) -> Option<&PlanDecision> {
        self.outcome.stats.plan.as_ref()
    }
}

/// One query-execution session against an outsourced relation — the `SecQuery` side of
/// the scheme behind a uniform, hard-to-misuse surface.
///
/// An implementation says only what differs: where its [`TwoClouds`] and [`Outsourced`]
/// live and how a query executes.  Everything readable off those two — shape, link,
/// traffic, ledgers, the plan — is provided here once.  [`DirectSession`] is the one
/// implementation, whichever door opened it; the trait stays so that callers can hold a
/// session as `dyn Session + Send`.
pub trait Session {
    /// The underlying two-cloud context — the protocol-level escape hatch for tests and
    /// tools that drive individual sub-protocols (`sec_worst_depth`, `sec_dedup`, …).
    fn clouds(&self) -> &TwoClouds;

    /// Mutable access to the underlying two-cloud context.
    fn clouds_mut(&mut self) -> &mut TwoClouds;

    /// The outsourced relation this session queries.
    fn outsourced(&self) -> &Outsourced;

    /// Execute one query end to end: validate, mint the token, plan the variant (when
    /// the query says [`VariantChoice::Auto`]), run `SecQuery`, and resolve the
    /// encrypted answer with the key holder's material.
    fn execute(&mut self, query: &Query) -> Result<ResolvedTopK>;

    /// Number of objects `n` of the outsourced relation.
    fn num_objects(&self) -> usize {
        self.outsourced().num_objects()
    }

    /// Number of attributes `M` of the outsourced relation.
    fn num_attributes(&self) -> usize {
        self.outsourced().num_attributes()
    }

    /// The inter-cloud link this session runs over (feeds the planner's cost model).
    fn link(&self) -> LinkProfile {
        self.clouds().link_profile()
    }

    /// Cumulative channel traffic of this session.
    fn metrics(&self) -> ChannelMetrics {
        self.clouds().channel()
    }

    /// Snapshot of everything this session's S1 observed.
    fn s1_ledger(&self) -> LeakageLedger {
        self.clouds().s1_ledger().clone()
    }

    /// Snapshot of everything this session's S2 engine observed.
    fn s2_ledger(&self) -> LeakageLedger {
        self.clouds().s2_ledger()
    }

    /// Reset the channel metrics and both ledgers (e.g. between queries).
    fn reset_accounting(&mut self) {
        self.clouds_mut().reset_accounting();
    }

    /// The plan the session would run `query` under, without executing it.
    fn plan(&self, query: &Query) -> PlanDecision {
        plan_for(query, self.num_objects(), self.link(), true)
    }
}

/// Resolve a query's variant choice into a recorded [`PlanDecision`] for a session with
/// the given shape.  `batching` is ignored: every session ships a step as one request.
pub fn plan_for(query: &Query, n: usize, link: LinkProfile, batching: bool) -> PlanDecision {
    let _ = batching;
    let inputs = PlannerInputs::new(
        n,
        query.spec().num_attributes(),
        query.spec().k,
        link.rtt.as_secs_f64() * 1_000.0,
    );
    match query.variant() {
        VariantChoice::Auto => planner::plan(&inputs),
        VariantChoice::Fixed(variant) => planner::record_fixed(&inputs, variant),
    }
}

/// The execution engine behind [`Session::execute`]: token, plan, `SecQuery`,
/// resolution.  `keys` is the key holder's material (token generation and result
/// resolution both need it) and `rng` its local randomness.
pub fn execute_with_clouds<R: RngCore + CryptoRng>(
    clouds: &mut TwoClouds,
    er: &EncryptedRelation,
    object_ids: &[ObjectId],
    keys: &MasterKeys,
    rng: &mut R,
    query: &Query,
) -> Result<ResolvedTopK> {
    query.validate_for(er.num_attributes())?;
    let token = sectopk_storage::generate_token(&keys.prp_key, er.num_attributes(), query.spec())?;
    let decision = plan_for(query, er.num_objects(), clouds.link_profile(), true);
    let config = query.config_with(decision.variant);
    let mut outcome = sec_query(clouds, er, &token, &config)?;
    outcome.stats.plan = Some(decision);
    let results = resolve_results(&outcome.top_k, object_ids, keys, rng)?;
    Ok(ResolvedTopK { results, outcome })
}

/// The key holder's result-resolution RNG for a session with the given seed: a session
/// replayed with the same seed resolves identically whichever door opened it.  It is
/// independent of the clouds' protocol randomness.
pub fn resolution_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7E50_15E5)
}

/// *The* session: the key holder's material, the outsourced relation, the resolution
/// randomness and a [`TwoClouds`] context — whatever that context's transport is.  S2
/// may be a direct call, a seat in a shared pool or a `sectopk-s2d` process behind a
/// socket; what differs is only what moves the bytes (DESIGN.md §11, §13), so every
/// door — [`DataOwner::connect`], [`DataOwner::connect_with`],
/// [`DataOwner::connect_remote`], `sectopk-server::QueryServer::open_session` — ends in
/// this one struct, and a fixed seed gives byte-identical results, ledgers and metrics
/// through all of them.
#[derive(Debug)]
pub struct DirectSession {
    clouds: TwoClouds,
    outsourced: Outsourced,
    keys: MasterKeys,
    rng: StdRng,
}

/// A session whose S2 is a remote `sectopk-s2d` process ([`DataOwner::connect_remote`]).
/// Only the transport inside its [`TwoClouds`] differs, so it is the same type.
pub type RemoteSession = DirectSession;

impl DirectSession {
    /// A session over an already-connected `clouds` context; `seed` (the one the
    /// context was built from) derives the resolution randomness.
    pub fn new(clouds: TwoClouds, outsourced: Outsourced, keys: MasterKeys, seed: u64) -> Self {
        DirectSession { clouds, outsourced, keys, rng: resolution_rng(seed) }
    }
}

impl Session for DirectSession {
    fn clouds(&self) -> &TwoClouds {
        &self.clouds
    }

    fn clouds_mut(&mut self) -> &mut TwoClouds {
        &mut self.clouds
    }

    fn outsourced(&self) -> &Outsourced {
        &self.outsourced
    }

    fn execute(&mut self, query: &Query) -> Result<ResolvedTopK> {
        execute_with_clouds(
            &mut self.clouds,
            self.outsourced.er(),
            self.outsourced.object_ids(),
            &self.keys,
            &mut self.rng,
            query,
        )
    }
}

impl DataOwner {
    /// `Enc(λ, R)` plus the bookkeeping a serving deployment needs: encrypt the
    /// relation and bundle it with its object-id universe for later result resolution.
    pub fn outsource<R: RngCore + CryptoRng>(
        &self,
        relation: &Relation,
        rng: &mut R,
    ) -> Result<(Outsourced, EncryptionStats)> {
        let (er, stats) = encrypt_relation(relation, self.keys(), rng)?;
        let object_ids = relation.rows().iter().map(|r| r.id).collect();
        Ok((Outsourced::from_parts(er, object_ids), stats))
    }

    /// [`DataOwner::outsource`] under the name the benchmarks call: it already computes
    /// on the machine's cores.
    pub fn outsource_parallel<R: RngCore + CryptoRng>(
        &self,
        relation: &Relation,
        rng: &mut R,
    ) -> Result<(Outsourced, EncryptionStats)> {
        self.outsource(relation, rng)
    }

    /// Open a session on `outsourced` with the transport selected by the
    /// `SECTOPK_TRANSPORT` environment variable.
    pub fn connect(&self, outsourced: &Outsourced, seed: u64) -> Result<DirectSession> {
        self.connect_with(outsourced, seed, TransportKind::from_env()?, true)
    }

    /// Open a session with an explicit transport (what the transport-equivalence suite
    /// sweeps); `batching` must be `true`, as [`TwoClouds::with_transport`] requires.
    pub fn connect_with(
        &self,
        outsourced: &Outsourced,
        seed: u64,
        kind: TransportKind,
        batching: bool,
    ) -> Result<DirectSession> {
        let clouds = TwoClouds::with_transport(self.keys(), seed, kind, batching)?;
        Ok(DirectSession::new(clouds, outsourced.clone(), self.keys().clone(), seed))
    }

    /// Open a session on `outsourced` whose crypto cloud S2 is the `sectopk-s2d`
    /// process listening at `addr` (`"host:port"`), under an id the server assigns.
    /// Mirrors [`DataOwner::connect`]: callers switch from in-process to networked
    /// execution by changing one constructor, and the connection handshake provisions the
    /// remote S2 engine from the same seed derivation, so determinism carries over the
    /// wire.  A dropped connection is recovered transparently — reconnect, resume,
    /// re-send — and a failure recovery cannot get past surfaces typed:
    /// [`SecTopKError::is_transient`](crate::SecTopKError::is_transient) tells a server
    /// that is unreachable or full from a session that is gone.
    pub fn connect_remote(
        &self,
        outsourced: &Outsourced,
        addr: &str,
        seed: u64,
    ) -> Result<RemoteSession> {
        let clouds = TwoClouds::connect_tcp(self.keys(), seed, addr, SessionId(0))?;
        Ok(DirectSession::new(clouds, outsourced.clone(), self.keys().clone(), seed))
    }
}

/// Generic serving code holds sessions as `Box<dyn Session + Send>`; this compile-time
/// assertion pins `Session` as usable behind a `&mut dyn` reference.
const _: fn(&mut dyn Session) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sectopk_storage::Row;

    use crate::builder::Query;
    use crate::query::QueryVariant;

    fn fixture() -> (DataOwner, Relation, Outsourced) {
        let mut rng = StdRng::seed_from_u64(0x5E55);
        let owner = DataOwner::new(128, 3, &mut rng).unwrap();
        let relation = Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                Row { id: ObjectId(1), values: vec![10, 3] },
                Row { id: ObjectId(2), values: vec![8, 8] },
                Row { id: ObjectId(3), values: vec![5, 7] },
            ],
        );
        let (outsourced, stats) = owner.outsource(&relation, &mut rng).unwrap();
        assert_eq!(stats.num_objects, 3);
        (owner, relation, outsourced)
    }

    #[test]
    fn outsource_and_outsource_parallel_are_encrypt() {
        let (owner, relation, _) = fixture();
        let one_attribute = Relation::new(
            vec!["only".into()],
            vec![
                Row { id: ObjectId(1), values: vec![4] },
                Row { id: ObjectId(2), values: vec![9] },
            ],
        );
        for relation in [relation, one_attribute] {
            let (er, stats) = owner.encrypt(&relation, &mut StdRng::seed_from_u64(31)).unwrap();
            for outsource in [DataOwner::outsource, DataOwner::outsource_parallel::<StdRng>] {
                let mut rng = StdRng::seed_from_u64(31);
                let (outsourced, outsourced_stats) =
                    outsource(&owner, &relation, &mut rng).unwrap();
                assert_eq!((outsourced.er(), outsourced_stats), (&er, stats));
            }
        }
    }

    #[test]
    fn direct_session_executes_an_auto_query_end_to_end() {
        let (owner, relation, outsourced) = fixture();
        let mut session = owner.connect(&outsourced, 42).unwrap();
        assert_eq!(session.num_objects(), 3);
        assert_eq!(session.num_attributes(), 2);

        let query = Query::top_k(1).attributes(["a", "b"]).resolve(&relation).unwrap();
        let plan = session.plan(&query);
        assert_eq!(plan.variant, QueryVariant::Full, "tiny relation must stay fully private");

        let resolved = session.execute(&query).unwrap();
        assert_eq!(resolved.object_ids(), vec![ObjectId(2)]); // 8 + 8 = 16 wins
        assert_eq!(resolved.plan().unwrap().variant, QueryVariant::Full);
        assert!(resolved.plan().unwrap().auto);
        assert!(resolved.stats().depths_scanned > 0);
        assert!(session.metrics().bytes > 0);
        assert!(!session.s2_ledger().is_empty());

        session.reset_accounting();
        assert_eq!(session.metrics(), ChannelMetrics::default());
        assert!(session.s1_ledger().is_empty());
    }

    #[test]
    fn a_querys_channel_is_its_own_traffic_on_a_session_nobody_resets() {
        let (owner, relation, outsourced) = fixture();
        let mut session = owner.connect(&outsourced, 42).unwrap();
        let query = Query::top_k(1).attributes(["a", "b"]).resolve(&relation).unwrap();
        // Two queries back to back, as the serving loop runs them.
        let first = session.execute(&query).unwrap();
        let second = session.execute(&query).unwrap();
        for answer in [&first, &second] {
            let mut by_depth = ChannelMetrics::default();
            answer.stats().per_depth_channel.iter().for_each(|depth| by_depth.merge(depth));
            assert_eq!(answer.stats().channel, by_depth);
        }
        assert_eq!(second.stats().channel.rounds, first.stats().channel.rounds);
        assert_eq!(session.metrics().rounds, 2 * first.stats().channel.rounds);
    }

    #[test]
    fn out_of_range_queries_fail_before_touching_the_clouds() {
        let (owner, _relation, outsourced) = fixture();
        let mut session = owner.connect(&outsourced, 7).unwrap();
        let query = Query::top_k(1).attribute_indices([9]).build().unwrap();
        let err = session.execute(&query).unwrap_err();
        assert!(err.is_invalid_query(), "got {err:?}");
        assert_eq!(
            session.metrics(),
            ChannelMetrics::default(),
            "no protocol traffic on a bad query"
        );
    }

    #[test]
    fn fixed_variants_are_honoured_and_recorded() {
        let (owner, relation, outsourced) = fixture();
        let mut session = owner.connect(&outsourced, 9).unwrap();
        let query = Query::top_k(2)
            .attributes(["a", "b"])
            .variant(VariantChoice::Fixed(QueryVariant::Batched { p: 2 }))
            .resolve(&relation)
            .unwrap();
        let resolved = session.execute(&query).unwrap();
        let plan = resolved.plan().unwrap();
        assert_eq!(plan.variant, QueryVariant::Batched { p: 2 });
        assert!(!plan.auto);
    }
}
