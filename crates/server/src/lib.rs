//! # sectopk-server
//!
//! Multi-session top-k query serving: the paper's two-cloud construction run as a
//! *service* instead of a single-shot protocol.
//!
//! A [`QueryServer`] owns the outsourced encrypted relation and a shared
//! [`MultiplexServer`] — the crypto cloud S2 as a worker-thread pool.  Every client
//! session is one [`QueryClient`]: an S1-side execution context connected to the shared
//! S2 over the session-tagged envelope channel.  `QueryClient` implements the
//! [`Session`] trait from `sectopk-core`, so the serving path and the direct two-cloud
//! path expose the same `execute(Query) → ResolvedTopK` front door, including the
//! adaptive variant planner.
//!
//! ```text
//!   client 1 ── Query stream ──▶ QueryClient 1 (S1 state, session 1) ──┐
//!   client 2 ── Query stream ──▶ QueryClient 2 (S1 state, session 2) ──┤ envelopes
//!      …                               …                               ├──────────▶ S2
//!   client N ── Query stream ──▶ QueryClient N (S1 state, session N) ──┘ worker pool
//! ```
//!
//! # Determinism guarantees
//!
//! Session *i* derives every random choice (S1 RNG, nonce-pool shards, the session's
//! S2 engine, the resolution RNG) from `shard_seed(base_seed, i)`, and all server-side
//! mutable state is per-session.  Consequently [`QueryServer::serve`] (all sessions
//! concurrently, S2 worker pool) and [`QueryServer::serve_serial`] (same sessions one
//! after another) produce **byte-identical** per-session results, metrics and ledgers —
//! scheduling and interleaving are unobservable.  `tests/concurrent_sessions.rs`
//! asserts this for 16 concurrent sessions.
//!
//! # Failure isolation
//!
//! A query that fails — an invalid attribute set, a malformed request answered by S2
//! with a typed error frame — is recorded in the session's [`SessionReport::failures`]
//! and serving continues; one misbehaving session can never take down the worker pool
//! or its neighbours (`tests/concurrent_sessions.rs` has the regression test).
//!
//! # Knobs
//!
//! [`ServeConfig`] controls the serving shape: `sessions` (concurrent S1 clients),
//! `batching` (round-trip batching policy), `link` (simulated inter-cloud RTT — the
//! §11.2.5 WAN), and `variant` — [`VariantChoice::Auto`] lets the planner pick
//! `Qry_F`/`Qry_E`/`Qry_Ba` per query; the decision lands in each outcome's
//! [`QueryStats::plan`](sectopk_core::QueryStats) so serving reports are
//! self-describing.  The S2 pool width is set at [`QueryServer::new`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;

use sectopk_core::{
    execute_with_clouds, AuthorizedClient, Outsourced, PlanDecision, Query, QueryOutcome,
    ResolvedTopK, Result, SecTopKError, Session, VariantChoice,
};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::pool::shard_seed;
use sectopk_datasets::QueryWorkload;
use sectopk_metrics::{Counter, Histogram, MetricsSnapshot, Registry};
use sectopk_protocols::{
    ChannelMetrics, FaultPlan, LeakageLedger, LinkProfile, MultiplexServer, PoolLimits,
    ProtocolError, RetryPolicy, SessionId, TcpCloudServer, TcpOptions, TcpServerConfig, TwoClouds,
};
use sectopk_storage::{EncryptedRelation, TopKQuery};

/// How many ready nonces of each kind the between-queries idle refill tops a session's
/// S1 pools up to.  Sized for the opening rounds of a typical query (fresh zeros,
/// selection constants, `E2(t)` re-encryptions) without making the idle gap itself a
/// bottleneck.
const IDLE_REFILL_PAILLIER_NONCES: usize = 16;
const IDLE_REFILL_DJ_NONCES: usize = 8;
const IDLE_REFILL_OWN_NONCES: usize = 8;

/// Shape of one serving run: how many concurrent sessions and how each query executes.
/// (The S2 worker-pool width is a property of the [`QueryServer`] itself, set at
/// construction.)
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of concurrent S1 sessions (client connections).
    pub sessions: usize,
    /// Round-trip batching policy for every session (see `TwoClouds::batching`).
    pub batching: bool,
    /// How the processing variant is chosen for every query of the run.
    pub variant: VariantChoice,
    /// Optional cap on scanned depths per query.
    pub max_depth: Option<usize>,
    /// Base seed; session `i` runs under `shard_seed(base_seed, i)`.
    pub base_seed: u64,
    /// Simulated inter-cloud link (ideal by default; a nonzero RTT models the WAN).
    pub link: LinkProfile,
    /// Intra-query worker threads for each session's S1 loops *and* its S2 engine
    /// (default: the `SECTOPK_INTRA_PARALLEL` environment variable, else 1).  Worker
    /// count only changes wall-clock: results, ledgers and metrics are byte-identical.
    pub intra_workers: usize,
    /// Transparent reconnect-resume-resend policy for [`QueryServer::serve_tcp`]
    /// sessions (ignored by the in-process paths, which cannot lose a connection).
    pub retry: RetryPolicy,
    /// Deterministic fault injection for [`QueryServer::serve_tcp`] sessions — the
    /// chaos-soak knob.  With a matching [`RetryPolicy`] enabled, an injected drop is
    /// recovered transparently and the run's reports stay byte-identical.
    pub faults: FaultPlan,
}

impl ServeConfig {
    /// A serving configuration with `sessions` concurrent sessions, batching on, the
    /// full-privacy query variant, and an ideal link.
    pub fn new(sessions: usize, base_seed: u64) -> Self {
        ServeConfig {
            sessions,
            batching: true,
            variant: VariantChoice::Fixed(sectopk_core::QueryVariant::Full),
            max_depth: None,
            base_seed,
            link: LinkProfile::ideal(),
            intra_workers: sectopk_protocols::intra_workers_from_env(),
            retry: RetryPolicy::none(),
            faults: FaultPlan::none(),
        }
    }

    /// Enable transparent retry for networked ([`QueryServer::serve_tcp`]) sessions.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Inject connection faults on `faults`' schedule into networked
    /// ([`QueryServer::serve_tcp`]) sessions.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the simulated link profile.
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = link;
        self
    }

    /// Replace the intra-query worker count (minimum 1; 1 = fully serial).
    pub fn with_intra_workers(mut self, workers: usize) -> Self {
        self.intra_workers = workers.max(1);
        self
    }

    /// Replace the variant choice ([`VariantChoice::Auto`] hands every query to the
    /// planner).
    pub fn with_variant(mut self, variant: VariantChoice) -> Self {
        self.variant = variant;
        self
    }

    /// The per-query [`Query`] policy this configuration applies to a workload spec.
    fn query_for(&self, spec: &TopKQuery) -> Query {
        let mut query = Query::from_spec(spec.clone()).with_variant(self.variant);
        if let Some(depths) = self.max_depth {
            query = query.with_max_depth(depths);
        }
        query
    }
}

/// One query that failed during a serving run, with its typed error.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryFailure {
    /// Index of the query within the session's stream.
    pub index: usize,
    /// What went wrong.
    pub error: SecTopKError,
}

/// Everything one session observed and produced over its lifetime.
#[derive(Debug)]
pub struct SessionReport {
    /// The session's id.
    pub session: SessionId,
    /// The session's derived seed (for replaying it in isolation).
    pub seed: u64,
    /// One outcome per successfully executed query, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Queries that failed, with their typed errors; serving continues past them.
    pub failures: Vec<QueryFailure>,
    /// The session's cumulative channel traffic.
    pub metrics: ChannelMetrics,
    /// Everything this session's S1 observed.
    pub s1_ledger: LeakageLedger,
    /// Everything this session's S2 engine observed (isolated per session).
    pub s2_ledger: LeakageLedger,
    /// Transport-level faults this session's connection absorbed without surfacing an
    /// error (reconnect-resume recoveries, shed requests retried to success).  Always
    /// zero for in-process sessions; deterministic under an injected [`FaultPlan`].
    /// Distinct from [`SessionReport::failures`], which are *query* failures.
    pub transport_failures: u64,
}

impl SessionReport {
    /// The planner decisions of the session's executed queries, in submission order.
    pub fn plans(&self) -> Vec<&PlanDecision> {
        self.outcomes.iter().filter_map(|o| o.stats.plan.as_ref()).collect()
    }
}

/// The result of serving one workload: per-session reports plus aggregate timing.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-session reports, ordered by session id.
    pub sessions: Vec<SessionReport>,
    /// Total number of queries submitted across all sessions.
    pub queries: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
    /// Snapshot of the server's metrics registry at the end of the run (request
    /// counters, latency histograms, pool and transport counters — see the
    /// `sectopk-metrics` crate).  Empty when the server was built with a disabled
    /// registry.  Serializable, so recorded bench runs can carry it.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// Aggregate throughput in queries per second.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.queries as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Total number of failed *queries* across all sessions.  Transport faults that
    /// were absorbed by retry are deliberately excluded — a recovered run reports zero
    /// here; see [`ServeReport::transport_failures`] for the absorbed-fault count.
    pub fn error_count(&self) -> usize {
        self.query_failures()
    }

    /// Total number of failed queries across all sessions ([`QueryFailure`] entries).
    /// The explicit name of what [`ServeReport::error_count`] has always counted,
    /// paired with [`ServeReport::transport_failures`] so the two failure classes can
    /// no longer be conflated.
    pub fn query_failures(&self) -> usize {
        self.sessions.iter().map(|s| s.failures.len()).sum()
    }

    /// Total transport-level faults absorbed invisibly by retry across all sessions
    /// (reconnect-resume recoveries, shed requests retried to success).
    pub fn transport_failures(&self) -> u64 {
        self.sessions.iter().map(|s| s.transport_failures).sum()
    }

    /// Histogram of the variants the executed queries ran under, as
    /// `(paper name, batching parameter, count)` rows — what makes a recorded bench run
    /// self-describing about the planner's choices.
    pub fn variant_histogram(&self) -> Vec<(&'static str, Option<usize>, usize)> {
        let mut rows: Vec<(&'static str, Option<usize>, usize)> = Vec::new();
        for session in &self.sessions {
            for plan in session.plans() {
                let key = (plan.variant_name(), plan.batching_parameter());
                match rows.iter_mut().find(|(n, p, _)| (*n, *p) == key) {
                    Some(row) => row.2 += 1,
                    None => rows.push((key.0, key.1, 1)),
                }
            }
        }
        rows
    }
}

/// The serving-layer metric handles one [`QueryClient`] reports into: planner-variant
/// counters are resolved lazily by name (the variant set is open-ended), idle-refill
/// counts and timings through pre-resolved handles.  All no-ops when the server's
/// registry is disabled.
#[derive(Clone, Debug)]
struct ClientMetrics {
    registry: Registry,
    idle_refills: Counter,
    idle_refill_nanos: Histogram,
}

impl ClientMetrics {
    fn from_registry(registry: &Registry) -> Self {
        ClientMetrics {
            registry: registry.clone(),
            idle_refills: registry.counter("serve.idle_refills"),
            idle_refill_nanos: registry.histogram("serve.idle_refill_nanos"),
        }
    }

    fn count_plan(&self, plan: &PlanDecision) {
        if self.registry.is_enabled() {
            self.registry.counter(&format!("serve.planner.{}", plan.variant_name())).incr();
        }
    }
}

/// One S1 serving session: a [`TwoClouds`] context connected to the shared S2 pool,
/// executing queries through the [`Session`] front door and accumulating its own
/// metrics, ledgers and failures.
#[derive(Debug)]
pub struct QueryClient {
    session: SessionId,
    seed: u64,
    clouds: TwoClouds,
    outsourced: Outsourced,
    keys: MasterKeys,
    rng: StdRng,
    outcomes: Vec<QueryOutcome>,
    failures: Vec<QueryFailure>,
    submitted: usize,
    client_metrics: ClientMetrics,
}

impl QueryClient {
    /// The session this client speaks for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Ship one raw protocol request through this session's transport — the hook the
    /// failure-isolation suite uses to prove that a malformed or mis-sequenced request
    /// comes back as a typed error frame without killing the shared S2 worker pool.
    pub fn send_raw_request(
        &mut self,
        request: sectopk_protocols::S1Request,
    ) -> sectopk_protocols::Result<sectopk_protocols::S2Response> {
        self.clouds.raw_round_trip(request)
    }

    /// Top this session's S1 nonce pools back up while no query is in flight.  Called
    /// by the serving loop between queries; harmless to call at any time (pool streams
    /// are position-deterministic, so eager refilling never changes protocol bytes).
    pub fn idle_refill(&mut self) {
        let timer = self.client_metrics.idle_refill_nanos.start();
        self.clouds.idle_refill(
            IDLE_REFILL_PAILLIER_NONCES,
            IDLE_REFILL_DJ_NONCES,
            IDLE_REFILL_OWN_NONCES,
        );
        self.client_metrics.idle_refill_nanos.stop(timer);
        self.client_metrics.idle_refills.incr();
    }

    /// Close the session and collect its report (metrics, both ledgers, all outcomes
    /// and failures).
    pub fn finish(self) -> SessionReport {
        let metrics = self.clouds.channel();
        let s1_ledger = self.clouds.s1_ledger().clone();
        let s2_ledger = self.clouds.s2_ledger();
        let transport_failures = self.clouds.faults_absorbed();
        SessionReport {
            session: self.session,
            seed: self.seed,
            outcomes: self.outcomes,
            failures: self.failures,
            metrics,
            s1_ledger,
            s2_ledger,
            transport_failures,
        }
    }
}

impl Session for QueryClient {
    fn num_objects(&self) -> usize {
        self.outsourced.num_objects()
    }

    fn num_attributes(&self) -> usize {
        self.outsourced.num_attributes()
    }

    fn link(&self) -> LinkProfile {
        self.clouds.link_profile()
    }

    fn batching(&self) -> bool {
        self.clouds.batching()
    }

    fn execute(&mut self, query: &Query) -> Result<ResolvedTopK> {
        let index = self.submitted;
        self.submitted += 1;
        let outsourced = self.outsourced.clone();
        let resolved = execute_with_clouds(
            &mut self.clouds,
            outsourced.er(),
            outsourced.object_ids(),
            &self.keys,
            &mut self.rng,
            query,
        );
        match resolved {
            Ok(resolved) => {
                if let Some(plan) = resolved.outcome.stats.plan.as_ref() {
                    self.client_metrics.count_plan(plan);
                }
                self.outcomes.push(resolved.outcome.clone());
                Ok(resolved)
            }
            Err(error) => {
                self.failures.push(QueryFailure { index, error: error.clone() });
                Err(error)
            }
        }
    }

    fn metrics(&self) -> ChannelMetrics {
        self.clouds.channel()
    }

    fn s1_ledger(&self) -> LeakageLedger {
        self.clouds.s1_ledger().clone()
    }

    fn s2_ledger(&self) -> LeakageLedger {
        self.clouds.s2_ledger()
    }

    fn reset_accounting(&mut self) {
        self.clouds.reset_accounting();
    }
}

/// The serving front door: the outsourced relation plus the shared S2 worker pool, from
/// which any number of client sessions can be opened.
#[derive(Debug)]
pub struct QueryServer {
    master: MasterKeys,
    outsourced: Outsourced,
    s2: Arc<MultiplexServer>,
    metrics: Registry,
}

impl QueryServer {
    /// Stand up a server around an outsourced relation with `s2_workers` S2 worker
    /// threads.  The master keys play both owner roles: S1 views are handed to each
    /// session, S2 views to each session's engine (Figure 1 of the paper).  Serving
    /// metrics are on by default; use [`Self::with_metrics`] with a disabled
    /// [`Registry`] to strip all instrumentation.
    pub fn new(master: &MasterKeys, outsourced: Outsourced, s2_workers: usize) -> Self {
        Self::with_metrics(master, outsourced, s2_workers, Registry::enabled())
    }

    /// [`Self::new`] with an explicit metrics [`Registry`].  The registry is shared by
    /// the S2 worker pool, every session's transport and the serving loop itself, so a
    /// single [`Self::metrics_snapshot`] covers the whole stack.  Instrumentation is
    /// strictly observational: enabled or not, protocol bytes, ledgers and
    /// [`ChannelMetrics`] are byte-identical (see `tests/metrics_invariance.rs`).
    pub fn with_metrics(
        master: &MasterKeys,
        outsourced: Outsourced,
        s2_workers: usize,
        metrics: Registry,
    ) -> Self {
        QueryServer {
            master: master.clone(),
            outsourced,
            s2: Arc::new(MultiplexServer::with_limits_and_metrics(
                s2_workers,
                PoolLimits::default(),
                metrics.clone(),
            )),
            metrics,
        }
    }

    /// The live metrics registry — poll it mid-run, or hand it to other components
    /// that should report into the same snapshot.
    pub fn metrics_registry(&self) -> &Registry {
        &self.metrics
    }

    /// A point-in-time snapshot of every counter, gauge and histogram — safe to call
    /// concurrently with serving (the live polling API).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Expose this server's S2 worker pool on a TCP listener at `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) — the `sectopk-s2d` serving shape.
    /// Networked sessions ([`sectopk_core::RemoteSession`] /
    /// `DataOwner::connect_remote`) and in-process sessions ([`Self::open_session`])
    /// are served by the *same* worker pool, so mixing them is safe and their ledgers
    /// stay per session.
    pub fn listen(&self, addr: &str) -> Result<TcpCloudServer> {
        TcpCloudServer::serve_pool(addr, Arc::clone(&self.s2), TcpServerConfig::default()).map_err(
            |e| ProtocolError::transport(format!("binding S2 listener at {addr}: {e}")).into(),
        )
    }

    /// The encrypted relation being served.
    pub fn relation(&self) -> &EncryptedRelation {
        self.outsourced.er()
    }

    /// The outsourced bundle (encrypted relation plus resolution universe).
    pub fn outsourced(&self) -> &Outsourced {
        &self.outsourced
    }

    /// Number of S2 worker threads.
    pub fn s2_workers(&self) -> usize {
        self.s2.workers()
    }

    /// An authorized client bound to this server's key material (token generation on
    /// behalf of connected clients).
    pub fn authorize_client(&self) -> AuthorizedClient {
        AuthorizedClient::from_keys(self.master.clone())
    }

    /// Open session `session` with an explicit seed (used by the determinism tests to
    /// replay one session in isolation).
    pub fn open_session(
        &self,
        session: SessionId,
        seed: u64,
        batching: bool,
        link: LinkProfile,
    ) -> Result<QueryClient> {
        self.open_session_with_workers(
            session,
            seed,
            batching,
            link,
            sectopk_protocols::intra_workers_from_env(),
        )
    }

    /// [`Self::open_session`] with an explicit intra-query worker count applied to both
    /// the session's S1 loops and its S2 engine.
    pub fn open_session_with_workers(
        &self,
        session: SessionId,
        seed: u64,
        batching: bool,
        link: LinkProfile,
        intra_workers: usize,
    ) -> Result<QueryClient> {
        let mut clouds = TwoClouds::connect_with_workers(
            &self.master,
            seed,
            batching,
            &self.s2,
            session,
            link,
            intra_workers,
        )?;
        clouds.set_metrics(&self.metrics, &session.0.to_string());
        Ok(QueryClient {
            session,
            seed,
            clouds,
            outsourced: self.outsourced.clone(),
            keys: self.master.clone(),
            rng: sectopk_core::resolution_rng(seed),
            outcomes: Vec::new(),
            failures: Vec::new(),
            submitted: 0,
            client_metrics: ClientMetrics::from_registry(&self.metrics),
        })
    }

    /// Open session `i` of a serving run configured by `config` (seed =
    /// `shard_seed(base_seed, i)`).
    pub fn open_configured(&self, i: u64, config: &ServeConfig) -> Result<QueryClient> {
        self.open_session_with_workers(
            SessionId(i),
            shard_seed(config.base_seed, i),
            config.batching,
            config.link,
            config.intra_workers,
        )
    }

    /// Open session `i` of a serving run over a real TCP connection to a
    /// [`TcpCloudServer`] at `addr`, with the same session id, seed and intra-query
    /// worker count [`Self::open_configured`] would use — and with `config`'s
    /// [`RetryPolicy`] and [`FaultPlan`] applied to the connection.  The TCP transport
    /// runs over an ideal link, so with `config.link` left ideal the session's reports
    /// are byte-identical to the in-process session of the same index.
    pub fn open_remote_session(
        &self,
        addr: &str,
        i: u64,
        config: &ServeConfig,
    ) -> Result<QueryClient> {
        let seed = shard_seed(config.base_seed, i);
        let options = TcpOptions::default()
            .with_session(SessionId(i))
            .with_retry(config.retry)
            .with_faults(config.faults);
        let mut clouds =
            TwoClouds::connect_tcp(&self.master, seed, config.batching, addr, options)?;
        clouds.set_intra_workers(config.intra_workers);
        clouds.set_metrics(&self.metrics, &i.to_string());
        Ok(QueryClient {
            session: SessionId(i),
            seed,
            clouds,
            outsourced: self.outsourced.clone(),
            keys: self.master.clone(),
            rng: sectopk_core::resolution_rng(seed),
            outcomes: Vec::new(),
            failures: Vec::new(),
            submitted: 0,
            client_metrics: ClientMetrics::from_registry(&self.metrics),
        })
    }

    /// The whole lifetime of one serving session: run its query stream (failures are
    /// recorded, not fatal) and report.  Every serving shape — [`QueryServer::serve`],
    /// [`QueryServer::serve_serial`] and [`QueryServer::serve_tcp`] — executes exactly
    /// this loop, which is what makes each of them a faithful determinism oracle for
    /// the others.
    fn run_client(
        mut client: QueryClient,
        queries: &[TopKQuery],
        config: &ServeConfig,
    ) -> SessionReport {
        let mut queries = queries.iter().peekable();
        while let Some(spec) = queries.next() {
            // A failed query is recorded in the client's failure list; the session (and
            // the rest of the serving run) keeps going.
            let _ = client.execute(&config.query_for(spec));
            if queries.peek().is_some() {
                // The session is idle between queries: use the gap to top up S1's nonce
                // pools, so the next query's encryptions pop precomputed nonces instead
                // of paying the exponentiations inline.  Pool streams are
                // position-deterministic, so this never changes protocol bytes.
                client.idle_refill();
            }
        }
        client.finish()
    }

    fn run_session(
        &self,
        i: usize,
        queries: &[TopKQuery],
        config: &ServeConfig,
    ) -> Result<SessionReport> {
        let client = self.open_configured(i as u64 + 1, config)?;
        Ok(Self::run_client(client, queries, config))
    }

    /// Serve `workload` with `config.sessions` concurrent sessions: queries are dealt
    /// round-robin ([`QueryWorkload::partition`]), each session runs its stream on its
    /// own thread against the shared S2 pool, and the per-session reports come back in
    /// session order.
    pub fn serve(&self, workload: &QueryWorkload, config: &ServeConfig) -> Result<ServeReport> {
        let partitions = workload.partition(config.sessions.max(1));
        let start = Instant::now();
        let mut reports: Vec<SessionReport> = Vec::with_capacity(partitions.len());
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(i, queries)| scope.spawn(move || self.run_session(i, queries, config)))
                .collect();
            for handle in handles {
                let report = handle
                    .join()
                    .map_err(|_| ProtocolError::transport("session thread panicked"))?;
                reports.push(report?);
            }
            Ok(())
        })?;
        Ok(ServeReport {
            sessions: reports,
            queries: workload.queries.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
            metrics: self.metrics.snapshot(),
        })
    }

    /// The serial reference execution: the same sessions, seeds and query streams as
    /// [`QueryServer::serve`], but run one session after another.  Produces
    /// byte-identical per-session reports — the determinism oracle for the concurrency
    /// tests.
    pub fn serve_serial(
        &self,
        workload: &QueryWorkload,
        config: &ServeConfig,
    ) -> Result<ServeReport> {
        let partitions = workload.partition(config.sessions.max(1));
        let start = Instant::now();
        let reports = partitions
            .iter()
            .enumerate()
            .map(|(i, queries)| self.run_session(i, queries, config))
            .collect::<Result<Vec<_>>>()?;
        Ok(ServeReport {
            sessions: reports,
            queries: workload.queries.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
            metrics: self.metrics.snapshot(),
        })
    }

    /// [`QueryServer::serve`], but with every session crossing a real TCP socket: the
    /// server's S2 pool is exposed on an ephemeral loopback listener, each session runs
    /// as a [`Self::open_remote_session`] client, and `config`'s [`RetryPolicy`] and
    /// [`FaultPlan`] govern the connections.  With `config.link` left ideal the
    /// per-session reports are byte-identical to [`QueryServer::serve`] — and, with
    /// faults injected but retry enabled, byte-identical to the fault-free run (the
    /// chaos-soak invariant).
    pub fn serve_tcp(&self, workload: &QueryWorkload, config: &ServeConfig) -> Result<ServeReport> {
        let listener = self.listen("127.0.0.1:0")?;
        let addr = listener.local_addr().to_string();
        let partitions = workload.partition(config.sessions.max(1));
        let start = Instant::now();
        let mut reports: Vec<SessionReport> = Vec::with_capacity(partitions.len());
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(i, queries)| {
                    let addr = addr.as_str();
                    scope.spawn(move || {
                        let client = self.open_remote_session(addr, i as u64 + 1, config)?;
                        Ok(Self::run_client(client, queries, config))
                    })
                })
                .collect();
            for handle in handles {
                let report: Result<SessionReport> = handle
                    .join()
                    .map_err(|_| ProtocolError::transport("session thread panicked"))?;
                reports.push(report?);
            }
            Ok(())
        })?;
        drop(listener);
        Ok(ServeReport {
            sessions: reports,
            queries: workload.queries.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
            metrics: self.metrics.snapshot(),
        })
    }
}

/// Extension trait putting the serving constructor on [`sectopk_core::DataOwner`]
/// itself, so the quickstart reads `owner.outsource(…)` → `owner.serve_relation(…)` →
/// `server.open_session(…)`.
pub trait ServeExt {
    /// Stand up a [`QueryServer`] around an outsourced relation with `s2_workers` S2
    /// worker threads.
    fn serve_relation(&self, outsourced: &Outsourced, s2_workers: usize) -> QueryServer;
}

impl ServeExt for sectopk_core::DataOwner {
    fn serve_relation(&self, outsourced: &Outsourced, s2_workers: usize) -> QueryServer {
        QueryServer::new(self.keys(), outsourced.clone(), s2_workers)
    }
}
