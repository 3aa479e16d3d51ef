//! # sectopk-server
//!
//! Multi-session top-k query serving: the paper's two-cloud construction run as a
//! *service* instead of a single-shot protocol.
//!
//! A [`QueryServer`] owns the outsourced encrypted relation and a shared
//! [`MultiplexServer`] — the crypto cloud S2 as a session table plus a budget of compute
//! permits: a request runs on the thread of the session that sent it.  Every client
//! session is one [`QueryClient`]: the one session type of `sectopk-core`
//! ([`DirectSession`]) seated in the shared S2 pool, plus the serving bookkeeping a
//! [`SessionReport`] needs (session id, seed, failure list, serving metrics).  It
//! implements [`Session`] by handing out the wrapped session's clouds, so the serving
//! path and the direct two-cloud path are the same `execute(Query) → ResolvedTopK`
//! front door, including the adaptive variant planner.
//!
//! ```text
//!   client 1 ── Query stream ──▶ QueryClient 1 (S1 state, session 1) ──┐
//!   client 2 ── Query stream ──▶ QueryClient 2 (S1 state, session 2) ──┤ envelopes
//!      …                               …                               ├──────────▶ S2
//!   client N ── Query stream ──▶ QueryClient N (S1 state, session N) ──┘ (W permits)
//! ```
//!
//! # Determinism guarantees
//!
//! Session *i* derives every random choice (S1 RNG, nonce-pool shards, the session's
//! S2 engine, the resolution RNG) from `shard_seed(base_seed, i)`, and all server-side
//! mutable state is per-session.  [`QueryServer::serve`] (all sessions concurrently),
//! [`QueryServer::serve_serial`] (same sessions one after another) and
//! [`QueryServer::serve_tcp`] (concurrently, over real sockets) are three calls of one
//! serving loop that differ only in how a session is opened and whether sessions
//! overlap, so they produce **byte-identical** per-session results, metrics and
//! ledgers — scheduling, interleaving and the pipe are unobservable.
//! `tests/concurrent_sessions.rs` asserts this for 16 concurrent sessions.
//!
//! # Failure isolation
//!
//! A query that fails — an invalid attribute set, a malformed request answered by S2
//! with a typed error frame — is recorded in the session's [`SessionReport::failures`]
//! and serving continues; one misbehaving session can never take down the pool or its
//! neighbours (`tests/concurrent_sessions.rs` has the regression test).
//!
//! # Knobs
//!
//! [`ServeConfig`] has five: `sessions` (concurrent S1 clients), `base_seed`,
//! `variant` — [`VariantChoice::Auto`] lets the planner pick `Qry_F`/`Qry_E`/`Qry_Ba`
//! per query; the decision lands in each outcome's
//! [`QueryStats::plan`](sectopk_core::QueryStats) so serving reports are
//! self-describing — `intra_workers`, and `faults` for the socket run.  A
//! serving run scans to the halting condition and runs over an ideal link; a session
//! over a simulated WAN (§11.2.5) is opened by hand with [`QueryServer::open_session`].
//! The S2 pool width is set at [`QueryServer::new`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::sync::Arc;
use std::time::Instant;

use sectopk_core::{
    AuthorizedClient, DirectSession, Outsourced, PlanDecision, Query, QueryOutcome, ResolvedTopK,
    Result, SecTopKError, Session, VariantChoice,
};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::pool::shard_seed;
use sectopk_datasets::QueryWorkload;
use sectopk_metrics::{MetricsSnapshot, Registry};
use sectopk_protocols::context::require_batching;
use sectopk_protocols::{
    ChannelMetrics, FaultPlan, LeakageLedger, LinkProfile, MultiplexServer, PoolLimits,
    ProtocolError, SessionId, TcpCloudServer, TcpOptions, TwoClouds, DEFAULT_PARK_TTL,
};
use sectopk_storage::{EncryptedRelation, TopKQuery};

/// Shape of one serving run: how many concurrent sessions and how each query executes.
/// (The S2 compute budget is a property of the [`QueryServer`] itself, set at
/// construction.)
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of concurrent S1 sessions (client connections).
    pub sessions: usize,
    /// How the processing variant is chosen for every query of the run.
    pub variant: VariantChoice,
    /// Base seed; session `i` runs under `shard_seed(base_seed, i)`.
    pub base_seed: u64,
    /// An exact intra-query worker count for each session's S1 loops *and* its S2
    /// engine.  `None` (the default): each side's own default — the
    /// `SECTOPK_INTRA_PARALLEL` environment variable's count if set, else its share of
    /// the machine: S1 the cores divided among the live sessions, the engine those
    /// divided among the sessions its pool may compute for at once.  Worker count only
    /// changes wall-clock: results, ledgers and metrics are byte-identical.
    pub intra_workers: Option<usize>,
    /// Deterministic fault injection for [`QueryServer::serve_tcp`] sessions — the
    /// chaos-soak knob.  A socket session recovers an injected drop transparently, so
    /// the run's reports stay byte-identical.
    pub faults: FaultPlan,
}

impl ServeConfig {
    /// A serving configuration with `sessions` concurrent sessions and the
    /// full-privacy query variant.
    pub fn new(sessions: usize, base_seed: u64) -> Self {
        ServeConfig {
            sessions,
            variant: VariantChoice::Fixed(sectopk_core::QueryVariant::Full),
            base_seed,
            intra_workers: None,
            faults: FaultPlan::none(),
        }
    }

    /// Inject connection faults on `faults`' schedule into networked
    /// ([`QueryServer::serve_tcp`]) sessions.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set an exact intra-query worker count (minimum 1; 1 = fully serial).
    pub fn with_intra_workers(mut self, workers: usize) -> Self {
        self.intra_workers = Some(workers.max(1));
        self
    }

    /// Replace the variant choice ([`VariantChoice::Auto`] hands every query to the
    /// planner).
    pub fn with_variant(mut self, variant: VariantChoice) -> Self {
        self.variant = variant;
        self
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
    /// error (reconnect-resume recoveries).  Always zero for in-process sessions;
    /// deterministic under an injected [`FaultPlan`].
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

    /// Total number of failed *queries* across all sessions ([`QueryFailure`]
    /// entries).  Transport faults that were absorbed by retry are deliberately
    /// excluded — a recovered run reports zero here; see
    /// [`ServeReport::transport_failures`] for the absorbed-fault count.
    pub fn query_failures(&self) -> usize {
        self.sessions.iter().map(|s| s.failures.len()).sum()
    }

    /// Total transport-level faults absorbed invisibly by retry across all sessions
    /// (reconnect-resume recoveries).
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

/// One S1 serving session: the session type every door opens ([`DirectSession`]),
/// seated in the server's S2 pool, plus what a [`SessionReport`] needs beyond it — the
/// session's id and seed, its failure list, and the serving-layer metric handles (all
/// no-ops when the server's registry is disabled).  State per executed query is O(1):
/// answers are handed to the caller, not kept.
#[derive(Debug)]
pub struct QueryClient {
    inner: DirectSession,
    session: SessionId,
    seed: u64,
    failures: Vec<QueryFailure>,
    submitted: usize,
    registry: Registry,
}

impl QueryClient {
    /// The session this client speaks for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Close the session and build its report: metrics, both ledgers and the failure
    /// list from the session itself, `outcomes` from whoever ran it — the answers
    /// [`Session::execute`] returned, in submission order (the serving loop collects
    /// them; a hand-driven session that does not want a full report passes none).
    pub fn finish(self, outcomes: Vec<QueryOutcome>) -> SessionReport {
        SessionReport {
            session: self.session,
            seed: self.seed,
            outcomes,
            failures: self.failures,
            metrics: self.inner.metrics(),
            s1_ledger: self.inner.s1_ledger(),
            s2_ledger: self.inner.s2_ledger(),
            transport_failures: self.inner.clouds().faults_absorbed(),
        }
    }
}

impl Session for QueryClient {
    fn clouds(&self) -> &TwoClouds {
        self.inner.clouds()
    }

    fn clouds_mut(&mut self) -> &mut TwoClouds {
        self.inner.clouds_mut()
    }

    fn outsourced(&self) -> &Outsourced {
        self.inner.outsourced()
    }

    /// [`DirectSession`]'s `execute`, with the serving bookkeeping around it: the
    /// planner's choice is counted (`serve.planner.<variant>`), a failure is recorded
    /// under the query's index in the session's stream.
    fn execute(&mut self, query: &Query) -> Result<ResolvedTopK> {
        let index = self.submitted;
        self.submitted += 1;
        let resolved = self.inner.execute(query);
        match &resolved {
            Ok(answer) => {
                if let (Some(plan), true) = (answer.plan(), self.registry.is_enabled()) {
                    self.registry.counter(&format!("serve.planner.{}", plan.variant_name())).incr();
                }
            }
            Err(error) => self.failures.push(QueryFailure { index, error: error.clone() }),
        }
        resolved
    }
}

/// How a serving session's S1 reaches the server's S2 pool — the only thing that
/// differs between the doors of a [`QueryServer`].
enum Door<'a> {
    /// The pool's in-memory conduit, over a simulated link.
    Conduit(LinkProfile),
    /// A real socket to a [`TcpCloudServer`] in front of the pool.
    Socket(&'a str, TcpOptions),
}

/// The serving front door: the outsourced relation plus the shared S2 pool, from
/// which any number of client sessions can be opened.
#[derive(Debug)]
pub struct QueryServer {
    master: MasterKeys,
    outsourced: Outsourced,
    s2: Arc<MultiplexServer>,
    metrics: Registry,
}

impl QueryServer {
    /// Stand up a server around an outsourced relation on whose S2 pool `s2_workers`
    /// requests may execute at once.  The master keys play both owner roles: S1 views
    /// are handed to each session, S2 views to each session's engine (Figure 1 of the
    /// paper).  Serving metrics are on by default; use [`Self::with_metrics`] with a
    /// disabled [`Registry`] to strip all instrumentation.
    pub fn new(master: &MasterKeys, outsourced: Outsourced, s2_workers: usize) -> Self {
        Self::with_metrics(master, outsourced, s2_workers, Registry::enabled())
    }

    /// [`Self::new`] with an explicit metrics [`Registry`].  The registry is shared by
    /// the S2 pool, every session's transport and the serving loop itself, so a
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

    /// A point-in-time snapshot of every counter and histogram — safe to call
    /// concurrently with serving (the live polling API).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Expose this server's S2 pool on a TCP listener at `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port) — the `sectopk-s2d` serving shape.
    /// Networked sessions (`DataOwner::connect_remote`) and in-process sessions
    /// ([`Self::open_session`]) are served by the *same* pool, so mixing them
    /// is safe and their ledgers stay per session.
    pub fn listen(&self, addr: &str) -> Result<TcpCloudServer> {
        TcpCloudServer::serve_pool(addr, Arc::clone(&self.s2), DEFAULT_PARK_TTL).map_err(|e| {
            ProtocolError::transport(format!("binding S2 listener at {addr}: {e}")).into()
        })
    }

    /// The encrypted relation being served.
    pub fn relation(&self) -> &EncryptedRelation {
        self.outsourced.er()
    }

    /// The outsourced bundle (encrypted relation plus resolution universe).
    pub fn outsourced(&self) -> &Outsourced {
        &self.outsourced
    }

    /// Number of S2 requests that may execute at once.
    pub fn s2_workers(&self) -> usize {
        self.s2.workers()
    }

    /// An authorized client bound to this server's key material (token generation on
    /// behalf of connected clients).
    pub fn authorize_client(&self) -> AuthorizedClient {
        AuthorizedClient::from_keys(self.master.clone())
    }

    /// Open session `session` with an explicit seed and simulated link (used by the
    /// determinism tests to replay one session in isolation, and for sessions over a
    /// WAN); `batching` must be `true` ([`require_batching`]).  The id keys the session's
    /// report and its `session.{id}.*` metrics, so it must be the caller's:
    /// `SessionId(0)` ("assign one" on the wire) is rejected here, as is an id that is
    /// already seated.
    pub fn open_session(
        &self,
        session: SessionId,
        seed: u64,
        batching: bool,
        link: LinkProfile,
    ) -> Result<QueryClient> {
        require_batching(batching)?;
        self.seat(session, seed, None, Door::Conduit(link))
    }

    /// Open session `i` of a serving run configured by `config` (seed =
    /// `shard_seed(base_seed, i)`, ideal link).
    pub fn open_configured(&self, i: u64, config: &ServeConfig) -> Result<QueryClient> {
        self.open_for_run(i, config, Door::Conduit(LinkProfile::ideal()))
    }

    /// Session `i` of a serving run, through `door`: the id, seed and worker count are
    /// the run's, whatever moves the bytes.
    fn open_for_run(&self, i: u64, config: &ServeConfig, door: Door<'_>) -> Result<QueryClient> {
        self.seat(SessionId(i), shard_seed(config.base_seed, i), config.intra_workers, door)
    }

    /// The one place a serving session is built: connect a [`TwoClouds`] through
    /// `door` (with an exact `intra_workers` on S1's loops and, over the conduit, on the
    /// session's S2 engine; `None` leaves both on their share), label its round
    /// metrics, and wrap the session around it.
    fn seat(
        &self,
        session: SessionId,
        seed: u64,
        intra_workers: Option<usize>,
        door: Door<'_>,
    ) -> Result<QueryClient> {
        if session == SessionId(0) {
            let why = "a serving session needs an id of its own; SessionId(0) names none";
            return Err(ProtocolError::transport_rejected(why).into());
        }
        let master = &self.master;
        let s2 = &self.s2;
        let mut clouds = match (door, intra_workers) {
            (Door::Conduit(link), None) => {
                TwoClouds::connect(master, seed, true, s2, session, link)?
            }
            (Door::Conduit(link), Some(workers)) => {
                TwoClouds::connect_with_workers(master, seed, s2, session, link, workers)?
            }
            (Door::Socket(addr, options), _) => {
                TwoClouds::connect_tcp(master, seed, addr, options.with_session(session))?
            }
        };
        if let Some(workers) = intra_workers {
            clouds.set_intra_workers(workers);
        }
        clouds.set_metrics(&self.metrics, &session.0.to_string());
        Ok(QueryClient {
            inner: DirectSession::new(clouds, self.outsourced.clone(), master.clone(), seed),
            session,
            seed,
            failures: Vec::new(),
            submitted: 0,
            registry: self.metrics.clone(),
        })
    }

    /// The serving loop, written once.  Queries are dealt round-robin
    /// ([`QueryWorkload::partition`]); session `i` is opened over the pool's conduit —
    /// or, given a `listener` in front of the pool, over a real socket to it under
    /// `config`'s [`FaultPlan`] — and runs its stream: a failed
    /// query is recorded in the client's failure list and the session keeps going.
    /// `concurrent` puts every session on its own thread against the
    /// shared S2 pool; otherwise they run one after another.  Reports come back in
    /// session order either way, which is what makes each public serving shape a
    /// faithful determinism oracle for the others.
    #[expect(
        clippy::disallowed_methods,
        reason = "ServeReport wall_seconds diagnostics only: reported to the operator and excluded \
                  from the per-session byte-identity comparisons"
    )]
    fn run(
        &self,
        workload: &QueryWorkload,
        config: &ServeConfig,
        concurrent: bool,
        listener: Option<TcpCloudServer>,
    ) -> Result<ServeReport> {
        let addr = listener.as_ref().map(|l| l.local_addr().to_string());
        let options = TcpOptions::default().with_faults(config.faults);
        let partitions = workload.partition(config.sessions.max(1));
        let start = Instant::now();
        let run_session = |(i, queries): (usize, &Vec<TopKQuery>)| -> Result<SessionReport> {
            let door = match &addr {
                Some(addr) => Door::Socket(addr, options.clone()),
                None => Door::Conduit(LinkProfile::ideal()),
            };
            let mut client = self.open_for_run(i as u64 + 1, config, door)?;
            let mut outcomes = Vec::with_capacity(queries.len());
            for spec in queries {
                let query = Query::from_spec(spec.clone()).with_variant(config.variant);
                if let Ok(answer) = client.execute(&query) {
                    outcomes.push(answer.outcome);
                }
            }
            Ok(client.finish(outcomes))
        };
        let jobs = partitions.iter().enumerate();
        let sessions = if concurrent {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    jobs.map(|job| scope.spawn(move || run_session(job))).collect();
                let joined = handles.into_iter().map(|handle| {
                    handle
                        .join()
                        .map_err(|_| ProtocolError::transport("session thread panicked"))?
                });
                joined.collect::<Result<Vec<_>>>()
            })?
        } else {
            jobs.map(run_session).collect::<Result<Vec<_>>>()?
        };
        // Joins the listener's connection threads, so the snapshot below is quiescent.
        drop(listener);
        Ok(ServeReport {
            sessions,
            queries: workload.queries.len(),
            wall_seconds: start.elapsed().as_secs_f64(),
            metrics: self.metrics.snapshot(),
        })
    }

    /// Serve `workload` with `config.sessions` concurrent sessions: each session runs
    /// its stream on its own thread against the shared S2 pool, and the per-session
    /// reports come back in session order.
    pub fn serve(&self, workload: &QueryWorkload, config: &ServeConfig) -> Result<ServeReport> {
        self.run(workload, config, true, None)
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
        self.run(workload, config, false, None)
    }

    /// [`QueryServer::serve`], but with every session crossing a real TCP socket: the
    /// server's S2 pool is exposed on an ephemeral loopback listener, each session
    /// connects to it under the id and seed [`Self::open_configured`] would use, and
    /// `config`'s [`FaultPlan`] injects faults into the connections.  The per-session
    /// reports are byte-identical to [`QueryServer::serve`] — and, with faults injected,
    /// byte-identical to the fault-free run, since every socket session recovers them
    /// transparently (the chaos-soak invariant).
    pub fn serve_tcp(&self, workload: &QueryWorkload, config: &ServeConfig) -> Result<ServeReport> {
        self.run(workload, config, true, Some(self.listen("127.0.0.1:0")?))
    }
}
