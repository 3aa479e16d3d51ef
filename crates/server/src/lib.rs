//! # sectopk-server
//!
//! Multi-session top-k query serving: the paper's two-cloud construction run as a
//! *service* instead of a single-shot protocol.
//!
//! A [`QueryServer`] owns the outsourced encrypted relation and a shared
//! [`MultiplexServer`] — the crypto cloud S2 as a session table plus a budget of compute
//! permits: a request runs on the thread of the session that sent it.  Every client
//! session is the one session type of `sectopk-core`, a [`DirectSession`] seated in the
//! shared S2 pool, so the serving path and the direct two-cloud path are the same
//! `execute(Query) → ResolvedTopK` front door, including the adaptive variant planner.
//! The serving loop keeps the run's books — each session's id and seed, its answers and
//! its index-stamped failures — and builds each [`SessionReport`] from them.
//!
//! ```text
//!   client 1 ── Query stream ──▶ DirectSession 1 (S1 state, session 1) ──┐
//!   client 2 ── Query stream ──▶ DirectSession 2 (S1 state, session 2) ──┤ envelopes
//!      …                               …                                 ├────────▶ S2
//!   client N ── Query stream ──▶ DirectSession N (S1 state, session N) ──┘ (W permits)
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
//! [`ServeConfig`] has three, each read by every serving door: `sessions` (concurrent
//! S1 clients), `base_seed` and `variant` — [`VariantChoice::Auto`] lets the planner
//! pick `Qry_F`/`Qry_E`/`Qry_Ba` per query; the decision lands in each outcome's
//! [`QueryStats::plan`](sectopk_core::QueryStats) so serving reports are
//! self-describing.  Where the socket run dials is an argument of
//! [`QueryServer::serve_tcp`]: a deployment setting, not a knob.  A serving run scans to
//! the halting condition and runs over an ideal link; a session over a simulated WAN
//! (§11.2.5) is opened by hand with [`QueryServer::open_session`].  The S2 pool width is
//! set at [`QueryServer::new`]; each party's intra-query worker count is its share of
//! the machine, or `SECTOPK_INTRA_PARALLEL`'s count when that is set.

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
    DirectSession, Outsourced, PlanDecision, Query, QueryOutcome, Result, SecTopKError, Session,
    VariantChoice,
};
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::pool::shard_seed;
use sectopk_datasets::QueryWorkload;
use sectopk_metrics::{MetricsSnapshot, Registry};
use sectopk_protocols::context::require_batching;
use sectopk_protocols::{
    ChannelMetrics, LeakageLedger, LinkProfile, MultiplexServer, PoolLimits, ProtocolError,
    SessionId, TcpCloudServer, TwoClouds, DEFAULT_PARK_TTL,
};
use sectopk_storage::{EncryptedRelation, TopKQuery};

/// Shape of one serving run: how many concurrent sessions and how each query executes —
/// what every serving door reads.  (The S2 compute budget is a property of the
/// [`QueryServer`] itself, set at construction; worker counts are each party's share of
/// the machine.)
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of concurrent S1 sessions (client connections).
    pub sessions: usize,
    /// How the processing variant is chosen for every query of the run.
    pub variant: VariantChoice,
    /// Base seed; session `i` runs under `shard_seed(base_seed, i)`.
    pub base_seed: u64,
}

impl ServeConfig {
    /// A serving configuration with `sessions` concurrent sessions and the
    /// full-privacy query variant.
    pub fn new(sessions: usize, base_seed: u64) -> Self {
        ServeConfig {
            sessions,
            variant: VariantChoice::Fixed(sectopk_core::QueryVariant::Full),
            base_seed,
        }
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
    /// deterministic when the faults come on a fixed schedule of the session's frames.
    /// Distinct from [`SessionReport::failures`], which are *query* failures.
    pub transport_failures: u64,
}

impl SessionReport {
    /// The report of session `session`, run under `seed`: metrics, both ledgers and the
    /// absorbed transport faults read off the session itself, `outcomes` and `failures`
    /// from whoever ran it — the answers [`Session::execute`] returned and the queries it
    /// refused, in submission order (a hand-driven session that does not want a full
    /// report passes none).
    pub fn new(
        session: SessionId,
        seed: u64,
        ran: &DirectSession,
        outcomes: Vec<QueryOutcome>,
        failures: Vec<QueryFailure>,
    ) -> Self {
        SessionReport {
            session,
            seed,
            outcomes,
            failures,
            metrics: ran.metrics(),
            s1_ledger: ran.s1_ledger(),
            s2_ledger: ran.s2_ledger(),
            transport_failures: ran.clouds().faults_absorbed(),
        }
    }

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

/// How a serving session's S1 reaches the server's S2 pool — the only thing that
/// differs between the doors of a [`QueryServer`].
enum Door<'a> {
    /// The pool's in-memory conduit, over a simulated link.
    Conduit(LinkProfile),
    /// A real socket to a [`TcpCloudServer`] in front of the pool, at this address.
    Socket(&'a str),
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
    /// the S2 pool and every session's transport, so a single
    /// [`Self::metrics_snapshot`] covers the whole stack.  Instrumentation is
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
    ) -> Result<DirectSession> {
        require_batching(batching)?;
        self.seat(session, seed, Door::Conduit(link))
    }

    /// The one place a serving session is built: connect a [`TwoClouds`] through
    /// `door`, label its round metrics, and wrap the session around it.
    fn seat(&self, session: SessionId, seed: u64, door: Door<'_>) -> Result<DirectSession> {
        if session == SessionId(0) {
            let why = "a serving session needs an id of its own; SessionId(0) names none";
            return Err(ProtocolError::transport_rejected(why).into());
        }
        let master = &self.master;
        let s2 = &self.s2;
        let mut clouds = match door {
            Door::Conduit(link) => TwoClouds::connect(master, seed, true, s2, session, link)?,
            Door::Socket(addr) => TwoClouds::connect_tcp(master, seed, addr, session)?,
        };
        clouds.set_metrics(&self.metrics, &session.0.to_string());
        Ok(DirectSession::new(clouds, self.outsourced.clone(), master.clone(), seed))
    }

    /// The serving loop, written once.  Queries are dealt round-robin
    /// ([`QueryWorkload::partition`]); session `i` is opened under the id `i` and the
    /// seed `shard_seed(base_seed, i)` over the pool's conduit — or, given a `socket`
    /// (the address of a listener in front of the pool), over a real socket to it — and
    /// runs its stream: a failed query is recorded under its index in the stream and
    /// the session keeps going.
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
        socket: Option<&str>,
    ) -> Result<ServeReport> {
        let partitions = workload.partition(config.sessions.max(1));
        let start = Instant::now();
        let run_session = |(i, queries): (usize, &Vec<TopKQuery>)| -> Result<SessionReport> {
            let door = socket.map_or(Door::Conduit(LinkProfile::ideal()), Door::Socket);
            let id = SessionId(i as u64 + 1);
            let seed = shard_seed(config.base_seed, id.0);
            let mut session = self.seat(id, seed, door)?;
            let (mut outcomes, mut failures) = (Vec::with_capacity(queries.len()), Vec::new());
            for (index, spec) in queries.iter().enumerate() {
                let query = Query::from_spec(spec.clone()).with_variant(config.variant);
                match session.execute(&query) {
                    Ok(answer) => outcomes.push(answer.outcome),
                    Err(error) => failures.push(QueryFailure { index, error }),
                }
            }
            Ok(SessionReport::new(id, seed, &session, outcomes, failures))
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

    /// [`QueryServer::serve`], but with every session crossing a real TCP socket: each
    /// session dials `addr` — a listener from [`QueryServer::listen`], or anything that
    /// forwards to one — under the id and seed [`QueryServer::serve`] gives it.  The
    /// caller owns the listener.  The per-session reports are byte-identical to
    /// [`QueryServer::serve`] — and, with connections dropped on the way, byte-identical
    /// to the undisturbed run, since every socket session recovers them transparently
    /// (the chaos-soak invariant).
    pub fn serve_tcp(
        &self,
        workload: &QueryWorkload,
        config: &ServeConfig,
        addr: &str,
    ) -> Result<ServeReport> {
        self.run(workload, config, true, Some(addr))
    }
}
