//! One run of one workload: set the system up, execute the query lists, check every
//! answer, and turn what was observed into metric values.
//!
//! With tracing off the run measures the end-to-end metrics through
//! `Session::execute`.  With tracing on it executes the same four stages itself, each
//! inside a span, and derives the per-layer metrics from the spans.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    check_ledgers, plan_for, resolution_rng, resolve_results, sec_query, AuthorizedClient,
    DataOwner, DirectSession, Outsourced, Query, RemoteSession, ResolvedTopK, SecTopKError,
    Session, TransportKind,
};
use sectopk_crypto::pool::shard_seed;
use sectopk_metrics::Registry;
use sectopk_protocols::{
    ChannelMetrics, LinkProfile, MultiplexServer, PoolLimits, SessionId, TwoClouds,
};
use sectopk_server::QueryServer;
use sectopk_storage::{EncryptionStats, ObjectId, Relation};

use crate::calibrate::{timed, Timing};
use crate::metrics::{mean, median, per_layer, put, quantile, Values, END_TO_END, ROUND_KINDS};
use crate::process::{cpu_seconds, peak_rss_mb, Daemon};
use crate::trace::{write_jsonl, Recorder, Span};
use crate::workload::{
    check_answer, oracle, query_list, relation, Deployment, QuerySpec, Spec, EHL_KEYS,
    MODULUS_BITS, WARMUP_QUERIES,
};

/// How often a run sets the system up; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Stage spans may fall short of their query span by this share.
const MAX_STAGE_GAP: f64 = 0.03;
/// Share of wall time, with one session against the daemon (`lan-mixed`), that neither
/// process's CPU time accounts for.
const MAX_UNATTRIBUTED: f64 = 0.10;

pub struct Options {
    pub spec: Spec,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
}

/// What one run observed.
pub struct Outcome {
    /// The end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
    pub values: Values,
    /// Queries executed in the measured phases.
    pub attempted: usize,
    /// Queries that returned an error, a wrong answer or a leakage-profile violation,
    /// or (traced) differed from the untraced pass.
    pub failed: usize,
    /// What went wrong, one line per failure.
    pub failures: Vec<String>,
    /// Measurement self-checks of the traced pass that did not hold.
    pub broken_checks: Vec<String>,
    /// Where the traced pass wrote its spans.
    pub trace_file: Option<PathBuf>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The system as set up for one run, minus the sessions.
struct Deployed {
    owner: DataOwner,
    relation: Relation,
    outsourced: Outsourced,
    enc_stats: EncryptionStats,
    daemon: Option<Daemon>,
    server: Option<QueryServer>,
    connect_s: f64,
}

type BoxedSession = Box<dyn Session + Send>;

impl Deployed {
    /// The seed of session `session` in set-up number `rep`.
    fn session_seed(seed: u64, rep: usize, session: usize) -> u64 {
        shard_seed(seed, (100 * rep + session + 1) as u64)
    }

    /// Open session number `session` the way a user of this deployment would.
    fn open(
        &self,
        spec: &Spec,
        seed: u64,
        rep: usize,
        session: usize,
    ) -> Result<BoxedSession, String> {
        let seed = Self::session_seed(seed, rep, session);
        Ok(match (&self.daemon, &self.server) {
            (Some(daemon), _) => Box::new(
                self.owner.connect_remote(&self.outsourced, daemon.addr(), seed).map_err(err)?,
            ),
            (None, Some(server)) => Box::new(
                server
                    .open_session(
                        SessionId(session as u64 + 1),
                        seed,
                        true,
                        LinkProfile::with_rtt_ms(spec.rtt_ms()),
                    )
                    .map_err(err)?,
            ),
            (None, None) => Box::new(
                self.owner
                    .connect_with(&self.outsourced, seed, TransportKind::InProcess, true)
                    .map_err(err)?,
            ),
        })
    }
}

/// Key generation, relation generation, `outsource_parallel`, deployment start and
/// connecting every session.  A run sets up several times; `rep` gives each time its own
/// key and session seeds, because how long the searches for the owner's and S1's primes
/// take is luck of the seed (a factor of 3 on the small set-ups), and the median over
/// differently seeded set-ups is steadier than nine copies of one.
fn set_up(spec: &Spec, seed: u64, rep: usize) -> Result<(Deployed, Vec<BoxedSession>), String> {
    let mut rng = StdRng::seed_from_u64(shard_seed(seed, 1_000_000 + rep as u64));
    let owner = DataOwner::new(MODULUS_BITS, EHL_KEYS, &mut rng).map_err(err)?;
    let relation = relation(spec, seed);
    let (outsourced, enc_stats) = owner.outsource_parallel(&relation, &mut rng).map_err(err)?;
    let (daemon, server) = match spec.deployment {
        Deployment::Daemon { workers } => (Some(Daemon::spawn(workers)?), None),
        Deployment::Server { workers, .. } => {
            (None, Some(QueryServer::new(owner.keys(), outsourced.clone(), workers)))
        }
        Deployment::InProcess => (None, None),
    };
    let mut deployed =
        Deployed { owner, relation, outsourced, enc_stats, daemon, server, connect_s: 0.0 };
    let connect_start = Instant::now();
    let sessions = (0..spec.sessions)
        .map(|s| deployed.open(spec, seed, rep, s))
        .collect::<Result<Vec<_>, _>>()?;
    deployed.connect_s = connect_start.elapsed().as_secs_f64();
    Ok((deployed, sessions))
}

/// One executed query, as far as the metrics need it.
#[derive(Clone, Debug, PartialEq)]
struct QueryRecord {
    timing: Timing,
    /// Seconds of `timing` spent waiting on the simulated link: rounds × RTT.
    wait_s: f64,
    ok: bool,
    depths: usize,
    rounds: u64,
    bytes: u64,
    answer: Vec<ObjectId>,
    halting_checks: usize,
    tracked_len: usize,
    depth_ms_first: f64,
    depth_ms_last: f64,
    estimated_depths: usize,
}

impl QueryRecord {
    /// Latency at reference CPU speed (see `calibrate`).
    fn ms(&self) -> f64 {
        self.timing.normalised_s(self.wait_s) * 1e3
    }

    fn compute_s(&self) -> f64 {
        (self.timing.raw_s - self.wait_s).max(0.0)
    }

    /// What a wall-clock time measured inside this query is multiplied by to put it at
    /// reference CPU speed.
    fn scale(&self) -> f64 {
        self.ms() / 1e3 / self.timing.raw_s
    }
}

/// One session's share of a run.
#[derive(Default)]
struct SessionLog {
    records: Vec<QueryRecord>,
    failures: Vec<String>,
}

/// A session's inputs: its queries, built, with the oracle's answer to each.
struct Script {
    specs: Vec<QuerySpec>,
    queries: Vec<Query>,
    expected: Vec<Vec<u128>>,
}

impl Script {
    fn new(spec: &Spec, relation: &Relation, seed: u64, session: usize) -> Result<Script, String> {
        let specs = query_list(spec, relation, seed, session);
        let expected = specs.iter().map(|q| oracle(relation, q)).collect::<Result<Vec<_>, _>>()?;
        let queries = specs.iter().map(QuerySpec::build).collect();
        Ok(Script { specs, queries, expected })
    }
}

/// What came back from executing query number `index` of a session.
struct Executed {
    index: usize,
    timing: Timing,
    used: ChannelMetrics,
    result: Result<ResolvedTopK, SecTopKError>,
}

/// Check one executed query against the oracle and keep what the metrics need.
fn record(
    spec: &Spec,
    relation: &Relation,
    script: &Script,
    executed: Executed,
    log: &mut SessionLog,
) {
    let Executed { index, timing, used, result } = executed;
    let slot = index % script.specs.len();
    let checked = match &result {
        Ok(answer) => check_answer(relation, &script.specs[slot], &script.expected[slot], answer),
        Err(e) => Err(format!("error: {e}")),
    };
    if let Err(why) = &checked {
        log.failures.push(format!("query {index} ({:?}): {why}", script.specs[slot]));
    }
    let stats = result.as_ref().map(|answer| answer.stats().clone()).unwrap_or_default();
    let depth_ms = |s: Option<&f64>| s.map_or(0.0, |s| s * 1e3);
    log.records.push(QueryRecord {
        timing,
        wait_s: (used.rounds * spec.rtt_ms()) as f64 / 1e3,
        ok: checked.is_ok(),
        depths: stats.depths_scanned,
        rounds: used.rounds,
        bytes: used.bytes,
        answer: result.as_ref().map(ResolvedTopK::object_ids).unwrap_or_default(),
        halting_checks: stats.halting_checks,
        tracked_len: stats.final_tracked_len,
        depth_ms_first: depth_ms(stats.per_depth_seconds.first()),
        depth_ms_last: depth_ms(stats.per_depth_seconds.last()),
        estimated_depths: stats.plan.map_or(0, |p| p.estimated_depths),
    });
}

/// The untimed warm-up: lets lazily built tables and the nonce pools fill.
fn warm_up(session: &mut dyn Session, script: &Script) -> Vec<String> {
    let mut failures = Vec::new();
    for query in script.queries.iter().take(WARMUP_QUERIES) {
        if let Err(e) = session.execute(query) {
            failures.push(format!("warm-up: {e}"));
        }
    }
    session.reset_accounting();
    failures
}

/// The closed loop of one session with tracing off: replay the list cyclically until
/// at least `spec.counted` queries ran and `window` has passed.
fn run_untraced(
    session: &mut dyn Session,
    spec: &Spec,
    relation: &Relation,
    script: &Script,
    window: Duration,
) -> SessionLog {
    let mut log = SessionLog::default();
    let start = Instant::now();
    let mut index = 0;
    while index < spec.counted || start.elapsed() < window {
        let query = &script.queries[index % script.queries.len()];
        let before = session.metrics();
        let (result, timing) = timed(|| session.execute(query));
        let used = session.metrics().since(&before);
        record(spec, relation, script, Executed { index, timing, used, result }, &mut log);
        index += 1;
    }
    log
}

/// Run `work` once per session, each on its own thread, and collect the results in
/// session order.
fn on_threads<S: Send, T: Send>(
    sessions: &mut [S],
    work: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(i, session)| {
                let work = &work;
                scope.spawn(move || work(i, session))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a session thread panicked")).collect()
    })
}

/// CPU seconds of the driver and of the daemon, if the deployment has one.
fn cpu_now(deployed: &Deployed) -> (f64, f64) {
    (cpu_seconds(None), deployed.daemon.as_ref().map_or(0.0, |d| cpu_seconds(Some(d.pid()))))
}

/// A measured phase: the per-session logs and what the phase cost as a whole, in
/// wall-clock terms.
struct Phase {
    logs: Vec<SessionLog>,
    wall_s: f64,
    driver_cpu_s: f64,
    daemon_cpu_s: f64,
}

impl Phase {
    fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.logs.iter().flat_map(|log| log.records.iter())
    }

    fn executed(&self) -> usize {
        self.records().count()
    }

    /// The first `counted` records of every session.
    fn counted(&self, counted: usize) -> impl Iterator<Item = &QueryRecord> {
        self.logs.iter().flat_map(move |log| log.records.iter().take(counted))
    }

    /// CPU speed the phase's computing ran at, relative to the reference.
    fn speed(&self) -> f64 {
        let compute: f64 = self.records().map(QueryRecord::compute_s).sum();
        self.records().map(|r| r.compute_s() * r.timing.speed).sum::<f64>() / compute
    }

    /// The phase's wall time at reference CPU speed: scaled like its queries.
    fn wall_s_at_reference(&self) -> f64 {
        let raw: f64 = self.records().map(|r| r.timing.raw_s).sum();
        self.wall_s * self.records().map(|r| r.ms() / 1e3).sum::<f64>() / raw
    }
}

/// Warm every session up, then run `work` on all of them concurrently and account for
/// the wall and CPU time of that second step alone.
fn measured_phase<S: Send>(
    deployed: &Deployed,
    sessions: &mut [S],
    warm: impl Fn(usize, &mut S) -> Vec<String> + Sync,
    work: impl Fn(usize, &mut S) -> SessionLog + Sync,
) -> Phase {
    let warm_failures = on_threads(sessions, warm);
    let (driver_before, daemon_before) = cpu_now(deployed);
    let start = Instant::now();
    let mut logs = on_threads(sessions, work);
    let wall_s = start.elapsed().as_secs_f64();
    let (driver_after, daemon_after) = cpu_now(deployed);
    for (log, failures) in logs.iter_mut().zip(warm_failures) {
        log.failures.extend(failures);
    }
    Phase {
        logs,
        wall_s,
        driver_cpu_s: driver_after - driver_before,
        daemon_cpu_s: daemon_after - daemon_before,
    }
}

fn untraced_phase(
    deployed: &Deployed,
    sessions: &mut [BoxedSession],
    spec: &Spec,
    scripts: &[Script],
    window: Duration,
) -> Phase {
    measured_phase(
        deployed,
        sessions,
        |i, session| warm_up(session.as_mut(), &scripts[i]),
        |i, session| run_untraced(session.as_mut(), spec, &deployed.relation, &scripts[i], window),
    )
}

/// Run `options.spec` once.  `micro` holds the workload-independent per-layer metrics
/// (`micro::measure`), which a traced run reports along with its own.  `None` means the
/// workload was refused: this host has fewer cores than the workload has concurrent
/// sessions, so it could not show what the workload is meant to show.
pub fn run(options: &Options, micro: &Values) -> Result<Option<Outcome>, String> {
    let spec = &options.spec;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if spec.sessions > cores {
        println!(
            "{}: not reported: {} concurrent sessions need as many cores, this host has {cores}",
            spec.name, spec.sessions
        );
        return Ok(None);
    }
    println!("{}: {}", spec.name, spec.why);
    let outcome =
        if options.trace { run_traced(options, micro)? } else { run_end_to_end(options)? };
    let names: Vec<String> = if options.trace {
        per_layer().into_iter().map(|(name, _, _)| name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name.to_string()).collect()
    };
    match names.iter().find(|name| !outcome.values.contains_key(*name)) {
        Some(missing) => Err(format!("metric {missing} was not measured")),
        None => Ok(Some(outcome)),
    }
}

fn run_end_to_end(options: &Options) -> Result<Outcome, String> {
    let spec = &options.spec;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Tear the previous deployment down first, so two daemons never run at once.
        drop(last.take());
        let (deployment, timing) = timed(|| set_up(spec, options.seed, rep));
        setups.push(timing.normalised_s(0.0));
        last = Some(deployment?);
    }
    let (deployed, mut sessions) = last.expect("SETUP_REPS is at least one");
    let scripts = (0..spec.sessions)
        .map(|s| Script::new(spec, &deployed.relation, options.seed, s))
        .collect::<Result<Vec<_>, _>>()?;

    let window = Duration::from_secs_f64(options.seconds);
    let phase = untraced_phase(&deployed, &mut sessions, spec, &scripts, window);

    let executed = phase.executed();
    let latencies: Vec<f64> = phase.records().map(QueryRecord::ms).collect();
    let correct = phase.records().filter(|r| r.ok).count();
    let depths: usize = phase.records().map(|r| r.depths).sum();
    let counted = phase.counted(spec.counted).count();
    let rounds: u64 = phase.counted(spec.counted).map(|r| r.rounds).sum();
    let bytes: u64 = phase.counted(spec.counted).map(|r| r.bytes).sum();
    let rss =
        peak_rss_mb(None) + deployed.daemon.as_ref().map_or(0.0, |d| peak_rss_mb(Some(d.pid())));
    let wall_s = phase.wall_s_at_reference();
    let cpu_s = (phase.driver_cpu_s + phase.daemon_cpu_s) * phase.speed();

    let mut values = Values::new();
    put(&mut values, "setup_s", median(&setups), "s", setups.len());
    put(&mut values, "query_p50_ms", median(&latencies), "ms", executed);
    put(&mut values, "query_p80_ms", quantile(&latencies, 0.8), "ms", executed);
    put(&mut values, "queries_per_s", correct as f64 / wall_s, "1/s", executed);
    put(&mut values, "depths_per_s", depths as f64 / wall_s, "1/s", executed);
    put(&mut values, "cpu_s_per_query", cpu_s / executed as f64, "s", executed);
    put(&mut values, "rounds_per_query", rounds as f64 / counted as f64, "count", counted);
    put(&mut values, "wire_kb_per_query", bytes as f64 / 1e3 / counted as f64, "kB", counted);
    let rows = deployed.enc_stats.num_objects;
    put(
        &mut values,
        "enc_bytes_per_row",
        deployed.enc_stats.encrypted_bytes as f64 / rows as f64,
        "B",
        rows,
    );
    put(&mut values, "peak_rss_mb", rss, "MB", 1);

    println!(
        "{}: {executed} queries in {:.2} s wall at {:.2} of reference CPU speed",
        spec.name,
        phase.wall_s,
        phase.speed()
    );
    let failures: Vec<String> =
        phase.logs.iter().flat_map(|log| log.failures.iter().cloned()).collect();
    Ok(Outcome {
        values,
        attempted: executed,
        failed: executed - correct,
        failures,
        broken_checks: Vec::new(),
        trace_file: None,
    })
}

/// A session whose `TwoClouds` the traced pass can reach, to install the span hook and
/// to call the stages of `execute_with_clouds` itself.
enum Staged {
    Remote(Box<RemoteSession>),
    Direct(Box<DirectSession>),
    /// A session of an S2 worker pool, which is what `QueryServer::open_session`
    /// builds but does not hand out.
    Pooled(Box<TwoClouds>),
}

impl Staged {
    fn clouds(&mut self) -> &mut TwoClouds {
        match self {
            Staged::Remote(session) => session.clouds_mut(),
            Staged::Direct(session) => session.clouds_mut(),
            Staged::Pooled(clouds) => clouds,
        }
    }
}

/// One traced session: the staged session, the key holder's state `execute` would
/// keep, and the span recorder.
struct TracedSession {
    staged: Staged,
    client: AuthorizedClient,
    rng: StdRng,
    recorder: Arc<Recorder>,
}

/// `execute_with_clouds`, stage by stage, each stage inside a span.
fn execute_staged(
    session: &mut TracedSession,
    deployed: &Deployed,
    query: &Query,
) -> Result<ResolvedTopK, SecTopKError> {
    let recorder = Arc::clone(&session.recorder);
    let er = deployed.outsourced.er();
    let clouds = session.staged.clouds();
    recorder.span("query", || {
        let token = recorder.span("token", || {
            query.validate_for(er.num_attributes())?;
            session.client.token(er.num_attributes(), query.spec())
        })?;
        let (decision, config) = recorder.span("plan", || {
            let decision =
                plan_for(query, er.num_objects(), clouds.link_profile(), clouds.batching());
            let config = query.config_with(decision.variant);
            (decision, config)
        });
        let mut outcome = recorder.span("sec_query", || sec_query(clouds, er, &token, &config))?;
        outcome.stats.plan = Some(decision);
        let results = recorder.span("resolve", || {
            resolve_results(
                &outcome.top_k,
                deployed.outsourced.object_ids(),
                deployed.owner.keys(),
                &mut session.rng,
            )
        })?;
        Ok(ResolvedTopK { results, outcome })
    })
}

/// The traced pass of one session: the counted queries once, each followed (outside
/// its spans) by the leakage-profile check of both ledgers.
fn run_staged(
    session: &mut TracedSession,
    spec: &Spec,
    deployed: &Deployed,
    script: &Script,
) -> SessionLog {
    let mut log = SessionLog::default();
    for index in 0..spec.counted {
        let query = &script.queries[index % script.queries.len()];
        session.recorder.begin_query(index);
        let (result, timing) = timed(|| execute_staged(session, deployed, query));
        let clouds = session.staged.clouds();
        let used = clouds.channel();
        let violation =
            result.as_ref().ok().and_then(|answer| answer.plan()).and_then(|p| {
                check_ledgers(clouds.s1_ledger(), &clouds.s2_ledger(), p.variant).err()
            });
        clouds.reset_accounting();
        record(
            spec,
            &deployed.relation,
            script,
            Executed { index, timing, used, result },
            &mut log,
        );
        if let Some(violation) = violation {
            log.records.last_mut().expect("just pushed").ok = false;
            log.failures.push(format!("query {index}: leakage profile violated: {violation:?}"));
        }
    }
    log
}

/// The same warm-up as [`warm_up`], on a staged session and without spans.
fn warm_up_staged(
    session: &mut TracedSession,
    deployed: &Deployed,
    script: &Script,
) -> Vec<String> {
    let mut failures = Vec::new();
    for query in script.queries.iter().take(WARMUP_QUERIES) {
        let warmed = sectopk_core::execute_with_clouds(
            session.staged.clouds(),
            deployed.outsourced.er(),
            deployed.outsourced.object_ids(),
            deployed.owner.keys(),
            &mut session.rng,
            query,
        );
        if let Err(e) = warmed {
            failures.push(format!("warm-up: {e}"));
        }
    }
    session.staged.clouds().reset_accounting();
    failures
}

/// Open the traced counterpart of session `s`: same seed, same deployment, with the
/// span recorder installed as the round hook.
fn open_staged(
    deployed: &Deployed,
    spec: &Spec,
    pool: Option<&MultiplexServer>,
    seed: u64,
    s: usize,
    epoch: Instant,
) -> Result<TracedSession, SecTopKError> {
    let session_seed = Deployed::session_seed(seed, 0, s);
    let owner = &deployed.owner;
    let mut staged = match (&deployed.daemon, pool) {
        (Some(daemon), _) => Staged::Remote(Box::new(owner.connect_remote(
            &deployed.outsourced,
            daemon.addr(),
            session_seed,
        )?)),
        (None, Some(pool)) => Staged::Pooled(Box::new(TwoClouds::connect(
            owner.keys(),
            session_seed,
            true,
            pool,
            SessionId(s as u64 + 1),
            LinkProfile::with_rtt_ms(spec.rtt_ms()),
        )?)),
        (None, None) => Staged::Direct(Box::new(owner.connect_with(
            &deployed.outsourced,
            session_seed,
            TransportKind::InProcess,
            true,
        )?)),
    };
    let recorder = Arc::new(Recorder::new(epoch, s));
    staged.clouds().set_trace_hook(recorder.clone());
    Ok(TracedSession {
        staged,
        client: owner.authorize_client(),
        rng: resolution_rng(session_seed),
        recorder,
    })
}

fn run_traced(options: &Options, micro: &Values) -> Result<Outcome, String> {
    let spec = &options.spec;
    let seed = options.seed;
    let (deployed, mut sessions) = set_up(spec, seed, 0)?;
    let scripts = (0..spec.sessions)
        .map(|s| Script::new(spec, &deployed.relation, seed, s))
        .collect::<Result<Vec<_>, _>>()?;

    // The reference: the counted queries with tracing off, through `Session::execute`.
    let reference = untraced_phase(&deployed, &mut sessions, spec, &scripts, Duration::ZERO);
    let server_snapshot = deployed.server.as_ref().map(|s| s.metrics_snapshot());
    drop(sessions);

    // The traced replay, on fresh sessions with the seeds of the reference sessions.
    let epoch = Instant::now();
    let pool = match spec.deployment {
        Deployment::Server { workers, .. } => Some(MultiplexServer::with_limits_and_metrics(
            workers,
            PoolLimits::default(),
            Registry::disabled(),
        )),
        _ => None,
    };
    let mut traced = (0..spec.sessions)
        .map(|s| open_staged(&deployed, spec, pool.as_ref(), seed, s, epoch))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let phase = measured_phase(
        &deployed,
        &mut traced,
        |i, session| warm_up_staged(session, &deployed, &scripts[i]),
        |i, session| run_staged(session, spec, &deployed, &scripts[i]),
    );
    // Warm-up rounds reach the hook too; they have no parent span and are left out.
    let spans: Vec<Span> = traced
        .iter()
        .flat_map(|t| t.recorder.spans())
        .filter(|s| s.name == "query" || s.parent.is_some())
        .collect();
    drop(traced);

    let mut failures: Vec<String> = Vec::new();
    for log in reference.logs.iter().chain(phase.logs.iter()) {
        failures.extend(log.failures.iter().cloned());
    }
    let mut failed = reference.records().chain(phase.records()).filter(|r| !r.ok).count();
    // Tracing must not change what the program does.
    for (s, (plain, staged)) in reference.logs.iter().zip(&phase.logs).enumerate() {
        for (i, (a, b)) in plain.records.iter().zip(&staged.records).enumerate() {
            if a.ok && b.ok && (a.answer != b.answer || a.rounds != b.rounds || a.bytes != b.bytes)
            {
                failed += 1;
                failures.push(format!(
                    "session {s} query {i}: traced run differs from untraced \
                     ({:?}, {} rounds, {} B vs {:?}, {} rounds, {} B)",
                    b.answer, b.rounds, b.bytes, a.answer, a.rounds, a.bytes
                ));
            }
        }
    }

    let mut values = micro.clone();
    let mut broken = Vec::new();
    span_metrics(&spans, &phase, spec.rtt_ms(), &mut values, &mut broken);

    let n = phase.executed();
    let speed = phase.speed();
    let of = |f: fn(&QueryRecord) -> f64| -> Vec<f64> { phase.records().map(f).collect() };
    put(&mut values, "core.depths_per_query", mean(&of(|r| r.depths as f64)), "count", n);
    put(
        &mut values,
        "core.halting_checks_per_query",
        mean(&of(|r| r.halting_checks as f64)),
        "count",
        n,
    );
    put(&mut values, "core.tracked_len_final", mean(&of(|r| r.tracked_len as f64)), "count", n);
    put(&mut values, "core.depth_ms_first", mean(&of(|r| r.depth_ms_first * r.scale())), "ms", n);
    put(&mut values, "core.depth_ms_last", mean(&of(|r| r.depth_ms_last * r.scale())), "ms", n);
    let estimated: usize = phase.records().map(|r| r.estimated_depths).sum();
    let scanned: usize = phase.records().map(|r| r.depths).sum();
    put(
        &mut values,
        "core.planner_depth_ratio",
        estimated as f64 / scanned.max(1) as f64,
        "ratio",
        n,
    );

    put(&mut values, "s2.cpu_ms_per_query", phase.daemon_cpu_s * speed * 1e3 / n as f64, "ms", n);
    put(&mut values, "s2.cpu_share", phase.daemon_cpu_s / phase.wall_s, "share", n);
    let link_wait_ms: f64 = phase.records().map(|r| r.wait_s * 1e3).sum();
    put(&mut values, "transport.link_wait_ms_per_query", link_wait_ms / n as f64, "ms", n);
    let round_s: f64 =
        spans.iter().filter(|s| s.name.starts_with("round:")).map(|s| s.millis() / 1e3).sum();
    let session_wall = phase.wall_s * spec.sessions as f64;
    let tcp_overhead = match deployed.daemon {
        Some(_) => (round_s - phase.daemon_cpu_s) / session_wall,
        None => 0.0,
    };
    put(&mut values, "transport.tcp_overhead_share", tcp_overhead, "share", n);
    put(
        &mut values,
        "server.connect_ms",
        deployed.connect_s * 1e3 / spec.sessions as f64,
        "ms",
        spec.sessions,
    );
    let (busy, sheds, replays) = match (&server_snapshot, spec.deployment) {
        (Some(snapshot), Deployment::Server { workers, .. }) => {
            let busy_ns: u64 = (0..workers)
                .filter_map(|w| snapshot.histogram(&format!("pool.worker.{w}.busy_nanos")))
                .map(|h| h.sum)
                .sum();
            let busy = busy_ns as f64 / 1e9 / (reference.wall_s * workers as f64);
            (busy, snapshot.counter("pool.shed"), snapshot.counter("pool.replayed"))
        }
        _ => (0.0, 0, 0),
    };
    put(&mut values, "server.pool_busy_share", busy, "share", reference.executed());
    put(&mut values, "server.sheds", sheds as f64, "count", reference.executed());
    put(&mut values, "server.replays", replays as f64, "count", reference.executed());

    // Both passes ran the same queries; at reference speed, what is left is the tracing.
    let query_s = |p: &Phase| p.records().map(|r| r.ms() / 1e3).sum::<f64>();
    let overhead = (query_s(&phase) - query_s(&reference)) / query_s(&reference) * 100.0;
    put(&mut values, "trace.overhead_pct", overhead, "%", n);

    let cpu = phase.driver_cpu_s + phase.daemon_cpu_s;
    let unattributed = 1.0 - cpu / session_wall;
    put(&mut values, "run.unattributed_share", unattributed, "share", n);
    put(&mut values, "run.cpu_share_driver", phase.driver_cpu_s / cpu, "share", n);
    // With one session against the daemon, one of the two processes is computing at any
    // moment; anything else is time the benchmark cannot attribute to a layer.
    let serial = spec.sessions == 1 && deployed.daemon.is_some();
    if serial && unattributed > MAX_UNATTRIBUTED {
        broken.push(format!(
            "unattributed_share {unattributed:.3}: driver CPU {:.2} s + sectopk-s2d CPU {:.2} s \
             leave more than {MAX_UNATTRIBUTED} of {:.2} s wall unexplained",
            phase.driver_cpu_s, phase.daemon_cpu_s, phase.wall_s
        ));
    }

    let trace_file =
        PathBuf::from(format!("target/benchmark/trace-{}-seed{}.jsonl", spec.name, options.seed));
    write_jsonl(&trace_file, &spans)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    Ok(Outcome {
        values,
        attempted: reference.executed() + n,
        failed,
        failures,
        broken_checks: broken,
        trace_file: Some(trace_file),
    })
}

/// The metrics that come straight from the spans, and the sum-of-parts checks on them.
/// A span is put at reference CPU speed like the query it belongs to: the link wait
/// inside it (one RTT per round it contains) stays, the rest is scaled by the query's
/// speed.  Parts therefore still sum to the whole.
fn span_metrics(
    spans: &[Span],
    phase: &Phase,
    rtt_ms: u64,
    values: &mut Values,
    broken: &mut Vec<String>,
) {
    let n = phase.executed();
    let by_id: BTreeMap<(usize, usize), usize> =
        spans.iter().enumerate().map(|(at, s)| ((s.session, s.id), at)).collect();
    let mut wait_ms = vec![0.0; spans.len()];
    for (at, round) in spans.iter().enumerate().filter(|(_, s)| s.name.starts_with("round:")) {
        let wait = round.millis().min(rtt_ms as f64);
        let mut holder = Some(at);
        while let Some(at) = holder {
            wait_ms[at] += wait;
            holder = spans[at].parent.and_then(|p| by_id.get(&(spans[at].session, p)).copied());
        }
    }
    let mut total_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut count: BTreeMap<&str, usize> = BTreeMap::new();
    for (span, wait) in spans.iter().zip(&wait_ms) {
        let speed = phase.logs[span.session].records[span.query].timing.speed;
        *total_ms.entry(&span.name).or_default() += wait + (span.millis() - wait) * speed;
        *count.entry(&span.name).or_default() += 1;
    }
    let total = |name: &str| total_ms.get(name).copied().unwrap_or(0.0);
    let per_query = |ms: f64| ms / n as f64;

    put(values, "core.token_ms", per_query(total("token")), "ms", n);
    put(values, "core.plan_us", per_query(total("plan")) * 1e3, "us", n);
    put(values, "core.sec_query_ms", per_query(total("sec_query")), "ms", n);
    put(values, "core.resolve_ms", per_query(total("resolve")), "ms", n);
    put(values, "core.resolve_share", total("resolve") / total("query"), "share", n);

    let mut rounds_ms = 0.0;
    for kind in ROUND_KINDS {
        let name = format!("round:{kind}");
        let rounds = count.get(name.as_str()).copied().unwrap_or(0);
        rounds_ms += total(&name);
        put(
            values,
            &format!("protocols.round.{kind}.count_per_query"),
            rounds as f64 / n as f64,
            "count",
            n,
        );
        put(
            values,
            &format!("protocols.round.{kind}.ms_per_query"),
            per_query(total(&name)),
            "ms",
            n,
        );
    }
    put(
        values,
        "protocols.s1_self_ms_per_query",
        per_query(total("sec_query") - rounds_ms),
        "ms",
        n,
    );
    put(values, "trace.spans_per_query", spans.len() as f64 / n as f64, "count", n);

    // Parts must sum to the whole: the four stages to their query, and every round must
    // lie inside a `sec_query` span and be of a kind the table above knows, so that
    // rounds + S1 self time = sec_query.
    let stages = total("token") + total("plan") + total("sec_query") + total("resolve");
    let gap = (total("query") - stages).abs() / total("query");
    put(values, "trace.stage_gap_pct", gap * 100.0, "%", n);
    if gap.is_nan() || gap > MAX_STAGE_GAP {
        broken.push(format!(
            "stages sum to {stages:.1} ms but their query spans to {:.1} ms (gap {:.1} %)",
            total("query"),
            gap * 100.0
        ));
    }
    for round in spans.iter().filter(|s| s.name.starts_with("round:")) {
        let parent =
            round.parent.and_then(|p| by_id.get(&(round.session, p))).map(|&at| &spans[at]);
        let inside = parent.is_some_and(|p| {
            p.name == "sec_query" && p.start_ns <= round.start_ns && round.end_ns <= p.end_ns
        });
        let known = ROUND_KINDS.iter().any(|k| round.name.strip_prefix("round:") == Some(k));
        if !inside || !known {
            broken.push(format!(
                "{} (session {}, span {}) is not accounted for",
                round.name, round.session, round.id
            ));
        }
    }
}
