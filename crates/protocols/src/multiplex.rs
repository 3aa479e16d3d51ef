//! Session-multiplexed serving: one crypto-cloud S2 compute budget answering many
//! concurrent S1 sessions, and the one table that holds their lifecycle.
//!
//! # Why sessions
//!
//! The paper's deployment (§3.2) is a *service*: the primary cloud S1 answers top-k
//! queries for many independent clients, using the crypto cloud S2 as a co-processor.
//! A [`MultiplexServer`] owns a table of per-session state and a budget of `workers`
//! compute permits; every connected [`EnvelopeTransport`] is one S1 session, whether
//! its envelopes arrive over the in-memory conduit or over a TCP connection
//! ([`crate::tcp`]).  Every sub-protocol of the paper is one blocking exchange — S1
//! sends, S2 decrypts, S1 waits for the reply — so S2 runs a request on the thread that
//! brought it (the S1 thread in memory, the connection's thread behind a socket) and
//! hands the reply straight back; the permits bound how many requests compute at once:
//!
//! ```text
//!   session 1  S1 ──┐  call(seq, frame)    ┌─ session lock ─▶ permit (≤ W held) ─┐
//!   session 2  S1 ──┤  on its own thread   │  replay check → decode →            │   per-session
//!   session 3  S1 ──┼─────────────────────▶│  engine.handle → cache the reply    ├─▶ S2Engine
//!      …            │                      │  (control frames: ledger, reset)    │   (keys shared
//!   session N  S1 ──┘◀────── reply ────────└─────────────────────────────────────┘    behind Arc)
//! ```
//!
//! # Isolation and determinism
//!
//! Each session owns an [`S2Engine`] of its own (behind the session's lock, next to its
//! replay cache): its leakage ledger, RNG and nonce-pool shards are **per session**, so
//!
//! * ledgers never bleed between sessions — "what did S2 observe while serving client
//!   *i*" stays a well-defined question under concurrency, and
//! * every session's ciphertext stream is a deterministic function of its own seed
//!   ([`sectopk_crypto::pool::shard_seed`] decorrelates the shards), which makes *N*
//!   sessions served concurrently byte-identical to the same *N* sessions served one
//!   after another (asserted by `tests/concurrent_sessions.rs`).
//!
//! The engines share the key material (`S2Keys` is `Arc`-backed, so every thread that
//! runs a request shares one copy of the moduli and Montgomery contexts), but no
//! mutable state.  What a session's bytes and ledger are is decided by its engine, its
//! seed and its operation sequence — never by which thread ran a request.
//!
//! # The compute budget
//!
//! A request takes its session's lock first and a permit second, and gives both back
//! when its reply is built.  The session lock serializes a session with itself (a
//! resumed connection that races its previous life's still-running request waits here
//! and is then answered from the replay cache) and is held *without* a permit while
//! waiting, so a session that waits — or a client that is connected but silent — never
//! takes compute away from its neighbours.  A permit is the busy-time histogram of the
//! worker index it stands for: the time it is held lands in
//! `pool.worker.{i}.busy_nanos`, and because it is returned by a guard, a request that
//! unwinds cannot leak it.
//!
//! How many threads a request computes on is the other half of the budget.  At most
//! `min(W, connected sessions)` requests compute at once — a parked session sends
//! nothing — so an engine without an explicit worker count splits the machine's cores
//! that many ways, read afresh at every request ([`MultiplexServer::intra_workers`]): a
//! lone session gets every core, `W` busy sessions one each.
//!
//! # Wire envelope
//!
//! On a link, every message is an [`Envelope`]: a fixed 16-byte header (session id and
//! sequence number, both little-endian `u64`) followed by a tag-plus-payload frame.
//! The server echoes the header on the reply and the client verifies the echo, so a
//! response can never be attributed to the wrong session or request.  Inside the
//! process nothing is encoded: a call runs against the slot its conduit *holds*, not
//! an id to look up, so an envelope that outlives its session (a duplicate delivered
//! after the session was reaped) runs against the orphaned slot and can never reach a
//! new session that re-attached under the same id.
//!
//! # Simulated link
//!
//! A [`LinkProfile`] optionally adds a per-round-trip RTT on the client side, modelling
//! the inter-cloud WAN of §11.2.5 (the paper assumes a 50 Mbps link between S1 and S2).
//! The RTT elapses *beside* the call, not after it — a round costs
//! `max(RTT, S2 compute)`, exactly as propagation overlaps with remote work on a real
//! link.  Under a latency-bound link, session multiplexing is what buys aggregate
//! throughput: while one session waits out its RTT, the permits serve the others.
//!
//! # The session table
//!
//! Everything about a session's lifecycle lives in one table under one lock: whether
//! it is connected or parked (and for how long), the resume token a reconnecting client
//! must present, the slot holding its engine and replay cache, and the admission cap.
//! A session's engine state must survive the *connection* that carries its envelopes —
//! the TCP listener parks a dropped connection's session and a resuming client takes
//! it over:
//!
//! ```text
//!              attach()                     conduit.park(ttl)
//!   (free) ──────────────▶ ACTIVE ─────────────────────────────▶ PARKED
//!      ▲                    │  ▲                                 │    │
//!      │    conduit.close() │  │    resume(token): same slot,    │    │ ttl
//!      └────────────────────┘  │    a conduit for the new        │    │ passes /
//!      ▲                       └─────────────────────────────────┘    │ drain
//!      │                            caller, token rotated             ▼
//!      └─────── next read of the table / reap_parked() ◀──────────  EXPIRED
//! ```
//!
//! The table keeps a clock and no timer.  Parking stamps the time, and every read of the
//! table — an attach, a resume, the connected and parked counts, the crowd a request
//! computes in — first unseats the parked seats whose TTL has passed, counting each in
//! `pool.evicted` once.  So an expired session frees its id and engine at the next read
//! of the table, which on an idle server may come long after its TTL;
//! [`PoolLimits::max_sessions`] bounds that memory as it bounds every seat.
//!
//! Exactly-once across the drop is guaranteed by a per-slot **last-reply cache**: every
//! request reply is remembered under its sequence number, and a retried `seq` (the
//! resumed client re-sending the envelope it never saw answered) is served from the
//! cache *without re-executing* — the engine's ledger and nonce streams advance exactly
//! once no matter how many times the frame is delivered.  The strict one-in-flight
//! discipline means a one-deep cache suffices.
//!
//! # Admission control
//!
//! [`PoolLimits::max_sessions`] caps the table (connected and parked sessions alike,
//! checked under the lock that seats the newcomer); a session beyond it is refused with
//! a typed, retryable overload rejection before any engine state exists.  Every refusal
//! of the table is a `RejectCode` of the TCP handshake plus a reason, which the listener
//! ships as is; one function maps a code onto the error taxonomy.  Admission is
//! per *connection*, not per request: a seated session has at most one request
//! outstanding, and it waits for a permit on its own thread, so there is no queue that
//! could grow and nothing for request-level shedding to protect.

// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::hash_map::{Entry, HashMap, OccupiedEntry};
use std::fmt::{self, Display};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sectopk_crypto::par::{cores, share};
use sectopk_metrics::{Counter, Histogram, Registry as MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::engine::S2Engine;
use crate::error::{ProtocolError, Result};
use crate::plock::PoisonFree;
use crate::transport::{
    frame, framed, EnvelopeTransport, Pipe, S1Request, S2Response, TransportKind,
};
use crate::wire;
use crate::wire::WireError;

/// Identifier of one S1 session of a [`MultiplexServer`].  Chosen by the serving layer
/// (e.g. densely numbered client connections) and unique per server; `SessionId(0)` is
/// reserved for "let the server assign one".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Session ids the server assigns start above here, far beyond anything clients
/// propose densely, so assigned and proposed ids never collide by accident.
pub(crate) const ASSIGNED_SESSION_BASE: u64 = 1 << 32;

/// Bytes of the fixed envelope header: session id + sequence number, both `u64` LE.
pub const ENVELOPE_HEADER_LEN: usize = 16;

/// One message of a session: the session id, the sender's sequence number (echoed
/// verbatim on replies), and the tag-plus-payload frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Which session this frame belongs to.
    pub session: SessionId,
    /// Request counter within the session; replies echo the request's value.
    pub seq: u64,
    /// Frame bytes: one tag byte (see `transport::frame`) followed by the wire payload.
    pub frame: Vec<u8>,
}

impl Envelope {
    /// Encode header + frame into link bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + self.frame.len());
        out.extend_from_slice(&self.session.0.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.frame);
        out
    }

    /// Decode link bytes back into an envelope.  An empty frame decodes; the pool
    /// answers it with a typed error like any other frame it cannot dispatch.
    pub fn decode(bytes: &[u8]) -> Result<Envelope> {
        let Some((session, rest)) = bytes.split_first_chunk::<8>() else {
            return Err(ProtocolError::transport("truncated multiplex envelope"));
        };
        let Some((seq, frame)) = rest.split_first_chunk::<8>() else {
            return Err(ProtocolError::transport("truncated multiplex envelope"));
        };
        Ok(Envelope {
            session: SessionId(u64::from_le_bytes(*session)),
            seq: u64::from_le_bytes(*seq),
            frame: frame.to_vec(),
        })
    }
}

/// Characteristics of the simulated S1 ↔ S2 link.  [`LinkProfile::ideal`] (the default)
/// adds nothing; a nonzero RTT makes every protocol round trip cost that much
/// wall-clock on the client side, modelling the WAN between the two clouds.  Metrics
/// and ledgers are unaffected — only latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Round-trip time added to every protocol round trip (control traffic excluded).
    pub rtt: Duration,
}

impl LinkProfile {
    /// A zero-latency link (requests cost only their compute).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A link with the given round-trip time in milliseconds.
    pub fn with_rtt_ms(rtt_ms: u64) -> Self {
        LinkProfile { rtt: Duration::from_millis(rtt_ms) }
    }
}

/// Admission-control bound of a [`MultiplexServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolLimits {
    /// Maximum number of sessions the table holds, connected and parked alike
    /// (attachment beyond this is refused with a typed overload rejection).
    pub max_sessions: usize,
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits { max_sessions: usize::MAX }
    }
}

/// Cached metric handles for the pool-level counters (see [`sectopk_metrics`]).  All
/// handles are no-ops when the server was built without a registry, so the hot path
/// pays one branch per event.
#[derive(Clone, Debug, Default)]
struct PoolMetrics {
    /// Mirrors [`Pool::replayed`] (`pool.replayed`).
    replayed: Counter,
    /// Sessions seated through [`MultiplexServer::attach`] (`pool.attached`).
    attached: Counter,
    /// Parked sessions taken over through [`MultiplexServer::resume`]
    /// (`pool.reattached`).
    reattached: Counter,
    /// Sessions removed on behalf of a dead or expired client (`pool.evicted`).
    evicted: Counter,
}

impl PoolMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            replayed: registry.counter("pool.replayed"),
            attached: registry.counter("pool.attached"),
            reattached: registry.counter("pool.reattached"),
            evicted: registry.counter("pool.evicted"),
        }
    }
}

/// What a request of a session runs against, under the session's one lock.
struct SessionState {
    /// The session's own engine: ledger, RNG, pool shards.
    engine: S2Engine,
    /// `(seq, reply frame)` of the most recent request reply.  A re-sent `seq` is
    /// answered from here without touching the engine (exactly-once effects).
    last_reply: Option<(u64, Vec<u8>)>,
}

/// Per-session server-side state that outlives any one connection.
struct SessionSlot {
    session: SessionId,
    state: Mutex<SessionState>,
}

/// One row of the session table.
struct Seat {
    slot: Arc<SessionSlot>,
    /// What a resuming connection must present; rotated on every resume.  0 marks a
    /// session that cannot be resumed (it never crossed a connection that can drop).
    token: u64,
    /// `Some((since, ttl))` while the session's connection is gone and it awaits a
    /// resume: parked at `since`, expired once `ttl` has passed.
    parked: Option<(Instant, Duration)>,
}

/// The session table's clock, read when a session parks and whenever the table is read.
#[expect(
    clippy::disallowed_methods,
    reason = "timeout machinery, not protocol state: a park TTL decides when an abandoned \
              session's engine is freed, never what a live session computes"
)]
fn clock() -> Instant {
    Instant::now()
}

/// The one place session lifecycle lives; always accessed under [`Pool::table`]'s lock.
struct SessionTable {
    seats: HashMap<SessionId, Seat>,
    /// Last server-assigned session id.
    last_assigned: u64,
}

impl SessionTable {
    /// Unseat every parked seat for which `expired(since, ttl)` holds; returns how many.
    fn unseat_parked(&mut self, expired: impl Fn(Instant, Duration) -> bool) -> usize {
        let before = self.seats.len();
        self.seats.retain(|_, seat| seat.parked.is_none_or(|(since, ttl)| !expired(since, ttl)));
        before - self.seats.len()
    }
}

/// Everything the server handle and the conduits share.
struct Pool {
    table: Mutex<SessionTable>,
    limits: PoolLimits,
    /// How many requests may execute at once.
    workers: usize,
    /// The free compute permits: one per worker index `i`, each being that worker's
    /// `pool.worker.{i}.busy_nanos` histogram.
    idle: Mutex<Vec<Histogram>>,
    /// Signalled whenever a permit returns to `idle`.
    freed: Condvar,
    /// Set when the [`MultiplexServer`] is dropped: later calls fail instead of running.
    gone: AtomicBool,
    /// Replies served from a session's last-reply cache instead of re-execution
    /// (monotonic, observability only — never part of the protocol state).
    replayed: AtomicU64,
    metrics: PoolMetrics,
    metrics_registry: MetricsRegistry,
}

impl Pool {
    /// Lock the session table for a read, first unseating every parked seat whose TTL
    /// has passed and counting each in `pool.evicted`.
    fn read_table(&self) -> MutexGuard<'_, SessionTable> {
        let mut table = self.table.plock();
        let now = clock();
        let expired = table.unseat_parked(|since, ttl| now.saturating_duration_since(since) >= ttl);
        self.metrics.evicted.add(expired as u64);
        table
    }

    /// How many requests may compute at the same time right now: one per connected
    /// session, at most one per permit.
    fn crowd(&self) -> usize {
        let table = self.read_table();
        let connected = table.seats.values().filter(|seat| seat.parked.is_none()).count();
        connected.min(self.workers)
    }

    /// Block until one of the `workers` permits is free, and take it.
    fn permit(&self) -> Permit<'_> {
        let mut idle = self.idle.plock();
        loop {
            if let Some(busy) = idle.pop() {
                return Permit { pool: self, since: busy.start(), busy };
            }
            idle = self.freed.wait(idle).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One of the pool's `workers` compute permits, held while a request executes.
/// Dropping it records how long it was held and frees it for the next request — also
/// when the request unwinds, so a failure inside one can never shrink the budget.
struct Permit<'a> {
    pool: &'a Pool,
    busy: Histogram,
    since: Option<Instant>,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.busy.stop(self.since);
        self.pool.idle.plock().push(std::mem::take(&mut self.busy));
        self.pool.freed.notify_one();
    }
}

/// The S2-side endpoint of one seated session: the slot its requests run against.
/// The TCP listener's per-connection threads call it directly; local clients use the
/// [`EnvelopeTransport`] that [`MultiplexServer::connect`] builds on the same endpoint.
pub(crate) struct SessionConduit {
    pool: Arc<Pool>,
    slot: Arc<SessionSlot>,
}

impl SessionConduit {
    /// The (possibly server-assigned) id this conduit's session is seated under.
    pub(crate) fn session(&self) -> SessionId {
        self.slot.session
    }

    /// Run one frame of this session under `seq` on the calling thread and hand back
    /// S2's reply.  Fails only once the server is gone.
    pub(crate) fn call(&self, seq: u64, frame: &[u8]) -> Result<Envelope> {
        let pool = &*self.pool;
        // Lock order: session, then permit.  Whoever waits for this session's previous
        // request waits here, holding no permit; the permit is held only to compute.
        let mut state = self.slot.state.plock();
        if pool.gone.load(Ordering::SeqCst) {
            return Err(ProtocolError::transport_io("multiplex server is gone"));
        }
        let _permit = pool.permit();
        let SessionState { engine, last_reply } = &mut *state;
        engine.set_crowd(pool.crowd());
        let reply = match frame.split_first() {
            Some((&frame::REQUEST, payload)) => {
                // Replay check, under the session lock so the cache and the execution
                // serialize: a re-delivered sequence number (a resumed client
                // re-sending the envelope it never saw answered) is answered from the
                // cache without touching the engine — ledger and nonce streams advance
                // exactly once.
                match last_reply.as_ref().filter(|(cached_seq, _)| seq != 0 && *cached_seq == seq) {
                    Some((_, reply)) => {
                        pool.replayed.fetch_add(1, Ordering::Relaxed);
                        pool.metrics.replayed.incr();
                        reply.clone()
                    }
                    None => {
                        let response = match wire::from_bytes::<S1Request>(payload) {
                            Ok(request) => {
                                engine.handle(&request).unwrap_or_else(S2Response::Error)
                            }
                            Err(e) => S2Response::Error(WireError::codec(format!(
                                "undecodable request: {e}"
                            ))),
                        };
                        let reply = framed(frame::RESPONSE, &response);
                        if seq != 0 {
                            *last_reply = Some((seq, reply.clone()));
                        }
                        reply
                    }
                }
            }
            Some((&frame::FETCH_LEDGER, _)) => framed(frame::LEDGER, engine.ledger()),
            Some((&frame::RESET, _)) => {
                engine.reset();
                vec![frame::RESET_DONE]
            }
            Some((&tag, _)) => {
                framed(frame::RESPONSE, &S2Response::Error(WireError::unknown_frame(tag)))
            }
            None => framed(frame::RESPONSE, &S2Response::Error(WireError::codec("empty frame"))),
        };
        Ok(Envelope { session: self.slot.session, seq, frame: reply })
    }

    /// Run `update` on this session's seat — unless the seat is gone or belongs to a
    /// later session that re-attached under the same id.
    fn with_seat<T>(
        &self,
        update: impl FnOnce(OccupiedEntry<'_, SessionId, Seat>) -> T,
    ) -> Option<T> {
        match self.pool.table.plock().seats.entry(self.slot.session) {
            Entry::Occupied(seat) if Arc::ptr_eq(&seat.get().slot, &self.slot) => {
                Some(update(seat))
            }
            _ => None,
        }
    }

    /// Unseat the session, freeing its id and dropping its engine.  `clean` tells a
    /// client's own DISCONNECT from a removal on behalf of a client that died.  A
    /// request still running on the slot finishes against its caller's own `Arc`.
    pub(crate) fn close(&self, clean: bool) {
        if self.with_seat(|seat| seat.remove()).is_some() && !clean {
            self.pool.metrics.evicted.incr();
        }
    }

    /// Park the session for `ttl`: its connection is gone, its engine, ledger, replay
    /// cache and resume token stay.  `false` if the session is no longer seated.
    pub(crate) fn park(&self, ttl: Duration) -> bool {
        self.with_seat(|mut seat| seat.get_mut().parked = Some((clock(), ttl))).is_some()
    }
}

/// The in-memory [`Pipe`]: an exchange is a call into the pool on the S1 thread.
struct ConduitPipe {
    conduit: SessionConduit,
    link: LinkProfile,
}

impl Pipe for ConduitPipe {
    fn kind(&self) -> TransportKind {
        TransportKind::Multiplex
    }

    fn link(&self) -> LinkProfile {
        self.link
    }

    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope> {
        let rtt = self.link.rtt;
        // Control traffic (sequence number 0) skips the link.
        if envelope.seq == 0 || rtt.is_zero() {
            return self.conduit.call(envelope.seq, &envelope.frame);
        }
        // The simulated RTT elapses on a sleeper *beside* the call, so it overlaps with
        // S2's compute exactly as propagation overlaps with remote work on a real link:
        // the round costs the longer of the two, not their sum.
        std::thread::scope(|link| {
            link.spawn(|| std::thread::sleep(rtt));
            self.conduit.call(envelope.seq, &envelope.frame)
        })
    }

    fn disconnect(&mut self, _envelope: &Envelope) {
        self.conduit.close(true);
    }
}

/// The crypto cloud S2 as a multi-session service: a session table and a budget of
/// compute permits.  It owns no thread — every request runs on the thread that brought
/// it, under one permit.
pub struct MultiplexServer {
    pool: Arc<Pool>,
}

impl fmt::Debug for MultiplexServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiplexServer")
            .field("workers", &self.workers())
            .field("active_sessions", &self.active_sessions())
            .finish()
    }
}

/// Why the serving stack refused a session: the one refusal vocabulary, shared by the
/// session table ([`MultiplexServer::attach`], [`MultiplexServer::resume`]) and the TCP
/// handshake, which ships it to the client as is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RejectCode {
    /// Undecodable hello or wrong magic.
    Malformed,
    /// Client speaks a different [`crate::tcp::TCP_PROTOCOL_VERSION`].
    VersionMismatch,
    /// The session table (active + parked) is at capacity.  Transient.
    Full,
    /// The server is draining: finishing in-flight sessions, accepting no claims.
    /// Transient from the fleet's point of view (retry against a peer).
    Draining,
    /// Fresh hello proposing an id that is connected, or a resume racing a live
    /// connection that never died.
    SessionInUse,
    /// Resume refused outright: unknown session, expired park TTL, token mismatch,
    /// or another client already claimed it.
    ResumeDenied,
}

/// What a claim on the session table comes to: a conduit for the seated session, or a
/// refusal — its code and a human-readable reason.
pub(crate) type Seating = std::result::Result<SessionConduit, (RejectCode, String)>;

/// Map a refusal by the S2 at `peer` onto the typed error taxonomy: capacity refusals are
/// transient (retry), everything else is permanent.
pub(crate) fn rejection_error(peer: impl Display, code: RejectCode, reason: &str) -> ProtocolError {
    let message = format!("S2 at {peer} refused the connection: {reason}");
    match code {
        RejectCode::Full | RejectCode::Draining => ProtocolError::transport_overloaded(message),
        _ => ProtocolError::transport_rejected(message),
    }
}

impl MultiplexServer {
    /// A server on which `workers` S2 requests (at least one) may execute at once, with
    /// no admission bound beyond the [`PoolLimits`] default.
    pub fn new(workers: usize) -> Self {
        Self::with_limits(workers, PoolLimits::default())
    }

    /// A server on which `workers` S2 requests (at least one) may execute at once, with
    /// an explicit admission-control bound.
    pub fn with_limits(workers: usize, limits: PoolLimits) -> Self {
        Self::with_limits_and_metrics(workers, limits, MetricsRegistry::disabled())
    }

    /// A server that additionally reports into `metrics_registry` (see
    /// [`sectopk_metrics::Registry`]): pool counters (`pool.replayed`, `pool.attached`,
    /// `pool.reattached`, `pool.evicted`), per-permit busy-time histograms
    /// (`pool.worker.{i}.busy_nanos`), and every attached session engine's request
    /// counters.  A disabled registry makes every instrument a no-op; either way the
    /// protocol bytes, ledgers and [`crate::ChannelMetrics`] are unaffected.
    pub fn with_limits_and_metrics(
        workers: usize,
        limits: PoolLimits,
        metrics_registry: MetricsRegistry,
    ) -> Self {
        let workers = workers.max(1);
        let idle = (0..workers)
            .map(|i| metrics_registry.histogram(&format!("pool.worker.{i}.busy_nanos")))
            .collect();
        MultiplexServer {
            pool: Arc::new(Pool {
                table: Mutex::new(SessionTable {
                    seats: HashMap::new(),
                    last_assigned: ASSIGNED_SESSION_BASE,
                }),
                limits: PoolLimits { max_sessions: limits.max_sessions.max(1) },
                workers,
                idle: Mutex::new(idle),
                freed: Condvar::new(),
                gone: AtomicBool::new(false),
                replayed: AtomicU64::new(0),
                metrics: PoolMetrics::from_registry(&metrics_registry),
                metrics_registry,
            }),
        }
    }

    /// Number of S2 requests that may execute at once.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// Worker threads a request of an engine without an explicit worker count computes
    /// on if it starts now: the machine's cores shared among `min(W, connected sessions)`.
    pub fn intra_workers(&self) -> usize {
        share(cores(), self.pool.crowd())
    }

    /// Number of sessions the table currently holds, connected and parked alike.
    pub fn active_sessions(&self) -> usize {
        self.pool.read_table().seats.len()
    }

    /// Number of sessions parked after their connection died, awaiting a resume.
    pub(crate) fn parked_sessions(&self) -> usize {
        self.pool.read_table().seats.values().filter(|s| s.parked.is_some()).count()
    }

    /// The admission-control bound this pool runs under.
    pub fn limits(&self) -> PoolLimits {
        self.pool.limits
    }

    /// Replies served from a session's last-reply cache instead of re-executing the
    /// request — each one is a retry made idempotent.
    pub fn replayed_replies(&self) -> u64 {
        self.pool.replayed.load(Ordering::Relaxed)
    }

    /// The metrics registry this pool reports into.  Disabled (all instruments no-ops)
    /// unless the server was built with [`MultiplexServer::with_limits_and_metrics`];
    /// snapshot it at any time with [`sectopk_metrics::Registry::snapshot`].
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.pool.metrics_registry
    }

    /// Seat `session` backed by `engine` and hand back the S1-side transport for it
    /// (`SessionId(0)` lets the server assign the id).  The engine carries the
    /// session's seed (and thereby its deterministic pool shards); build it with
    /// [`sectopk_crypto::pool::shard_seed`]-derived seeds when serving many sessions
    /// from one base seed.  Fails if the id is already seated or the table is full.
    pub fn connect(
        &self,
        session: SessionId,
        engine: S2Engine,
        link: LinkProfile,
    ) -> Result<EnvelopeTransport> {
        let conduit = self
            .attach(session, engine, 0)
            .map_err(|(code, reason)| rejection_error("the local pool", code, &reason))?;
        Ok(EnvelopeTransport::new(conduit.session(), Box::new(ConduitPipe { conduit, link })))
    }

    /// Seat a new session backed by `engine` under the `proposed` id (0: assign one),
    /// resumable with `token` (0: never).  The id check, the admission cap and the
    /// insertion happen under one lock, so concurrent attachments cannot over-admit.
    pub(crate) fn attach(&self, proposed: SessionId, mut engine: S2Engine, token: u64) -> Seating {
        let mut table = self.pool.read_table();
        if table.seats.contains_key(&proposed) {
            let reason = format!("session id {} is already connected", proposed.0);
            return Err((RejectCode::SessionInUse, reason));
        }
        let cap = self.pool.limits.max_sessions;
        if table.seats.len() >= cap {
            return Err((RejectCode::Full, format!("server full ({cap} sessions)")));
        }
        let mut session = proposed;
        while session.0 == 0 || table.seats.contains_key(&session) {
            table.last_assigned += 1;
            session = SessionId(table.last_assigned);
        }
        // Every engine served by this pool reports into the pool's registry (request
        // counters, compute-time histograms); a disabled registry makes that a no-op.
        engine.set_metrics_registry(&self.pool.metrics_registry);
        self.pool.metrics.attached.incr();
        let state = Mutex::new(SessionState { engine, last_reply: None });
        let slot = Arc::new(SessionSlot { session, state });
        table.seats.insert(session, Seat { slot: Arc::clone(&slot), token, parked: None });
        Ok(SessionConduit { pool: Arc::clone(&self.pool), slot })
    }

    /// Take over the parked `session`: check `presented` against its token, rotate the
    /// token to `rotated`, un-park it and hand back a conduit for the *same* slot —
    /// engine, ledger, nonce shards and last-reply cache all survive.  The cached reply
    /// is dropped if the client already saw it (`seq <= acked`): it will never re-send
    /// that sequence number.
    pub(crate) fn resume(
        &self,
        session: SessionId,
        presented: u64,
        rotated: u64,
        acked: u64,
    ) -> Seating {
        let slot = {
            let mut table = self.pool.read_table();
            let Some(seat) = table.seats.get_mut(&session) else {
                return Err((RejectCode::ResumeDenied, "unknown or expired session".into()));
            };
            if seat.token == 0 || seat.token != presented {
                return Err((RejectCode::ResumeDenied, "resume token mismatch".into()));
            }
            if seat.parked.is_none() {
                return Err((RejectCode::SessionInUse, "session still connected".into()));
            }
            seat.parked = None;
            seat.token = rotated;
            Arc::clone(&seat.slot)
        };
        // Outside the table lock: the session's previous life may hold its lock for a
        // whole request.
        slot.state.plock().last_reply.take_if(|(seq, _)| *seq <= acked);
        self.pool.metrics.reattached.incr();
        Ok(SessionConduit { pool: Arc::clone(&self.pool), slot })
    }

    /// Unseat every parked session, whatever its TTL (the drain path).  Returns how many
    /// were reaped.
    pub(crate) fn reap_parked(&self) -> usize {
        let reaped = self.pool.table.plock().unseat_parked(|_, _| true);
        self.pool.metrics.evicted.add(reaped as u64);
        reaped
    }
}

impl Drop for MultiplexServer {
    fn drop(&mut self) {
        // A request already running finishes on its caller's thread; every later call
        // fails cleanly, and dropping the seats releases every engine no conduit holds.
        self.pool.gone.store(true, Ordering::SeqCst);
        self.pool.table.plock().seats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
    use sectopk_crypto::pool::shard_seed;

    use crate::ledger::LeakageLedger;
    use crate::transport::{InProcessTransport, Transport};
    use crate::wire::Traffic;

    fn master(seed: u64) -> MasterKeys {
        let mut rng = StdRng::seed_from_u64(seed);
        MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap()
    }

    fn engine_for(master: &MasterKeys, engine_seed: u64) -> S2Engine {
        let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xABCD);
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        S2Engine::new(master.s2_view(), own_pk, engine_seed)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        S1Request::Compare {
            blinded: vec![master.paillier_public.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    #[test]
    fn envelope_round_trips_and_rejects_truncation() {
        let envelope =
            Envelope { session: SessionId(77), seq: 12, frame: vec![frame::REQUEST, 1, 2, 3] };
        let bytes = envelope.encode();
        assert_eq!(bytes.len(), ENVELOPE_HEADER_LEN + 4);
        assert_eq!(Envelope::decode(&bytes).unwrap(), envelope);
        assert!(Envelope::decode(&bytes[..ENVELOPE_HEADER_LEN - 1]).is_err());
        // An empty frame decodes; the pool answers it with a typed error.
        let empty = Envelope { session: SessionId(1), seq: 0, frame: vec![] };
        assert_eq!(Envelope::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn multiplexed_session_matches_dedicated_channel_transport() {
        // The oracle is the in-process direct call: same answer, same traffic, same
        // ledger.
        let master = master(21);
        let server = MultiplexServer::new(2);
        let mut mux =
            server.connect(SessionId(5), engine_for(&master, 99), LinkProfile::ideal()).unwrap();
        let mut oracle = InProcessTransport::new(engine_for(&master, 99));

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = mux.round_trip(compare_request(&master, -4, &mut rng_a)).unwrap();
        let b = oracle.round_trip(compare_request(&master, -4, &mut rng_b)).unwrap();
        assert_eq!(a, b, "same engine seed must answer identically, with the same traffic");
        assert_eq!(mux.s2_ledger().events(), oracle.s2_ledger().events());
        assert_eq!(mux.kind(), TransportKind::Multiplex);
    }

    #[test]
    fn sessions_are_isolated_and_ledgers_do_not_bleed() {
        let master = master(22);
        let server = MultiplexServer::new(3);
        let mut s1 = server
            .connect(SessionId(1), engine_for(&master, shard_seed(7, 1)), LinkProfile::ideal())
            .unwrap();
        let mut s2 = server
            .connect(SessionId(2), engine_for(&master, shard_seed(7, 2)), LinkProfile::ideal())
            .unwrap();
        assert_eq!(server.active_sessions(), 2);

        let mut rng = StdRng::seed_from_u64(9);
        s1.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        s1.round_trip(compare_request(&master, -1, &mut rng)).unwrap();
        s2.round_trip(compare_request(&master, 2, &mut rng)).unwrap();

        assert_eq!(s1.s2_ledger().len(), 2, "session 1 observed its own two signs");
        assert_eq!(s2.s2_ledger().len(), 1, "session 2 observed exactly its own sign");

        // Resetting one session leaves the other's ledger intact.
        s1.reset_s2();
        assert!(s1.s2_ledger().is_empty());
        assert_eq!(s2.s2_ledger().len(), 1);
    }

    #[test]
    fn duplicate_session_ids_are_rejected() {
        let master = master(23);
        let server = MultiplexServer::new(1);
        let _first =
            server.connect(SessionId(9), engine_for(&master, 1), LinkProfile::ideal()).unwrap();
        let err =
            server.connect(SessionId(9), engine_for(&master, 2), LinkProfile::ideal()).unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)));
        assert_eq!(server.active_sessions(), 1);
    }

    #[test]
    fn disconnect_frees_the_session_slot() {
        let master = master(24);
        let server = MultiplexServer::new(1);
        {
            let mut t =
                server.connect(SessionId(4), engine_for(&master, 5), LinkProfile::ideal()).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            t.round_trip(compare_request(&master, 3, &mut rng)).unwrap();
            assert_eq!(server.active_sessions(), 1);
        }
        // Teardown is synchronous (the drop waits for the disconnect ack), so the id is
        // immediately free for reuse.
        assert_eq!(server.active_sessions(), 0);
        let _t =
            server.connect(SessionId(4), engine_for(&master, 6), LinkProfile::ideal()).unwrap();
        assert_eq!(server.active_sessions(), 1);
    }

    #[test]
    fn dropped_server_errors_cleanly() {
        let master = master(25);
        let server = MultiplexServer::new(2);
        let mut t =
            server.connect(SessionId(8), engine_for(&master, 5), LinkProfile::ideal()).unwrap();
        drop(server);
        let mut rng = StdRng::seed_from_u64(2);
        let err = t.round_trip(compare_request(&master, 1, &mut rng)).unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)));
    }

    #[test]
    fn engine_errors_surface_without_killing_the_worker() {
        let master = master(27);
        let server = MultiplexServer::new(1);
        let mut t =
            server.connect(SessionId(3), engine_for(&master, 2), LinkProfile::ideal()).unwrap();
        use crate::wire::WireErrorCode;
        let mut rng = StdRng::seed_from_u64(5);
        let matrix = |entries: usize, cols: usize, rng: &mut StdRng| S1Request::EqMatrix {
            diffs: (0..entries)
                .map(|_| master.paillier_public.encrypt_u64(0, rng).unwrap())
                .collect(),
            cols,
            context: "test".into(),
            depth: None,
            sets: Vec::new(),
            select: Vec::new(),
            disclose_rows: false,
        };
        // A matrix whose last row is partial, and one with zero columns (which would
        // divide by zero in the aggregate derivation), are structurally malformed.
        for (entries, cols) in [(3, 2), (0, 0)] {
            let (reply, _) = t.round_trip(matrix(entries, cols, &mut rng)).unwrap();
            assert!(
                matches!(&reply, S2Response::Error(e) if e.code == WireErrorCode::MalformedRequest),
                "unexpected reply {reply:?}"
            );
        }
        // Neither rejection touched the ledger, and the single permit survived both:
        // the pool still serves requests.
        assert!(t.s2_ledger().is_empty());
        t.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
    }

    fn compare_frame(master: &MasterKeys, value: i64, rng: &mut StdRng) -> Vec<u8> {
        framed(frame::REQUEST, &compare_request(master, value, rng))
    }

    /// A one-entry equality matrix with one selection, whose `Enc(t)` and selection reply
    /// consume the engine's nonce stream.
    fn eq_test(master: &MasterKeys, rng: &mut StdRng) -> S1Request {
        use crate::transport::{MaskedSet, Per, Select};
        let pk = &master.paillier_public;
        S1Request::EqMatrix {
            diffs: vec![pk.encrypt_u64(0, rng).unwrap()],
            cols: 1,
            context: "test".into(),
            depth: None,
            sets: vec![MaskedSet(Per::Cell, vec![pk.encrypt_u64(7, rng).unwrap()])],
            select: vec![Select(Per::Cell, 0, None)],
            disclose_rows: false,
        }
    }

    /// What a refused claim returns: the wire's code, and the reason that tells the
    /// refusals sharing a code apart.
    fn refused(code: RejectCode, reason: &str) -> Option<(RejectCode, String)> {
        Some((code, reason.into()))
    }

    /// Fetch the session's ledger through the raw conduit.
    fn ledger_of(conduit: &SessionConduit) -> LeakageLedger {
        let reply = conduit.call(0, &[frame::FETCH_LEDGER]).unwrap();
        let (tag, payload) = reply.frame.split_first().unwrap();
        assert_eq!(*tag, frame::LEDGER);
        wire::from_bytes(payload).unwrap()
    }

    #[test]
    fn retried_sequence_is_replayed_from_cache_not_reexecuted() {
        let master = master(31);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(6), engine_for(&master, 44), 0).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let frame = compare_frame(&master, 5, &mut rng);
        let first = conduit.call(1, &frame).unwrap();
        assert_eq!((first.session, first.seq), (SessionId(6), 1), "replies echo the header");
        // Deliver the exact same frame again, as a resumed client's retry would.
        let second = conduit.call(1, &frame).unwrap();
        assert_eq!(first, second, "replayed reply must be byte-identical");
        assert_eq!(server.replayed_replies(), 1);
        // The engine executed once: the session ledger holds exactly one sign event.
        assert_eq!(ledger_of(&conduit).len(), 1, "the compare must have executed exactly once");
    }

    #[test]
    fn pruned_replay_cache_reexecutes_a_resent_sequence() {
        // A resume that acknowledges the reply frees the cache entry, and a
        // (protocol-violating) re-send executes afresh.
        let master = master(33);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(2), engine_for(&master, 11), 77).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let frame = compare_frame(&master, -7, &mut rng);
        conduit.call(1, &frame).unwrap();
        assert!(conduit.park(Duration::from_secs(60)));
        let resumed = server.resume(SessionId(2), 77, 78, 1).unwrap();
        resumed.call(1, &frame).unwrap();
        assert_eq!(server.replayed_replies(), 0, "pruned entry cannot replay");
        assert_eq!(ledger_of(&resumed).len(), 2);
    }

    #[test]
    fn session_table_full_is_a_typed_retryable_overload() {
        use crate::error::TransportErrorKind;
        let master = master(34);
        let server = MultiplexServer::with_limits(1, PoolLimits { max_sessions: 1 });
        let _a =
            server.connect(SessionId(1), engine_for(&master, 1), LinkProfile::ideal()).unwrap();
        let err =
            server.connect(SessionId(2), engine_for(&master, 2), LinkProfile::ideal()).unwrap_err();
        assert!(err.is_retryable(), "a full session table is transient");
        assert!(
            matches!(&err, ProtocolError::Transport(e) if e.kind == TransportErrorKind::Overloaded),
            "unexpected error {err:?}"
        );
        // A duplicate id is permanent, not an overload.
        let dup =
            server.connect(SessionId(1), engine_for(&master, 3), LinkProfile::ideal()).unwrap_err();
        assert!(!dup.is_retryable());
    }

    #[test]
    fn reattach_preserves_engine_state_and_swaps_the_reply_channel() {
        let master = master(35);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(9), engine_for(&master, 21), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        conduit.call(1, &compare_frame(&master, 2, &mut rng)).unwrap();

        // While the session is connected, even the right token cannot claim it.
        assert_eq!(
            server.resume(SessionId(9), 5, 6, 1).err(),
            refused(RejectCode::SessionInUse, "session still connected")
        );
        // The connection "drops" (conduit kept alive to model a dying connection thread)
        // and the session is parked; only the current token takes it over, exactly once.
        assert!(conduit.park(Duration::from_secs(60)));
        assert_eq!(server.parked_sessions(), 1);
        assert_eq!(
            server.resume(SessionId(9), 4, 6, 1).err(),
            refused(RejectCode::ResumeDenied, "resume token mismatch")
        );
        let resumed = server.resume(SessionId(9), 5, 6, 1).expect("session is parked");
        assert_eq!(server.parked_sessions(), 0);
        assert_eq!(
            server.resume(SessionId(9), 5, 7, 1).err(),
            refused(RejectCode::ResumeDenied, "resume token mismatch"),
            "the token rotated with the resume"
        );
        // The reply path is whoever calls: the resumed conduit's caller gets the answer.
        let reply = resumed.call(2, &compare_frame(&master, -3, &mut rng)).unwrap();
        assert_eq!((reply.session, reply.seq), (SessionId(9), 2));
        // Both requests landed in the same engine: the ledger saw both signs.
        assert_eq!(ledger_of(&resumed).len(), 2, "the resumed slot kept its ledger");

        assert_eq!(
            server.resume(SessionId(99), 5, 6, 0).err(),
            refused(RejectCode::ResumeDenied, "unknown or expired session")
        );
        // In-process sessions (token 0) are never resumable, not even with token 0.
        let local = server.attach(SessionId(3), engine_for(&master, 22), 0).unwrap();
        assert!(local.park(Duration::from_secs(60)));
        assert_eq!(
            server.resume(SessionId(3), 0, 1, 0).err(),
            refused(RejectCode::ResumeDenied, "resume token mismatch")
        );
    }

    #[test]
    fn parked_sessions_expire_at_their_deadline() {
        let master = master(36);
        let server = MultiplexServer::new(1);
        let soon = server.attach(SessionId(1), engine_for(&master, 1), 11).unwrap();
        let later = server.attach(SessionId(2), engine_for(&master, 2), 12).unwrap();
        let _live = server.attach(SessionId(3), engine_for(&master, 3), 13).unwrap();
        assert!(soon.park(Duration::from_millis(50)));
        assert!(later.park(Duration::from_secs(60)));

        // Past its deadline a parked session is gone for a resume: the claim's read of
        // the table reaps it.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(
            server.resume(SessionId(1), 11, 99, 0).err(),
            refused(RejectCode::ResumeDenied, "unknown or expired session")
        );
        assert_eq!(server.active_sessions(), 2);
        assert!(!soon.park(Duration::from_secs(60)), "an unseated session cannot be parked again");
        // A read reaps by deadline; the drain reaps every parked session; connected
        // sessions are never touched.
        assert_eq!(server.parked_sessions(), 1, "a read reaps no seat before its deadline");
        assert_eq!(server.reap_parked(), 1);
        assert_eq!(server.active_sessions(), 1);
        // A freed id seats a new session, which a stale conduit cannot unseat.
        let _reused = server.attach(SessionId(2), engine_for(&master, 4), 14).unwrap();
        later.close(false);
        assert_eq!(server.active_sessions(), 2);
    }

    #[test]
    fn an_expired_session_is_reaped_by_the_next_read_of_the_table() {
        // No thread reaps: the reads a one-seat pool makes after the TTL find it free.
        let master = master(42);
        let registry = MetricsRegistry::enabled();
        let limits = PoolLimits { max_sessions: 1 };
        let server = MultiplexServer::with_limits_and_metrics(1, limits, registry.clone());
        let parked = server.attach(SessionId(1), engine_for(&master, 1), 11).unwrap();
        let fresh = engine_for(&master, 2);
        assert!(parked.park(Duration::from_millis(50)));
        std::thread::sleep(Duration::from_millis(60));

        let _fresh = server.attach(SessionId(2), fresh, 12).expect("the expired seat is free");
        assert_eq!(server.active_sessions(), 1, "only the fresh session is counted");
        assert_eq!(
            server.resume(SessionId(1), 11, 13, 0).err(),
            refused(RejectCode::ResumeDenied, "unknown or expired session")
        );
        assert_eq!(registry.snapshot().counter("pool.evicted"), 1, "one expiry, counted once");
    }

    #[test]
    fn server_assigned_ids_skip_seated_ones() {
        let master = master(37);
        let server = MultiplexServer::new(1);
        let first_assigned = SessionId(ASSIGNED_SESSION_BASE + 1);
        let _squatter = server.attach(first_assigned, engine_for(&master, 1), 0).unwrap();
        let assigned = server.attach(SessionId(0), engine_for(&master, 2), 0).unwrap();
        assert_eq!(assigned.session(), SessionId(ASSIGNED_SESSION_BASE + 2));
    }

    #[test]
    fn an_envelope_outliving_its_session_never_reaches_a_reattached_id() {
        // The stale-envelope race, forced: the pool's single permit is held while a
        // call for session 9 waits for it; session 9 is reaped and its id re-attached
        // with a new engine; then the permit is released.  The waiting call runs
        // against the *old* slot its conduit holds, so the new session's ledger and
        // nonce stream must be untouched.
        let master = master(38);
        let server = MultiplexServer::new(1);
        let mut rng = StdRng::seed_from_u64(6);

        let victim = server.attach(SessionId(9), engine_for(&master, 50), 0).unwrap();
        let stale = framed(frame::REQUEST, &eq_test(&master, &mut rng));
        let (orphan, mut fresh) = std::thread::scope(|scope| {
            let held = server.pool.permit();
            let orphan = scope.spawn(|| victim.call(1, &stale));
            victim.close(false);
            let fresh = server
                .connect(SessionId(9), engine_for(&master, 60), LinkProfile::ideal())
                .unwrap();
            drop(held); // release the pool
            (orphan.join().unwrap(), fresh)
        });

        // The orphaned envelope did run — against the slot it was submitted through.
        assert_eq!(orphan.unwrap().seq, 1);
        // The new session 9 never saw it: empty ledger, and its first nonce-consuming
        // answer equals that of an untouched engine with the same seed.
        assert!(fresh.s2_ledger().is_empty(), "the stale envelope leaked into the new session");
        let mut oracle = InProcessTransport::new(engine_for(&master, 60));
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        assert_eq!(
            fresh.round_trip(eq_test(&master, &mut rng_a)).unwrap(),
            oracle.round_trip(eq_test(&master, &mut rng_b)).unwrap(),
            "the new session's nonce stream was advanced by the stale envelope"
        );
    }

    #[test]
    fn one_permit_serves_four_hammering_sessions_and_accounts_every_request_to_worker_0() {
        const ROUNDS: usize = 6;
        let master = master(39);
        let registry = MetricsRegistry::enabled();
        let server =
            MultiplexServer::with_limits_and_metrics(1, PoolLimits::default(), registry.clone());
        let hammer = |s: u64| {
            let engine = engine_for(&master, shard_seed(7, s));
            let mut t = server.connect(SessionId(s), engine, LinkProfile::ideal()).unwrap();
            let master = &master;
            move || {
                let mut rng = StdRng::seed_from_u64(s);
                let replies: Vec<(S2Response, Traffic)> =
                    (0..ROUNDS).map(|_| t.round_trip(eq_test(master, &mut rng)).unwrap()).collect();
                (replies, t.s2_ledger())
            }
        };
        let served: Vec<(Vec<(S2Response, Traffic)>, LeakageLedger)> =
            std::thread::scope(|scope| {
                let sessions: Vec<_> = (1..=4).map(|s| scope.spawn(hammer(s))).collect();
                sessions.into_iter().map(|session| session.join().unwrap()).collect()
            });

        // Each session's replies and ledger equal its isolated replay.
        for (s, (replies, ledger)) in (1..=4).zip(&served) {
            let mut oracle = InProcessTransport::new(engine_for(&master, shard_seed(7, s)));
            let mut rng = StdRng::seed_from_u64(s);
            for reply in replies {
                assert_eq!(*reply, oracle.round_trip(eq_test(&master, &mut rng)).unwrap());
            }
            assert_eq!(ledger.events(), oracle.s2_ledger().events(), "session {s}");
        }
        // Every call — ROUNDS requests and one ledger fetch per session — held the one
        // permit there is, and no second worker index was ever minted.
        let snapshot = registry.snapshot();
        let busy = snapshot.histogram("pool.worker.0.busy_nanos").expect("worker 0 is metered");
        assert_eq!(busy.count, 4 * (ROUNDS as u64 + 1));
        assert!(snapshot.histograms.keys().all(|name| !name.starts_with("pool.worker.1")));
    }

    #[test]
    fn a_connected_but_silent_session_holds_no_permit() {
        // On a one-permit pool a neighbour finishes while a seated session says nothing.
        let master = master(40);
        let server = MultiplexServer::new(1);
        let _silent =
            server.connect(SessionId(1), engine_for(&master, 1), LinkProfile::ideal()).unwrap();
        let mut neighbour =
            server.connect(SessionId(2), engine_for(&master, 2), LinkProfile::ideal()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        neighbour.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        assert_eq!(server.pool.idle.plock().len(), 1, "the permit is free between requests");
    }

    #[test]
    fn the_share_divides_the_cores_among_connected_sessions_up_to_the_permits() {
        let master = master(41);
        let server = MultiplexServer::new(2);
        let cores = sectopk_crypto::par::cores();
        assert_eq!(server.intra_workers(), cores, "the first session is alone");
        let a = server.attach(SessionId(1), engine_for(&master, 1), 0).unwrap();
        assert_eq!(server.intra_workers(), cores);
        let b = server.attach(SessionId(2), engine_for(&master, 2), 0).unwrap();
        assert_eq!(server.intra_workers(), share(cores, 2));
        let _c = server.attach(SessionId(3), engine_for(&master, 3), 0).unwrap();
        assert_eq!(server.intra_workers(), share(cores, 2), "two permits: two compute at once");
        assert!(a.park(Duration::from_secs(60)));
        b.close(true);
        assert_eq!(server.intra_workers(), cores, "a parked session computes nothing");
    }

    #[test]
    fn simulated_link_adds_wall_clock_but_not_traffic() {
        let master = master(28);
        let server = MultiplexServer::new(1);
        let mut fast =
            server.connect(SessionId(1), engine_for(&master, 9), LinkProfile::ideal()).unwrap();
        let mut slow = server
            .connect(SessionId(2), engine_for(&master, 9), LinkProfile::with_rtt_ms(30))
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let (_, fast_traffic) = fast.round_trip(compare_request(&master, 1, &mut rng_a)).unwrap();
        let start = std::time::Instant::now();
        let (_, slow_traffic) = slow.round_trip(compare_request(&master, 1, &mut rng_b)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30), "RTT must cost wall-clock");
        assert_eq!(fast_traffic, slow_traffic, "the simulated link must not alter traffic");
    }
}
