//! Real-socket deployment: the crypto cloud S2 as a networked process.
//!
//! This module makes the §3.2 deployment literal.  A [`TcpCloudServer`] (the
//! `sectopk-s2d` binary) listens on a socket and seats each accepted connection in a
//! [`crate::multiplex::MultiplexServer`]; [`connect`] dials it and hands back the same
//! [`EnvelopeTransport`] an in-memory session uses, over a socket pipe that ships each
//! [`Envelope`] length-prefix-framed onto the stream:
//!
//! ```text
//!    S1 process                                        S2 process (sectopk-s2d)
//!   ┌──────────────┐   frame = u32 LE length ‖ bytes  ┌─────────────────────────────┐
//!   │ Envelope-    │ ───────────────────────────────▶ │ accept loop ─ one thread per │
//!   │ Transport    │   bytes = Envelope{session,seq,  │ connection: read → call →    │
//!   │ (socket pipe)│            tag ‖ wire payload}   │ write, the call running in   │
//!   │              │ ◀─────────────────────────────── │ the MultiplexServer's budget │
//!   └──────────────┘                                  └─────────────────────────────┘
//! ```
//!
//! # Connection lifecycle
//!
//! 1. **Connect** with bounded retry and capped, deterministically jittered exponential
//!    backoff (a fixed schedule: `CONNECT_ATTEMPTS`, `CONNECT_BACKOFF`), the schedule
//!    every reconnect runs on too.
//! 2. **Handshake**: the client sends a `ClientHello` — magic, protocol version
//!    ([`TCP_PROTOCOL_VERSION`]), and either a *fresh* session (a proposed id, 0 = server
//!    assigns, plus the [`EngineProvision`] that boots its S2 engine) or a *resume* of a
//!    parked one (session id, last acknowledged sequence number, resume token).  The
//!    server answers accept (negotiated id + a fresh resume token) or a typed reject, in
//!    the vocabulary the pool's session table refuses in too (`RejectCode`).  A
//!    connection that stays silent for 5 s (`HELLO_TIMEOUT`) before it is seated is
//!    closed: until then it has earned neither a thread nor memory of S2's.
//! 3. **Serve**: strict request/reply — the connection's own thread reads a frame, runs
//!    it in the pool (under the session's lock and one compute permit, see
//!    [`crate::multiplex`]) and writes the reply back.  At most one frame per
//!    connection is in flight, and a stalled socket back-pressures its own thread only.
//! 4. **Teardown**: dropping the transport ships a `DISCONNECT` frame and blocks for
//!    the ack, so the session id is free the moment the drop returns.
//!
//! # Fault tolerance
//!
//! A connection that dies *without* the DISCONNECT handshake (socket error, EOF,
//! cross-session injection) does not destroy its session.  When the listener's park TTL
//! ([`TcpCloudServer::park_ttl`]) is non-zero its thread *parks* it in the pool's session
//! table — the one place session lifecycle, resume tokens, park expiry and the
//! admission cap live (see the diagram in [`crate::multiplex`]) — and a reconnecting
//! client presents its resume token to take the session over exactly where it left off.
//! This module keeps only what is the socket's — whether it is draining, and which
//! stream carries which session — behind one lock, under which a hello is admitted in
//! one critical section (draining check, claim on the session table, registration of the
//! stream): a drain or a shutdown either refuses a connection or finds its stream to
//! sever.  The listener reads no clock and polls nothing: the end of a seated
//! connection signals a condition variable paired with that lock, which is what a drain
//! waits on for the last connection and a resume for the old connection's thread to
//! park its session.
//!
//! Exactly-once effects across a resume come from the pool's per-session last-reply
//! cache: the client re-sends the one envelope it never saw answered, and if the
//! server had already executed it the cached reply is replayed without touching the
//! engine — the ledgers and nonce streams advance exactly once, and the resumed run is
//! byte-identical to an uninterrupted one.
//!
//! On the client the recovery is transparent, and always on: a retryable transport
//! failure mid-exchange triggers reconnect (the dial [`connect`] makes, on the same
//! schedule) → resume handshake → re-send of the unacknowledged envelope, at most
//! `CONNECT_ATTEMPTS` times per exchange — all inside the socket pipe's exchange, below
//! the sequence numbers and echo check of [`EnvelopeTransport`].  A failure it cannot
//! get past surfaces as what it is: [`crate::TransportErrorKind::Io`] once the dial
//! schedule runs out, `Rejected` for a refused resume (the session was reaped, or its
//! listener parks nothing), `Overloaded` for a full or draining server.  The chaos
//! suites inject exactly these failures (severed sockets, delayed replies) on the wire,
//! from a loopback relay between the client and the listener: the pipe has no fault
//! switch of its own.
//!
//! # Metering
//!
//! A round's traffic excludes all framing — the 4-byte length prefix, the 16-byte
//! envelope header and the tag byte — and a recovery's re-send is never counted: the
//! session meters the round once, when its reply arrives, so [`crate::ChannelMetrics`]
//! stays byte-identical with the in-process oracle (asserted by
//! `tests/transport_equivalence.rs`).  A request frame over [`MAX_FRAME_LEN`] is refused
//! with a permanent error before a byte of it is written, and a reply that large is
//! answered with a typed error frame in its place, so either way the session stays
//! usable.  Errors of the socket itself (timeout, reset, EOF) surface as
//! [`ProtocolError::Transport`] with a typed [`crate::TransportErrorKind`]; a
//! provisioning payload this size is key material, so production deployments would wrap
//! the socket in TLS — the handshake (and its resume token, which is an anti-footgun,
//! not a security boundary) is factored so that swap stays local to this module.

// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sectopk_crypto::pool::shard_seed;
use sectopk_metrics::{Counter, Histogram as MetricsHistogram, Registry as MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::engine::EngineProvision;
use crate::error::{ProtocolError, Result};
use crate::multiplex::{
    rejection_error, Envelope, MultiplexServer, RejectCode, Seating, SessionConduit, SessionId,
};
use crate::plock::PoisonFree;
use crate::transport::{frame, framed, EnvelopeTransport, Pipe, S2Response, TransportKind};
use crate::wire::{self, WireError};

/// Version of the TCP handshake and framing.  Bumped on any incompatible change; the
/// server rejects hellos carrying a different version.  v2 added session resumption
/// (the `Fresh`/`Resume` hello split, resume tokens, typed reject codes); v3 sends an
/// EHL+ as its one ciphertext, a one-element sequence, where v2 sent a `{blocks: [..]}`
/// map.
pub const TCP_PROTOCOL_VERSION: u64 = 3;

/// Magic string opening every `ClientHello`; lets the server reject a stray client
/// of some other protocol before trying to decode key material.
const TCP_MAGIC: &str = "sectopk";

/// Upper bound on one length-prefixed frame.  Generous for the protocol's largest
/// batched exchanges while turning a corrupted length prefix into a clean transport
/// error instead of an attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// How long a session whose connection died dirty stays parked awaiting a resume, unless
/// the listener was given another TTL ([`TcpCloudServer::serve_pool`]).
pub const DEFAULT_PARK_TTL: Duration = Duration::from_secs(30);

/// How long a connection that has not been seated yet may stay silent before the
/// server closes it.  Cleared once the session is seated: a seated session
/// legitimately idles between queries.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// The client's connect schedule: attempts before giving up, the delay after the first
/// failed one (doubling per retry, jittered) and its cap — 0.4 s in all against a dead port.
const CONNECT_ATTEMPTS: u32 = 5;
const CONNECT_BACKOFF: Duration = Duration::from_millis(25);
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Client socket timeouts; a server silent for longer than the read timeout yields
/// [`ProtocolError::Transport`] with [`crate::TransportErrorKind::Timeout`].
const READ_TIMEOUT: Duration = Duration::from_secs(30);
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Stream of the backoff jitter seed under the provisioned session seed: retries are
/// deterministic per session, and a fleet fanned out from one base seed decorrelates.
const JITTER_STREAM: u64 = 0x6A17_7E12;

/// What a frame's buffer may hold before any of its bytes has arrived; beyond this it
/// grows with the bytes actually received, never with the length a peer merely claims.
const FRAME_PREALLOC: usize = 64 * 1024;

/// How long a resume handshake waits for the dropped connection's thread to park the
/// session before concluding someone else holds it.  The old thread parks as soon as
/// it observes the dead socket, and its end wakes the handshake, so this is a
/// race-absorbing grace, not a timeout the happy path ever waits out.
const RESUME_GRACE: Duration = Duration::from_secs(5);

// ====================================================================================
// Length-prefixed framing
// ====================================================================================

/// Write one `u32 LE length ‖ bytes` frame in a single buffer (one syscall in the
/// common case, and no interleaving hazard if a writer is ever shared).  A frame over
/// [`MAX_FRAME_LEN`], which the peer would refuse, is refused here with a permanent
/// error before any byte is written, so the stream stays usable.
fn write_frame(mut w: impl Write, bytes: &[u8]) -> Result<()> {
    if bytes.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::transport(format!(
            "oversized frame: {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    w.write_all(&out).map_err(|e| ProtocolError::from_io("writing frame", e))?;
    w.flush().map_err(|e| ProtocolError::from_io("flushing frame", e))
}

/// Read one length-prefixed frame.
fn read_frame(mut r: impl Read) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(|e| ProtocolError::from_io("reading frame header", e))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::transport(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut buf = Vec::with_capacity(len.min(FRAME_PREALLOC));
    r.take(len as u64)
        .read_to_end(&mut buf)
        .map_err(|e| ProtocolError::from_io("reading frame body", e))?;
    if buf.len() < len {
        return Err(ProtocolError::from_io("reading frame body", ErrorKind::UnexpectedEof.into()));
    }
    Ok(buf)
}

// ====================================================================================
// Handshake messages
// ====================================================================================

/// First frame on every connection: identifies the protocol and either provisions a
/// fresh session or resumes a parked one.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ClientHello {
    /// Must be [`TCP_MAGIC`].
    magic: String,
    /// Must be [`TCP_PROTOCOL_VERSION`].
    version: u64,
    /// What the connection wants from the server.
    kind: HelloKind,
}

/// The two ways a connection can claim a session.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum HelloKind {
    /// Provision a new session.
    Fresh {
        /// Proposed session id; 0 asks the server to assign one.
        session: u64,
        /// Everything the server needs to boot this session's
        /// [`crate::engine::S2Engine`].
        provision: EngineProvision,
    },
    /// Take over a parked session after a dropped connection.
    Resume(ResumeHello),
}

/// Resume claim: which session, how far the client got, and proof it is the same
/// client (the token minted at the previous accept).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct ResumeHello {
    /// The session id negotiated by the dropped connection.
    session: u64,
    /// Highest protocol sequence number whose reply the client has seen; the server
    /// prunes the session's replay cache up to it.
    last_acked_seq: u64,
    /// The token the server minted at the previous accept of this session.
    resume_token: u64,
}

/// The server's answer to a `ClientHello`.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum ServerHello {
    /// Connection admitted under the negotiated session id.
    Accept {
        /// The server's protocol version (equals the client's on accept).
        version: u64,
        /// The session id all subsequent envelopes must carry.
        session: u64,
        /// Token a future [`HelloKind::Resume`] of this session must present.
        /// Rotated on every accept, so a stale client cannot hijack a resumed
        /// session.
        resume_token: u64,
    },
    /// Connection refused; the socket closes after this frame.
    Reject {
        /// Machine-readable refusal class.
        code: RejectCode,
        /// Human-readable refusal reason.
        reason: String,
    },
}

// ====================================================================================
// Client policy: backoff
// ====================================================================================

/// The connect schedule's sleep after failed dial round `attempt` (0-based):
/// `CONNECT_BACKOFF * 2^attempt`, capped at `CONNECT_BACKOFF_CAP`, with deterministic
/// jitter in [50%, 100%] drawn from `seed` — seeded runs back off identically, and a
/// fleet sharing the schedule decorrelates by seed.
fn backoff_delay(attempt: u32, seed: u64) -> Duration {
    let capped = CONNECT_BACKOFF.saturating_mul(1 << attempt.min(31)).min(CONNECT_BACKOFF_CAP);
    let percent = 50 + shard_seed(seed, u64::from(attempt) + 1) % 51;
    capped / 100 * percent as u32
}

fn configure_stream(stream: &TcpStream) -> Result<()> {
    stream.set_nodelay(true).map_err(|e| ProtocolError::from_io("configuring socket", e))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| ProtocolError::from_io("configuring socket", e))?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| ProtocolError::from_io("configuring socket", e))
}

// ====================================================================================
// Client: the socket pipe
// ====================================================================================

/// Cached client-side metric handles (`tcp.client.*`).  All no-ops until
/// [`Pipe::set_metrics_registry`] installs an enabled registry; the deterministic fault
/// accounting ([`crate::Transport::faults_absorbed`]) is counted separately and is
/// always on.
#[derive(Clone, Debug, Default)]
struct TcpClientMetrics {
    /// Dial attempts made while recovering a dropped connection
    /// (`tcp.client.connect_attempts`).
    connect_attempts: Counter,
    /// Total nanoseconds slept in recovery backoff (`tcp.client.backoff_nanos`).
    backoff_nanos: Counter,
    /// Encoded envelope bytes per logical exchange (`tcp.client.frame_bytes`).
    frame_bytes: MetricsHistogram,
}

impl TcpClientMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        TcpClientMetrics {
            connect_attempts: registry.counter("tcp.client.connect_attempts"),
            backoff_nanos: registry.counter("tcp.client.backoff_nanos"),
            frame_bytes: registry.histogram("tcp.client.frame_bytes"),
        }
    }
}

/// Connect to a [`TcpCloudServer`] at `addr`, retrying with capped jittered exponential
/// backoff, run the handshake that provisions this session's S2 engine under the id
/// `session` (`SessionId(0)`: the server assigns one), and hand back the session's
/// transport: envelopes travel length-prefix-framed over the socket, with transparent
/// reconnect-resume-resend recovery (see the module docs).
pub fn connect(
    addr: impl ToSocketAddrs,
    provision: EngineProvision,
    session: SessionId,
) -> Result<EnvelopeTransport> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| ProtocolError::transport(format!("resolving S2 address: {e}")))?
        .collect();
    if addrs.is_empty() {
        return Err(ProtocolError::transport("S2 address resolved to nothing"));
    }
    let jitter_seed = shard_seed(provision.seed, JITTER_STREAM);
    // No registry is installed yet, so the first dial counts nowhere.
    let stream = dial(&addrs, jitter_seed, &TcpClientMetrics::default())?;
    let peer = stream.peer_addr().map_err(|e| ProtocolError::from_io("reading peer address", e))?;

    let kind = HelloKind::Fresh { session: session.0, provision };
    let (session, resume_token) = client_handshake(&stream, peer, kind)?;
    let pipe = SocketPipe {
        stream,
        addrs,
        peer,
        session,
        jitter_seed,
        resume_token,
        acked: 0,
        faults_absorbed: 0,
        dead: false,
        client_metrics: TcpClientMetrics::default(),
    };
    Ok(EnvelopeTransport::new(SessionId(session), Box::new(pipe)))
}

/// Dial S2 on the connect schedule: up to `CONNECT_ATTEMPTS` rounds over `addrs`,
/// sleeping out the backoff (jittered by `seed`) between rounds, and hand back the first
/// connection made, configured.  Every dial and every sleep counts in `metrics`.
fn dial(addrs: &[SocketAddr], seed: u64, metrics: &TcpClientMetrics) -> Result<TcpStream> {
    let mut last_error = String::new();
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            let delay = backoff_delay(attempt - 1, seed);
            metrics.backoff_nanos.add(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
            std::thread::sleep(delay);
        }
        for addr in addrs {
            metrics.connect_attempts.incr();
            match TcpStream::connect(addr) {
                Ok(stream) => return configure_stream(&stream).map(|()| stream),
                Err(e) => last_error = format!("{addr}: {e}"),
            }
        }
    }
    Err(ProtocolError::transport_io(format!(
        "connecting to S2 failed after {CONNECT_ATTEMPTS} attempts: {last_error}"
    )))
}

/// Run one client-side handshake over `stream`; returns the negotiated
/// `(session, resume_token)` on accept.
fn client_handshake(stream: &TcpStream, peer: SocketAddr, kind: HelloKind) -> Result<(u64, u64)> {
    let hello = ClientHello { magic: TCP_MAGIC.into(), version: TCP_PROTOCOL_VERSION, kind };
    write_frame(stream, &wire::to_bytes(&hello))?;
    let reply = read_frame(stream)?;
    let reply: ServerHello = wire::from_bytes(&reply)
        .map_err(|e| ProtocolError::transport(format!("undecodable server hello: {e}")))?;
    match reply {
        ServerHello::Accept { version, session, resume_token } => {
            if version != TCP_PROTOCOL_VERSION {
                return Err(ProtocolError::transport_rejected(format!(
                    "server speaks protocol v{version}, client v{TCP_PROTOCOL_VERSION}"
                )));
            }
            Ok((session, resume_token))
        }
        ServerHello::Reject { code, reason } => Err(rejection_error(peer, code, &reason)),
    }
}

/// The socket [`Pipe`]: one TCP connection to a [`TcpCloudServer`], and the recovery of its
/// session when it drops — reconnect, resume, re-send.
struct SocketPipe {
    stream: TcpStream,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    peer: SocketAddr,
    /// The session id negotiated at connect time.
    session: u64,
    /// Seed of the deterministic backoff jitter (derived from the provisioned seed).
    jitter_seed: u64,
    /// Token to present when resuming; rotated by the server on every accept.
    resume_token: u64,
    /// Highest protocol sequence number whose reply has been seen; a resume presents
    /// it, so the server can prune its replay cache.
    acked: u64,
    /// See [`crate::Transport::faults_absorbed`].
    faults_absorbed: u64,
    /// The socket is known dead (an I/O error), so teardown must not wait on it.
    dead: bool,
    client_metrics: TcpClientMetrics,
}

impl SocketPipe {
    /// One send of `envelope` (`encoded`) and its reply.
    fn attempt(&mut self, envelope: &Envelope, encoded: &[u8]) -> Result<Envelope> {
        // Only an I/O failure kills the socket; a refused frame never touched it.
        write_frame(&self.stream, encoded).inspect_err(|e| self.dead |= e.is_retryable())?;
        loop {
            let incoming = read_frame(&self.stream).inspect_err(|_| self.dead = true)?;
            let reply = Envelope::decode(&incoming)?;
            // A stream can still hold the late reply to an exchange the caller gave up
            // on (a read that timed out): skip it, ours is behind it.
            if reply.session.0 != self.session || reply.seq >= envelope.seq {
                return Ok(reply);
            }
        }
    }

    /// Take the session over on a new connection: abandon the old one (so its server
    /// thread parks the session), dial on the connect schedule, resume-handshake, and
    /// on accept swap the live stream.
    fn resume(&mut self) -> Result<()> {
        let _ = self.stream.shutdown(Shutdown::Both);
        let stream = dial(&self.addrs, self.jitter_seed, &self.client_metrics)?;
        let kind = HelloKind::Resume(ResumeHello {
            session: self.session,
            last_acked_seq: self.acked,
            resume_token: self.resume_token,
        });
        let (session, resume_token) = client_handshake(&stream, self.peer, kind)?;
        if session != self.session {
            return Err(ProtocolError::transport(format!(
                "resume handshake returned {session}, expected {}",
                self.session
            )));
        }
        self.resume_token = resume_token;
        self.stream = stream;
        self.dead = false;
        Ok(())
    }
}

impl Pipe for SocketPipe {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope> {
        let encoded = envelope.encode();
        self.client_metrics.frame_bytes.observe(encoded.len() as u64);
        let mut recoveries = 0;
        loop {
            match self.attempt(envelope, &encoded) {
                Ok(reply) => {
                    if (reply.session.0, reply.seq) == (self.session, envelope.seq) {
                        self.acked = self.acked.max(reply.seq);
                    }
                    return Ok(reply);
                }
                // Re-send the same envelope: the server's replay cache makes it idempotent.
                Err(e) if e.is_retryable() && recoveries < CONNECT_ATTEMPTS => self.resume()?,
                Err(e) => return Err(e),
            }
            recoveries += 1;
            self.faults_absorbed += 1;
        }
    }

    fn faults_absorbed(&self) -> u64 {
        self.faults_absorbed
    }

    fn disconnect(&mut self, envelope: &Envelope) {
        if !self.dead && write_frame(&self.stream, &envelope.encode()).is_ok() {
            let _ = read_frame(&self.stream);
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn set_metrics_registry(&mut self, registry: &MetricsRegistry) {
        self.client_metrics = TcpClientMetrics::from_registry(registry);
    }
}

// ====================================================================================
// Server
// ====================================================================================

/// Mint a resume token.  `RandomState` is randomly seeded per process, so tokens are
/// unguessable enough to stop accidental cross-client resumes — the real security
/// boundary is the transport (TLS in production), not this token.
#[expect(
    clippy::disallowed_methods,
    reason = "the resume token is an anti-footgun guard against session-id collisions between \
              unrelated clients, not protocol state; it never touches ciphertexts, ledgers or \
              replies"
)]
fn mint_token(nonce: u64) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = RandomState::new().build_hasher();
    hasher.write_u64(nonce);
    hasher.finish() | 1 // never 0, which the session table reads as "not resumable"
}

/// Every [`RejectCode`] with the name of its `tcp.server.rejects.{name}` counter.
const REJECT_NAMES: [(RejectCode, &str); 6] = [
    (RejectCode::Full, "full"),
    (RejectCode::Draining, "draining"),
    (RejectCode::Malformed, "malformed"),
    (RejectCode::VersionMismatch, "version_mismatch"),
    (RejectCode::SessionInUse, "session_in_use"),
    (RejectCode::ResumeDenied, "resume_denied"),
];

/// Cached server-side metric handles (`tcp.server.*`), resolved from the
/// pool's registry — see [`MultiplexServer::metrics_registry`].  All no-ops when the
/// pool was built without one.
struct TcpServerMetrics {
    /// Handshakes accepted (fresh and resume) — `tcp.server.accepts`.
    accepts: Counter,
    /// Sessions parked after a dirty disconnect — `tcp.server.parked`.
    parked: Counter,
    /// Rejected hellos by code, one counter per entry of [`REJECT_NAMES`].
    rejects: [(RejectCode, Counter); REJECT_NAMES.len()],
}

impl TcpServerMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        TcpServerMetrics {
            accepts: registry.counter("tcp.server.accepts"),
            parked: registry.counter("tcp.server.parked"),
            rejects: REJECT_NAMES.map(|(code, name)| {
                (code, registry.counter(&format!("tcp.server.rejects.{name}")))
            }),
        }
    }
}

/// Everything the accept loop and the connection threads share.  Session lifecycle is
/// *not* here: it lives in the pool's session table.
struct Shared {
    pool: Arc<MultiplexServer>,
    /// See [`TcpCloudServer::park_ttl`].
    park_ttl: Duration,
    /// Who is admitted, and on which stream.  Lock order: this lock, then the pool's
    /// session table.
    admission: Mutex<Admission>,
    /// Signalled, with `admission`, whenever a seated connection ends and when admission
    /// stops: what a drain and a waiting resume wait for.
    ended: Condvar,
    /// Hard shutdown (server drop): stops the accept loop.
    shutdown: AtomicBool,
    /// Sessions successfully taken over by a resume handshake.
    resumed: AtomicU64,
    /// Nonce feed for token minting.
    token_nonce: AtomicU64,
    /// Cached `tcp.server.*` metric handles (no-ops when the pool has no registry).
    metrics: TcpServerMetrics,
}

/// The listener's admission state, always accessed under [`Shared::admission`]'s lock.
#[derive(Default)]
struct Admission {
    /// Draining: reject every hello, finish in-flight work, park nothing.
    draining: bool,
    /// Session → the live connection's stream, so the server can sever one session
    /// ([`TcpCloudServer::drop_session`]) or all of them on shutdown.
    streams: HashMap<SessionId, Arc<TcpStream>>,
}

impl Shared {
    /// Refuse every later hello, also one waiting to resume, and reap every parked
    /// session.
    fn stop_admitting(&self) {
        self.admission.plock().draining = true;
        self.ended.notify_all();
        self.pool.reap_parked();
    }
}

impl Admission {
    /// Admit the connection on `stream` unless the server is draining: `claim` seats its
    /// session in the pool's table and the stream is registered against it, all under
    /// the admission lock — so [`TcpCloudServer::drain`] and shutdown either refuse a
    /// connection or find its stream to sever.
    fn admit(&mut self, stream: &Arc<TcpStream>, claim: impl FnOnce() -> Seating) -> Seating {
        if self.draining {
            return Err((RejectCode::Draining, "server is draining".into()));
        }
        let conduit = claim()?;
        self.streams.insert(conduit.session(), Arc::clone(stream));
        Ok(conduit)
    }

    fn sever_all(&self) {
        for stream in self.streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The crypto cloud S2 as a network listener: an accept loop spawning one thread per
/// connection, each running its session's requests in a shared [`MultiplexServer`],
/// and no other thread (parked sessions expire in the pool's session table).  This is
/// the engine of the `sectopk-s2d` binary; tests bind it on a loopback ephemeral port.
pub struct TcpCloudServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    /// The threads of connections not yet seen to have finished.
    connection_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl fmt::Debug for TcpCloudServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpCloudServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.shared.pool.workers())
            .field("active_sessions", &self.active_sessions())
            .field("parked_sessions", &self.parked_sessions())
            .finish()
    }
}

impl TcpCloudServer {
    /// Bind a listener at `addr` with its own S2 pool of `workers` compute permits and
    /// the [`DEFAULT_PARK_TTL`].  `"127.0.0.1:0"` binds an ephemeral loopback port (read
    /// it back with [`Self::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Self> {
        Self::serve_pool(addr, Arc::new(MultiplexServer::new(workers)), DEFAULT_PARK_TTL)
    }

    /// Bind a listener at `addr` in front of an existing (possibly shared) pool — the
    /// path `QueryServer::listen` uses so networked and in-process sessions are served
    /// from the same S2 compute budget.  A session whose connection dies dirty stays
    /// parked for `park_ttl` awaiting a resume, and is reaped at the first read of the
    /// pool's session table after that; `Duration::ZERO` reaps it at once.  A failure to
    /// spawn the accept thread is returned as its `io::Error`.
    pub fn serve_pool(
        addr: impl ToSocketAddrs,
        pool: Arc<MultiplexServer>,
        park_ttl: Duration,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The listener reports into the same registry as the pool it fronts, so one
        // snapshot covers the whole serving stack; a pool built without a registry
        // makes every handle a no-op.
        let metrics = TcpServerMetrics::from_registry(pool.metrics_registry());
        let shared = Arc::new(Shared {
            pool,
            park_ttl,
            admission: Mutex::default(),
            ended: Condvar::new(),
            shutdown: AtomicBool::new(false),
            resumed: AtomicU64::new(0),
            token_nonce: AtomicU64::new(1),
            metrics,
        });
        let connection_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let (shared, connection_threads) =
                (Arc::clone(&shared), Arc::clone(&connection_threads));
            std::thread::Builder::new()
                .name("sectopk-s2d-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &connection_threads))?
        };
        Ok(TcpCloudServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            connection_threads,
        })
    }

    /// The bound listening address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The pool serving this listener's sessions.
    pub fn pool(&self) -> &Arc<MultiplexServer> {
        &self.shared.pool
    }

    /// How long a session whose connection died dirty stays parked (engine, ledger and
    /// replay cache intact) awaiting a resume before it is reaped; zero: reaped at once.
    pub fn park_ttl(&self) -> Duration {
        self.shared.park_ttl
    }

    /// Number of currently connected TCP sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.admission.plock().streams.len()
    }

    /// Number of sessions parked after a dirty disconnect, awaiting resume.
    pub fn parked_sessions(&self) -> usize {
        self.shared.pool.parked_sessions()
    }

    /// Number of sessions successfully taken over by a resume handshake so far.
    pub fn resumed_sessions(&self) -> u64 {
        self.shared.resumed.load(Ordering::Relaxed)
    }

    /// Failure injection: sever the socket of `session` mid-flight, as a crashed
    /// client or cut link would.  The connection's thread observes the dead socket and
    /// parks (or, with a zero [`Self::park_ttl`], reaps) the session; clean neighbours
    /// are unaffected.  Returns whether the session was connected.
    pub fn drop_session(&self, session: SessionId) -> bool {
        match self.shared.admission.plock().streams.get(&session) {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// Drain-then-exit support: stop admitting hellos (fresh *and* resume), reap every
    /// parked session immediately, give in-flight connections up to `grace` to finish
    /// their current exchanges and disconnect, then sever the stragglers.  Returns as
    /// soon as the last connection ends.  The server object stays alive (its `Drop`
    /// completes shutdown); this just quiesces it.
    pub fn drain(&self, grace: Duration) {
        self.shared.stop_admitting();
        let admission = self.shared.admission.plock();
        let waited = self
            .shared
            .ended
            .wait_timeout_while(admission, grace, |admission| !admission.streams.is_empty());
        let (admission, _) = waited.unwrap_or_else(PoisonError::into_inner);
        admission.sever_all();
    }
}

impl Drop for TcpCloudServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Refuse every later hello, reap every parked session so the pool releases
        // their engines, and sever every live connection; their threads observe the
        // dead sockets and reap (draining is set, so nothing re-parks).
        self.shared.stop_admitting();
        self.shared.admission.plock().sever_all();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let connections = std::mem::take(&mut *self.connection_threads.plock());
        for handle in connections {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connection_threads: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or anything racing it)
        }
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("sectopk-s2d-conn".into())
            .spawn(move || serve_connection(stream, &shared));
        // Forget the connections that have ended since, so a long-lived listener tracks
        // its live connections and not every connection it ever served.
        let mut tracked = connection_threads.plock();
        tracked.retain(|handle| !handle.is_finished());
        // Thread exhaustion: dropping the stream resets the connection, and the client
        // dials again on its connect schedule.  The listener survives.
        if let Ok(handle) = spawned {
            tracked.push(handle);
        }
    }
}

/// Run the handshake, then serve the seated session's requests until the connection
/// ends.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Until it is seated, a connection may not keep this thread waiting on silence.
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(HELLO_TIMEOUT)).is_err() {
        return;
    }
    let stream = Arc::new(stream);
    let reject = |code: RejectCode, reason: &str| {
        shared.metrics.rejects.iter().filter(|(c, _)| *c == code).for_each(|(_, n)| n.incr());
        let hello = ServerHello::Reject { code, reason: reason.into() };
        let _ = write_frame(&*stream, &wire::to_bytes(&hello));
    };

    // --- Handshake -----------------------------------------------------------------
    let Ok(hello_bytes) = read_frame(&*stream) else { return };
    let Ok(hello) = wire::from_bytes::<ClientHello>(&hello_bytes) else {
        reject(RejectCode::Malformed, "undecodable hello");
        return;
    };
    if hello.magic != TCP_MAGIC {
        reject(RejectCode::Malformed, "bad magic");
        return;
    }
    if hello.version != TCP_PROTOCOL_VERSION {
        reject(
            RejectCode::VersionMismatch,
            &format!(
                "protocol version mismatch: client v{}, server v{TCP_PROTOCOL_VERSION}",
                hello.version
            ),
        );
        return;
    }

    // Every accept hands out a fresh resume token; the session table stores it in the
    // same critical section that seats (or un-parks) the session.
    let token = mint_token(shared.token_nonce.fetch_add(1, Ordering::Relaxed));
    let admitted = match hello.kind {
        // The engine's intra-query worker count is its share of the *server* machine's
        // cores among the pool's connected sessions, or SECTOPK_INTRA_PARALLEL in the
        // server process's environment (the provision wire format carries no worker
        // knob: worker count is a local resource decision, never protocol state).
        HelloKind::Fresh { session, provision } => {
            let engine = provision.build();
            let claim = || shared.pool.attach(SessionId(session), engine, token);
            shared.admission.plock().admit(&stream, claim)
        }
        HelloKind::Resume(resume) => admit_resume(shared, &stream, resume, token),
    };
    let conduit = match admitted {
        Ok(conduit) => conduit,
        Err((code, reason)) => return reject(code, &reason),
    };
    let accept = ServerHello::Accept {
        version: TCP_PROTOCOL_VERSION,
        session: conduit.session().0,
        resume_token: token,
    };
    let mut seated = Seated { stream: &stream, shared, conduit, unseated: false };
    // Seated: from here on the connection may idle between queries for as long as it
    // likes.
    if stream.set_read_timeout(None).is_err()
        || write_frame(&*stream, &wire::to_bytes(&accept)).is_err()
    {
        // The client never learned its resume token: nothing to park for.
        seated.conduit.close(false);
        seated.unseated = true;
        return;
    }
    shared.metrics.accepts.incr();

    serve_session(seated);
}

/// Admit a resume hello: the session table checks the token and claims the parked
/// session in one step.  While the claim is refused because the session is still
/// connected — the dropped connection's thread is on its way out, or the connection is
/// genuinely alive — it is retried whenever a connection ends, for at most
/// [`RESUME_GRACE`].
fn admit_resume(
    shared: &Shared,
    stream: &Arc<TcpStream>,
    resume: ResumeHello,
    token: u64,
) -> Seating {
    let ResumeHello { session, last_acked_seq, resume_token } = resume;
    let resume = || shared.pool.resume(SessionId(session), resume_token, token, last_acked_seq);
    // The outcome of the latest try; the wait below makes at least one.
    let mut claim = Err((RejectCode::SessionInUse, String::new()));
    let admission = shared.admission.plock();
    let waited = shared.ended.wait_timeout_while(admission, RESUME_GRACE, |admission| {
        claim = admission.admit(stream, resume);
        matches!(claim, Err((RejectCode::SessionInUse, _)))
    });
    drop(waited);
    if claim.is_ok() {
        shared.resumed.fetch_add(1, Ordering::Relaxed);
    }
    claim
}

/// Serve one seated session on its connection's own thread: read a frame, run it in
/// the pool, write the reply — strict request/reply, so a stalled socket back-pressures
/// right here instead of buffering.
fn serve_session(mut seated: Seated<'_>) {
    let (session, stream): (_, &TcpStream) = (seated.conduit.session(), seated.stream);
    while let Ok(incoming) = read_frame(stream) {
        let Ok(envelope) = Envelope::decode(&incoming) else { break };
        if envelope.session != session {
            // Cross-session injection: a connection may only speak for the session it
            // negotiated.  Kill the connection rather than run the frame.
            break;
        }
        if envelope.frame.first() == Some(&frame::DISCONNECT) {
            // Nothing of this session is running, so unseating it here is ordered
            // after all its work; the ack tells the client its id is free again.
            seated.conduit.close(true);
            seated.unseated = true;
            let ack = Envelope { session, seq: envelope.seq, frame: vec![frame::DISCONNECT_DONE] };
            let _ = write_frame(stream, &ack.encode());
            break;
        }
        let Ok(reply) = seated.conduit.call(envelope.seq, &envelope.frame) else { break };
        if write_reply(stream, &reply).is_err() {
            break;
        }
    }
}

/// Write S2's `reply` to a request.  A reply over [`MAX_FRAME_LEN`] cannot cross, but
/// its effects are committed: it is answered with a typed `MalformedRequest` error frame
/// instead, so the session serves its next request — and a re-send of the same request,
/// which the replay cache answers with the same reply, gets the same error.
fn write_reply(w: impl Write, reply: &Envelope) -> Result<()> {
    let encoded = reply.encode();
    if encoded.len() <= MAX_FRAME_LEN {
        return write_frame(w, &encoded);
    }
    let error = WireError::malformed(format!(
        "reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap",
        encoded.len()
    ));
    let frame = framed(frame::RESPONSE, &S2Response::Error(error));
    write_frame(w, &Envelope { session: reply.session, seq: reply.seq, frame }.encode())
}

/// What the end of a seated connection owes the server.  A guard, so the debt is paid
/// even when a request unwinds the connection's thread: the socket closes (the client
/// sees it and resumes) instead of staying open behind its registered handle.
struct Seated<'a> {
    stream: &'a Arc<TcpStream>,
    shared: &'a Shared,
    conduit: SessionConduit,
    /// Already unseated: the client said DISCONNECT, or never got its accept.
    unseated: bool,
}

impl Drop for Seated<'_> {
    fn drop(&mut self) {
        let Seated { stream, shared, conduit, unseated } = self;
        let mut admission = shared.admission.plock();
        // This connection's entry only: after a DISCONNECT its id may already carry a
        // new connection.
        admission.streams.retain(|_, live| !Arc::ptr_eq(live, stream));
        if !*unseated {
            // Dirty exit.  With parking enabled and no drain under way the session
            // stays seated — engine, ledger, replay cache, resume token — until a
            // resume claims it or the TTL expires; otherwise it is reaped so the id
            // frees up and the pool drops the engine with it.  Decided under the
            // admission lock, so a drain never misses a session parked behind its back.
            let ttl = shared.park_ttl;
            if !ttl.is_zero() && !admission.draining && conduit.park(ttl) {
                shared.metrics.parked.incr();
            } else {
                conduit.close(false);
            }
        }
        drop(admission);
        // A drain waiting for the last connection, or a resume of this session, goes on.
        shared.ended.notify_all();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportErrorKind;
    use crate::ledger::LeakageLedger;
    use crate::multiplex::{LinkProfile, PoolLimits, ASSIGNED_SESSION_BASE};
    use crate::transport::{framed, InProcessTransport, S1Request, S2Response, Transport};
    use crate::wire::WireErrorCode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
    use sectopk_metrics::Registry as MetricsRegistry;
    use std::collections::VecDeque;

    fn master(seed: u64) -> MasterKeys {
        let mut rng = StdRng::seed_from_u64(seed);
        MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap()
    }

    fn provision_for(master: &MasterKeys, engine_seed: u64) -> EngineProvision {
        let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xABCD);
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        EngineProvision::new(master.s2_view(), own_pk, engine_seed)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        S1Request::Compare {
            blinded: vec![master.paillier_public.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    /// A listener whose pool holds at most `max_sessions` sessions.
    fn capped_server(max_sessions: usize, park_ttl: Duration) -> TcpCloudServer {
        let pool = Arc::new(MultiplexServer::with_limits(2, PoolLimits { max_sessions }));
        TcpCloudServer::serve_pool("127.0.0.1:0", pool, park_ttl).unwrap()
    }

    /// A park TTL whose dirty exits reap immediately (the pre-resumption behaviour).
    fn no_parking() -> Duration {
        Duration::ZERO
    }

    /// Raw handshake over a connected `stream`, bypassing the transport (so tests can
    /// die dirty, race hellos or hand-craft resume claims).  Returns the stream and the
    /// server's answer.
    fn raw_hello(stream: TcpStream, kind: HelloKind) -> (TcpStream, ServerHello) {
        let hello = ClientHello { magic: TCP_MAGIC.into(), version: TCP_PROTOCOL_VERSION, kind };
        write_frame(&stream, &wire::to_bytes(&hello)).unwrap();
        let answer = wire::from_bytes::<ServerHello>(&read_frame(&stream).unwrap()).unwrap();
        (stream, answer)
    }

    /// Raw fresh handshake that must be accepted; returns the stream, negotiated id
    /// and token.
    fn raw_fresh(
        addr: SocketAddr,
        session: u64,
        provision: EngineProvision,
    ) -> (TcpStream, u64, u64) {
        match raw_hello(TcpStream::connect(addr).unwrap(), HelloKind::Fresh { session, provision })
        {
            (stream, ServerHello::Accept { session, resume_token, .. }) => {
                (stream, session, resume_token)
            }
            (_, ServerHello::Reject { reason, .. }) => panic!("fresh hello rejected: {reason}"),
        }
    }

    /// Raw resume handshake; returns the server's answer (and the stream on accept).
    fn raw_resume(
        addr: SocketAddr,
        session: u64,
        last_acked_seq: u64,
        resume_token: u64,
    ) -> (TcpStream, ServerHello) {
        let stream = TcpStream::connect(addr).unwrap();
        raw_hello(stream, HelloKind::Resume(ResumeHello { session, last_acked_seq, resume_token }))
    }

    fn wait_for(mut condition: impl FnMut() -> bool) {
        for _ in 0..400 {
            if condition() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached within 2s");
    }

    #[test]
    fn loopback_session_matches_dedicated_channel_transport() {
        // The oracle is the in-process direct call.
        let master = master(41);
        let server = TcpCloudServer::bind("127.0.0.1:0", 2).unwrap();
        let mut tcp =
            connect(server.local_addr(), provision_for(&master, 99), SessionId(0)).unwrap();
        let mut oracle = InProcessTransport::new(provision_for(&master, 99).build());

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = tcp.round_trip(compare_request(&master, -4, &mut rng_a)).unwrap();
        let b = oracle.round_trip(compare_request(&master, -4, &mut rng_b)).unwrap();
        assert_eq!(
            a, b,
            "same engine seed must answer identically over TCP, with the same traffic"
        );
        assert_eq!(tcp.s2_ledger().events(), oracle.s2_ledger().events());
        assert_eq!(tcp.kind(), TransportKind::Tcp);
        assert_eq!(tcp.link(), LinkProfile::ideal());
    }

    #[test]
    fn server_assigns_session_ids_and_honours_proposals() {
        let master = master(42);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let assigned =
            connect(server.local_addr(), provision_for(&master, 1), SessionId(0)).unwrap();
        assert!(assigned.session().0 >= ASSIGNED_SESSION_BASE);

        let proposed =
            connect(server.local_addr(), provision_for(&master, 2), SessionId(7)).unwrap();
        assert_eq!(proposed.session(), SessionId(7));
        assert_eq!(server.active_sessions(), 2);

        // A second client proposing the same id is refused, permanently.
        let err =
            connect(server.local_addr(), provision_for(&master, 3), SessionId(7)).unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Rejected);
                assert!(!err.is_retryable());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn disconnect_frees_the_session_and_its_id() {
        let master = master(43);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        {
            let mut t =
                connect(server.local_addr(), provision_for(&master, 5), SessionId(4)).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            t.round_trip(compare_request(&master, 3, &mut rng)).unwrap();
            assert_eq!(server.active_sessions(), 1);
        }
        // Teardown is synchronous on the client side (drop waits for the ack), so the
        // server has already removed the id by the time the drop returns — poll only
        // for the connection thread's own registry cleanup.  A *clean* disconnect never
        // parks, even with parking enabled.
        wait_for(|| server.active_sessions() == 0 && server.pool().active_sessions() == 0);
        assert_eq!(server.parked_sessions(), 0);
        let _t = connect(server.local_addr(), provision_for(&master, 6), SessionId(4)).unwrap();
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let master = master(44);

        let refusal = |hello: &ClientHello| -> ServerHello {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            write_frame(&stream, &wire::to_bytes(hello)).unwrap();
            wire::from_bytes(&read_frame(&stream).unwrap()).unwrap()
        };

        let good = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Fresh { session: 0, provision: provision_for(&master, 1) },
        };
        let bad_magic = ClientHello { magic: "not-sectopk".into(), ..good.clone() };
        assert!(matches!(
            refusal(&bad_magic),
            ServerHello::Reject { code: RejectCode::Malformed, .. }
        ));
        let bad_version = ClientHello { version: TCP_PROTOCOL_VERSION + 1, ..good };
        assert!(matches!(
            refusal(&bad_version),
            ServerHello::Reject { code: RejectCode::VersionMismatch, reason }
                if reason.contains("version mismatch")
        ));
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn admission_control_rejects_when_full_with_a_retryable_overload() {
        let master = master(45);
        let server = capped_server(1, DEFAULT_PARK_TTL);
        let _first = connect(server.local_addr(), provision_for(&master, 1), SessionId(0)).unwrap();
        let err =
            connect(server.local_addr(), provision_for(&master, 2), SessionId(0)).unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Overloaded);
                assert!(e.message.contains("server full"), "unexpected message {e:?}");
                assert!(err.is_retryable(), "a full server is a transient condition");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn concurrent_fresh_hellos_never_over_admit() {
        // Regression: the cap used to be read from two maps and the newcomer inserted
        // into one of them only after the engine was attached and its token minted, so
        // hellos racing against `max_sessions = 1` could both be admitted.  The window
        // was microseconds wide (a few percent of rounds hit it), hence the rounds.
        const RACERS: usize = 8;
        const ROUNDS: usize = 150;
        let master = master(57);
        let server = capped_server(1, no_parking());
        let addr = server.local_addr();
        for round in 0..ROUNDS {
            // Every racer connects first and sends its hello only once all are lined
            // up, so the server's handshake threads wake together.
            let start = Arc::new(std::sync::Barrier::new(RACERS));
            let racers: Vec<_> = (0..RACERS as u64)
                .map(|i| {
                    let provision = provision_for(&master, i);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        let stream = TcpStream::connect(addr).unwrap();
                        start.wait();
                        raw_hello(stream, HelloKind::Fresh { session: 0, provision })
                    })
                })
                .collect();
            // Every racer keeps its connection open until all have been answered, so
            // an admitted session cannot leave and make room for a second one.
            let answers: Vec<(TcpStream, ServerHello)> =
                racers.into_iter().map(|h| h.join().unwrap()).collect();
            let mut accepts = 0;
            for (_, answer) in &answers {
                match answer {
                    ServerHello::Accept { .. } => accepts += 1,
                    ServerHello::Reject { code, reason } => {
                        assert_eq!(*code, RejectCode::Full, "unexpected refusal: {reason}");
                        assert!(rejection_error(addr, *code, reason).is_retryable());
                    }
                }
            }
            assert_eq!(accepts, 1, "round {round}: cap 1 admits exactly one racing hello");
            drop(answers);
            wait_for(|| server.pool().active_sessions() == 0);
        }
    }

    #[test]
    fn connect_retries_with_backoff_then_fails_typed() {
        // Bind-then-drop gives an ephemeral port that is (almost surely) not listening.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let master = master(46);
        let err = connect(dead, provision_for(&master, 1), SessionId(0)).unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Io);
                assert!(e.message.contains("after 5 attempts"), "unexpected message {e:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn severed_socket_without_parking_surfaces_transport_error_and_is_reaped() {
        let master = master(47);
        let server = TcpCloudServer::serve_pool(
            "127.0.0.1:0",
            Arc::new(MultiplexServer::new(1)),
            no_parking(),
        )
        .unwrap();
        let mut t = connect(server.local_addr(), provision_for(&master, 9), SessionId(9)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        t.round_trip(compare_request(&master, 1, &mut rng)).unwrap();

        assert!(server.drop_session(SessionId(9)));
        // Parking is off, so the connection's thread reaps the pool session: the
        // client's resume finds nothing to take over, and that refusal is permanent.
        let err = t.round_trip(compare_request(&master, 1, &mut rng)).unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Transport(e)
                if e.kind == TransportErrorKind::Rejected && e.message.contains("expired session")),
            "unexpected error {err:?}"
        );
        assert!(!err.is_retryable(), "a reaped session cannot be resumed: {err:?}");
        assert_eq!(t.faults_absorbed(), 0);
        // The id becomes reusable.
        wait_for(|| server.pool().active_sessions() == 0);
        assert_eq!(server.parked_sessions(), 0);
        assert!(!server.drop_session(SessionId(9)), "already severed");
    }

    #[test]
    fn oversized_frame_is_rejected_cleanly() {
        let mut encoded = Vec::new();
        encoded.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = read_frame(&encoded[..]).unwrap_err();
        assert!(matches!(&err, ProtocolError::Transport(e) if e.message.contains("oversized")));
        assert!(!err.is_retryable(), "a corrupt frame is not transient");
    }

    #[test]
    fn an_oversized_request_is_refused_unsent_and_the_session_survives() {
        let master = master(67);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let mut tcp =
            connect(server.local_addr(), provision_for(&master, 5), SessionId(0)).unwrap();
        let mut oracle = InProcessTransport::new(provision_for(&master, 5).build());

        // A request whose frame is one byte over the cap.  From 2^21 to 2^28 bytes the
        // context's length prefix takes 4 bytes, 3 more than at length 0.
        let request = |context: String| S1Request::Compare { blinded: Vec::new(), context };
        let frame = framed(frame::REQUEST, &request(String::new()));
        let empty = Envelope { session: tcp.session(), seq: 1, frame }.encode().len();
        let oversized = request("x".repeat(MAX_FRAME_LEN + 1 - (empty + 3)));
        let err = tcp.round_trip(oversized).unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Transport(e)
                if e.kind == TransportErrorKind::Fault
                    && e.message.contains(&format!("{} bytes", MAX_FRAME_LEN + 1))),
            "unexpected error {err:?}"
        );
        assert!(!err.is_retryable(), "re-sending the same frame cannot succeed");
        assert_eq!(tcp.faults_absorbed(), 0, "nothing was re-sent");

        // No byte reached the server: the same connection goes on serving the session.
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let a = tcp.round_trip(compare_request(&master, 2, &mut rng_a)).unwrap();
        let b = oracle.round_trip(compare_request(&master, 2, &mut rng_b)).unwrap();
        assert_eq!(a, b);
        assert_eq!(tcp.s2_ledger().events(), oracle.s2_ledger().events());
        assert_eq!(tcp.faults_absorbed(), 0);
        assert_eq!(server.resumed_sessions(), 0, "the connection never dropped");
    }

    #[test]
    fn a_frame_that_claims_more_than_it_sends_is_a_typed_short_read() {
        // The buffer grows with what arrives, so the claim costs the reader nothing.
        let mut encoded = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        encoded.extend_from_slice(b"sectopk");
        let err = read_frame(&encoded[..]).unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Transport(e) if e.kind == TransportErrorKind::Io),
            "unexpected error {err:?}"
        );
        assert!(err.is_retryable(), "a connection that ends mid-frame is transient");
    }

    #[test]
    fn connections_that_never_earn_a_session_are_closed_unseated() {
        let master = master(58);
        let registry = MetricsRegistry::enabled();
        let pool = MultiplexServer::with_limits_and_metrics(1, PoolLimits::default(), registry);
        let server =
            TcpCloudServer::serve_pool("127.0.0.1:0", Arc::new(pool), DEFAULT_PARK_TTL).unwrap();
        // One connection says nothing at all; one claims the largest frame there is and
        // stalls a few bytes into it.
        let silent = TcpStream::connect(server.local_addr()).unwrap();
        let mut staller = TcpStream::connect(server.local_addr()).unwrap();
        staller.write_all(&(MAX_FRAME_LEN as u32).to_le_bytes()).unwrap();
        staller.write_all(b"sectopk").unwrap();

        // Meanwhile a real session on the same listener is served byte-identically.
        let mut tcp =
            connect(server.local_addr(), provision_for(&master, 99), SessionId(0)).unwrap();
        let mut oracle = InProcessTransport::new(provision_for(&master, 99).build());
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = tcp.round_trip(compare_request(&master, -4, &mut rng_a)).unwrap();
        let b = oracle.round_trip(compare_request(&master, -4, &mut rng_b)).unwrap();
        assert_eq!(a, b);
        assert_eq!(tcp.s2_ledger().events(), oracle.s2_ledger().events());

        // The server hangs up on both (end of stream, not a reject frame) ...
        for mut stream in [silent, staller] {
            stream.set_read_timeout(Some(HELLO_TIMEOUT * 4)).unwrap();
            assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "the server must hang up");
        }
        // ... and only the real session was ever seated.
        let snapshot = server.pool().metrics_registry().snapshot();
        assert_eq!(snapshot.counter("pool.attached"), 1);
        assert_eq!(snapshot.counter("tcp.server.accepts"), 1);
        assert_eq!(server.active_sessions(), 1);
    }

    #[test]
    fn finished_connection_threads_are_forgotten_at_the_next_accept() {
        // Regression: the listener kept one JoinHandle per connection it had ever
        // served until it was dropped.
        const CYCLES: u64 = 300;
        let master = master(59);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for cycle in 0..CYCLES {
            let mut t =
                connect(server.local_addr(), provision_for(&master, cycle), SessionId(0)).unwrap();
            t.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        }
        // Sequential sessions: all but the last few threads have long finished, and
        // each accept forgot the finished ones.
        let tracked = server.connection_threads.plock().len();
        assert!(tracked <= 8, "{tracked} handles tracked after {CYCLES} sequential sessions");
    }

    #[test]
    fn duplicate_and_late_replies_of_acknowledged_exchanges_are_discarded() {
        // A scripted S2 behind a real socket: it accepts the hello, answers exchange 1,
        // and ahead of exchange 2's own reply delivers exchange 1's twice more — what a
        // stream holds when the reply to an exchange the caller gave up on arrives late.
        const SESSION: SessionId = SessionId(7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let s2 = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            read_frame(&stream).unwrap();
            let accept = ServerHello::Accept {
                version: TCP_PROTOCOL_VERSION,
                session: SESSION.0,
                resume_token: 1,
            };
            write_frame(&stream, &wire::to_bytes(&accept)).unwrap();
            let read_seq = || Envelope::decode(&read_frame(&stream).unwrap()).unwrap().seq;
            let reply = |seq: u64, response: &S2Response| {
                let frame = framed(frame::RESPONSE, response);
                write_frame(&stream, &Envelope { session: SESSION, seq, frame }.encode()).unwrap();
            };
            let mut seqs = vec![read_seq()];
            reply(1, &S2Response::Signs(vec![-1]));
            seqs.push(read_seq());
            reply(1, &S2Response::Signs(vec![-1]));
            reply(1, &S2Response::Signs(vec![-1]));
            reply(2, &S2Response::Signs(vec![1]));
            seqs
        });
        let master = master(60);
        let mut transport = connect(addr, provision_for(&master, 1), SessionId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (first, _) = transport.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        assert_eq!(first, S2Response::Signs(vec![-1]));
        let request = compare_request(&master, 1, &mut rng);
        let one_round = wire::measure(&request) + wire::measure(&S2Response::Signs(vec![1]));
        let (second, traffic) = transport.round_trip(request).unwrap();
        assert_eq!(second, S2Response::Signs(vec![1]));
        assert_eq!(traffic, one_round, "discarded duplicates are not traffic");
        assert_eq!(s2.join().unwrap(), [1, 2]);
    }

    /// Request frames of retired wire forms, byte for byte as protocol version 2 peers
    /// that still spoke them encoded them: an `EqTest` whose bit S2 was to keep, the
    /// `EqAggregate` over that bit, a `Dedup` without a matrix (the one-message-per-pair
    /// pattern), a one-item `Dedup` whose blinding is one ciphertext per mask (`alphas`,
    /// `beta`, `gamma`) instead of two masks per ciphertext (`packed`), an `EqMatrix`
    /// asking for `E2` aggregates (`want`) instead of shipping masked candidates, a
    /// `Recover` of one Damgård–Jurik ciphertext, and a one-item `Dedup` as version 2
    /// itself sent it, its EHL+ a `{blocks: [c]}` map.
    const RETIRED_FRAMES: [&[u8]; 7] = [
        b"\x00\x09\x01\x06EqTest\x09\x05\x04diff\x07\x01\x01\x07context\x06\x04test\x05depth\x00\
          \x0aaccumulate\x02\x09reply_bit\x02",
        b"\x00\x09\x01\x0bEqAggregate\x09\x03\x04rows\x03\x01\x04cols\x03\x01\x04want\x09\x04\
          \x0brow_matched\x02\x0drow_unmatched\x01\x0dcol_unmatched\x01\x11row_matched_plain\x01",
        b"\x00\x09\x01\x05Dedup\x08\x01\x09\x06\x05items\x08\x00\x09blindings\x08\x00\
          \x0cpair_indices\x08\x00\x06matrix\x00\x09eliminate\x01\x05depth\x03\x00",
        b"\x00\x09\x01\x05Dedup\x08\x01\x09\x06\x05items\x08\x01\x09\x03\x03ehl\x09\x01\x06blocks\
          \x08\x01\x07\x01\x02\x05worst\x07\x01\x02\x04best\x07\x01\x02\x09blindings\x08\x01\x09\
          \x03\x06alphas\x08\x01\x07\x01\x02\x04beta\x07\x01\x02\x05gamma\x07\x01\x02\
          \x0cpair_indices\x08\x00\x06matrix\x08\x00\x09eliminate\x01\x05depth\x03\x00",
        b"\x00\x09\x01\x08EqMatrix\x09\x05\x05diffs\x08\x01\x07\x01\x02\x04cols\x03\x01\x07context\
          \x06\x04test\x05depth\x00\x04want\x09\x04\x0brow_matched\x02\x0drow_unmatched\x01\
          \x0dcol_unmatched\x01\x11row_matched_plain\x01",
        b"\x00\x09\x01\x07Recover\x09\x01\x07blinded\x08\x01\x07\x01\x02",
        b"\x00\x09\x01\x05Dedup\x08\x01\x09\x06\x05items\x08\x01\x09\x03\x03ehl\x09\x01\x06blocks\
          \x08\x01\x07\x01\x02\x05worst\x07\x01\x02\x04best\x07\x01\x02\x09blindings\x08\x01\x09\
          \x01\x06packed\x08\x02\x07\x01\x02\x07\x01\x02\x0cpair_indices\x08\x00\x06matrix\x08\x00\
          \x09eliminate\x01\x05depth\x03\x00",
    ];

    /// Response payloads of the retired selection forms, as protocol version 2 engines
    /// encoded them: `EqBits` carrying `E2(t)` bits and an `E2` row aggregate, and the
    /// `Recovered` inner ciphertexts of a `Recover`.
    const RETIRED_REPLIES: [&[u8]; 2] = [
        b"\x09\x01\x06EqBits\x09\x02\x04bits\x08\x01\x07\x01\x02\x0aaggregates\x09\x04\
          \x0brow_matched\x08\x01\x07\x01\x02\x0drow_unmatched\x08\x00\x0dcol_unmatched\x08\x00\
          \x11row_matched_plain\x08\x00",
        b"\x09\x01\x09Recovered\x08\x01\x08\x01\x07\x01\x02",
    ];

    #[test]
    fn retired_request_kinds_are_typed_codec_rejects_on_both_pipes() {
        // Every retired frame, through the pool's conduit and over a socket: a `Codec`
        // error frame, nothing in the ledger, and the session answers its next request.
        // The other direction, every retired reply, behind a scripted in-memory pipe and
        // a scripted socket: a typed, permanent error, and the next reply is read.
        let master = master(61);
        assert_retired_replies_are_refused(&master, |replies| {
            let pipe = Replay { replies: replies.into() };
            EnvelopeTransport::new(SessionId(9), Box::new(pipe))
        });
        assert_retired_replies_are_refused(&master, |replies| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                read_frame(&stream).unwrap();
                let accept = ServerHello::Accept {
                    version: TCP_PROTOCOL_VERSION,
                    session: 9,
                    resume_token: 1,
                };
                write_frame(&stream, &wire::to_bytes(&accept)).unwrap();
                for frame in replies {
                    let request = Envelope::decode(&read_frame(&stream).unwrap()).unwrap();
                    let reply = Envelope { frame, ..request };
                    write_frame(&stream, &reply.encode()).unwrap();
                }
            });
            connect(addr, provision_for(&master, 1), SessionId(0)).unwrap()
        });
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let conduit = server.pool().attach(SessionId(5), provision_for(&master, 1).build(), 0);
        let conduit = conduit.unwrap();
        let (stream, session, _) = raw_fresh(server.local_addr(), 6, provision_for(&master, 2));
        let over_conduit = |seq: u64, frame: &[u8]| conduit.call(seq, frame).unwrap().frame;
        let over_socket = |seq: u64, frame: &[u8]| {
            let envelope = Envelope { session: SessionId(session), seq, frame: frame.to_vec() };
            write_frame(&stream, &envelope.encode()).unwrap();
            Envelope::decode(&read_frame(&stream).unwrap()).unwrap().frame
        };
        let mut rng = StdRng::seed_from_u64(62);
        assert_retired_frames_are_rejected(&master, &mut rng, over_conduit);
        assert_retired_frames_are_rejected(&master, &mut rng, over_socket);
    }

    /// A pipe that answers each envelope with the next scripted frame, echoing it.
    struct Replay {
        replies: VecDeque<Vec<u8>>,
    }

    impl Pipe for Replay {
        fn kind(&self) -> TransportKind {
            TransportKind::Multiplex
        }
        fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope> {
            let frame = self.replies.pop_front().expect("a scripted reply");
            Ok(Envelope { frame, ..envelope.clone() })
        }
        fn disconnect(&mut self, _: &Envelope) {}
    }

    /// `session(replies)` is a session whose S2 answers its requests with `replies`, in
    /// order: every retired reply, then one current one.
    fn assert_retired_replies_are_refused(
        master: &MasterKeys,
        session: impl FnOnce(Vec<Vec<u8>>) -> EnvelopeTransport,
    ) {
        let signs = framed(frame::RESPONSE, &S2Response::Signs(vec![1]));
        let replies = RETIRED_REPLIES.iter().map(|r| [&[frame::RESPONSE][..], r].concat());
        let mut transport = session(replies.chain([signs]).collect());
        let mut rng = StdRng::seed_from_u64(63);
        for i in 0..RETIRED_REPLIES.len() {
            let err = transport.round_trip(compare_request(master, 1, &mut rng)).unwrap_err();
            assert!(
                matches!(&err, ProtocolError::Transport(e) if e.message.contains("undecodable")),
                "retired reply {i} surfaced as {err:?}"
            );
            assert!(!err.is_retryable(), "retired reply {i} is not worth a retry");
        }
        let (reply, _) = transport.round_trip(compare_request(master, 1, &mut rng)).unwrap();
        assert_eq!(reply, S2Response::Signs(vec![1]), "the session keeps being served");
    }

    /// `exchange(seq, frame)` runs one frame of one session and returns the reply frame.
    fn assert_retired_frames_are_rejected(
        master: &MasterKeys,
        rng: &mut StdRng,
        exchange: impl Fn(u64, &[u8]) -> Vec<u8>,
    ) {
        let payload = |seq: u64, frame: &[u8], tag: u8| {
            let reply = exchange(seq, frame);
            assert_eq!(reply.first(), Some(&tag), "unexpected reply frame {reply:?}");
            reply[1..].to_vec()
        };
        for (i, retired) in (0u64..).zip(RETIRED_FRAMES) {
            let response: S2Response =
                wire::from_bytes(&payload(2 * i + 1, retired, frame::RESPONSE)).unwrap();
            assert!(
                matches!(&response, S2Response::Error(e) if e.code == WireErrorCode::Codec),
                "retired frame {i} answered with {response:?}"
            );
            let ledger: LeakageLedger =
                wire::from_bytes(&payload(0, &[frame::FETCH_LEDGER], frame::LEDGER)).unwrap();
            assert_eq!(ledger.len() as u64, i, "only the earlier compares are in the ledger");
            let compare = framed(frame::REQUEST, &compare_request(master, 1, rng));
            let response: S2Response =
                wire::from_bytes(&payload(2 * i + 2, &compare, frame::RESPONSE)).unwrap();
            assert_eq!(response, S2Response::Signs(vec![1]), "the session keeps serving");
        }
    }

    #[test]
    fn backoff_is_capped_and_deterministically_jittered() {
        for attempt in 0..64 {
            let d = backoff_delay(attempt, 7);
            assert!(d <= CONNECT_BACKOFF_CAP, "attempt {attempt} exceeded the cap: {d:?}");
            let doubled = CONNECT_BACKOFF.saturating_mul(1 << attempt.min(20));
            let floor = doubled.min(CONNECT_BACKOFF_CAP) / 2;
            assert!(d >= floor, "attempt {attempt} under 50% jitter floor: {d:?}");
            assert_eq!(d, backoff_delay(attempt, 7), "same seed must give the same jitter");
        }
        // Huge attempt counts must not overflow.
        assert!(backoff_delay(u32::MAX, 1) <= CONNECT_BACKOFF_CAP);
    }

    #[test]
    fn write_reply_answers_an_over_cap_reply_with_a_typed_error_frame() {
        // A reply one byte over the cap, then the session's next reply, onto one stream.
        let session = SessionId(7);
        let header = Envelope { session, seq: 3, frame: Vec::new() }.encode().len();
        let over_cap = Envelope { session, seq: 3, frame: vec![0; MAX_FRAME_LEN + 1 - header] };
        let next_frame = framed(frame::RESPONSE, &S2Response::Signs(vec![1]));
        let next = Envelope { session, seq: 4, frame: next_frame };
        let mut written = Vec::new();
        write_reply(&mut written, &over_cap).unwrap();
        let first_len = written.len();
        // A re-send is answered from the replay cache with the same over-cap reply.
        write_reply(&mut written, &over_cap).unwrap();
        write_reply(&mut written, &next).unwrap();

        let mut stream = &written[..];
        let error = Envelope::decode(&read_frame(&mut stream).unwrap()).unwrap();
        assert_eq!((error.session, error.seq), (session, 3), "the error answers the request");
        assert_eq!(error.frame.first(), Some(&frame::RESPONSE));
        let response: S2Response = wire::from_bytes(&error.frame[1..]).unwrap();
        assert!(
            matches!(&response, S2Response::Error(e) if e.code == WireErrorCode::MalformedRequest
                && e.message.contains(&format!("{} bytes", MAX_FRAME_LEN + 1))),
            "unexpected response {response:?}"
        );
        let replayed = read_frame(&mut stream).unwrap();
        assert_eq!(replayed, written[4..first_len], "a re-send gets the same answer");
        assert_eq!(Envelope::decode(&read_frame(&mut stream).unwrap()).unwrap(), next);
        assert!(stream.is_empty());
    }

    #[test]
    fn transparent_resume_recovers_a_mid_flight_drop_byte_identically() {
        let master = master(49);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let mut tcp =
            connect(server.local_addr(), provision_for(&master, 77), SessionId(0)).unwrap();
        let mut oracle = InProcessTransport::new(provision_for(&master, 77).build());

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let a1 = tcp.round_trip(compare_request(&master, 5, &mut rng_a)).unwrap();
        let b1 = oracle.round_trip(compare_request(&master, 5, &mut rng_b)).unwrap();
        assert_eq!(a1, b1);

        // Sever the connection server-side, mid-session.  The next exchange hits a
        // dead socket, reconnects, resumes and re-sends — invisibly to the caller.
        assert!(server.drop_session(tcp.session()));
        let a2 = tcp.round_trip(compare_request(&master, -6, &mut rng_a)).unwrap();
        let b2 = oracle.round_trip(compare_request(&master, -6, &mut rng_b)).unwrap();
        assert_eq!(
            a2, b2,
            "the resumed exchange must answer byte-identically, and a recovery retransmit \
             must not count as traffic"
        );
        assert_eq!(tcp.faults_absorbed(), 1);
        assert_eq!(server.resumed_sessions(), 1);
        assert_eq!(
            tcp.s2_ledger().events(),
            oracle.s2_ledger().events(),
            "the resumed session's ledger must match an uninterrupted run"
        );
    }

    #[test]
    fn resume_with_a_bad_token_is_denied() {
        let master = master(52);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, session, token) = raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream); // dirty exit: no DISCONNECT
        wait_for(|| server.parked_sessions() == 1);

        let (_s, answer) = raw_resume(server.local_addr(), session, 0, token.wrapping_add(1));
        assert!(matches!(
            answer,
            ServerHello::Reject { code: RejectCode::ResumeDenied, reason }
                if reason.contains("token mismatch")
        ));
        // The denied claim leaves the session parked for the rightful owner.
        assert_eq!(server.parked_sessions(), 1);
        let (_s2, answer) = raw_resume(server.local_addr(), session, 0, token);
        assert!(matches!(answer, ServerHello::Accept { .. }));
        assert_eq!(server.resumed_sessions(), 1);
    }

    #[test]
    fn resume_of_an_unknown_session_is_denied() {
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (_s, answer) = raw_resume(server.local_addr(), 424242, 0, 1);
        assert!(matches!(answer, ServerHello::Reject { code: RejectCode::ResumeDenied, .. }));
    }

    #[test]
    fn two_clients_racing_to_resume_admit_exactly_one() {
        let master = master(53);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, session, token) = raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);

        let addr = server.local_addr();
        let racers: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || raw_resume(addr, session, 0, token)))
            .collect();
        let answers: Vec<ServerHello> = racers.into_iter().map(|h| h.join().unwrap().1).collect();
        let accepts = answers.iter().filter(|a| matches!(a, ServerHello::Accept { .. })).count();
        assert_eq!(accepts, 1, "exactly one racer may claim the parked session: {answers:?}");
        assert_eq!(server.resumed_sessions(), 1);
    }

    #[test]
    fn park_ttl_expiry_reaps_the_session_and_frees_its_id() {
        let master = master(54);
        let server = TcpCloudServer::serve_pool(
            "127.0.0.1:0",
            Arc::new(MultiplexServer::new(1)),
            Duration::from_millis(50),
        )
        .unwrap();
        let (stream, session, token) =
            raw_fresh(server.local_addr(), 21, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);
        assert_eq!(server.pool().active_sessions(), 1, "parked sessions stay in the pool");

        wait_for(|| server.parked_sessions() == 0 && server.pool().active_sessions() == 0);
        // The expired session is gone: its resume is denied and its id is reusable.
        let (_s, answer) = raw_resume(server.local_addr(), session, 0, token);
        assert!(matches!(answer, ServerHello::Reject { code: RejectCode::ResumeDenied, .. }));
        let (_s2, reused, _t) = raw_fresh(server.local_addr(), 21, provision_for(&master, 2));
        assert_eq!(reused, 21);
    }

    #[test]
    fn an_expired_session_frees_its_seat_for_a_fresh_hello_with_no_sweeper() {
        // A one-seat pool behind a 50 ms park TTL: once the TTL has passed, the reads of
        // the handshakes find the parked session gone.
        let master = master(68);
        let registry = MetricsRegistry::enabled();
        let limits = PoolLimits { max_sessions: 1 };
        let pool = MultiplexServer::with_limits_and_metrics(1, limits, registry.clone());
        let server =
            TcpCloudServer::serve_pool("127.0.0.1:0", Arc::new(pool), Duration::from_millis(50))
                .unwrap();
        let (stream, session, token) =
            raw_fresh(server.local_addr(), 21, provision_for(&master, 1));
        drop(stream);
        // The connection's thread unregisters its stream and parks in one step.
        wait_for(|| server.active_sessions() == 0);
        std::thread::sleep(Duration::from_millis(60));

        let (_s, answer) = raw_resume(server.local_addr(), session, 0, token);
        assert!(matches!(answer, ServerHello::Reject { code: RejectCode::ResumeDenied, .. }));
        let (_s2, reused, _t) = raw_fresh(server.local_addr(), 21, provision_for(&master, 2));
        assert_eq!(reused, 21, "the expired session's id and seat are free");
        assert_eq!(server.pool().active_sessions(), 1, "only the fresh session is counted");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("tcp.server.parked"), 1);
        assert_eq!(snapshot.counter("pool.evicted"), 1, "one expiry, counted once");
    }

    #[test]
    fn drain_returns_when_the_last_client_disconnects() {
        let master = master(69);
        let server = Arc::new(TcpCloudServer::bind("127.0.0.1:0", 1).unwrap());
        let mut client =
            connect(server.local_addr(), provision_for(&master, 1), SessionId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        client.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        let leaving = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                wait_for(|| server.shared.admission.plock().draining);
                drop(client);
            })
        };
        let draining = Arc::clone(&server);
        within_five_seconds("drain", move || draining.drain(Duration::from_secs(30)));
        leaving.join().unwrap();
        assert_eq!(server.active_sessions(), 0, "no stream is left registered");
    }

    #[test]
    fn draining_server_rejects_hellos_with_a_typed_overload() {
        let master = master(55);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        server.drain(Duration::ZERO);
        let err =
            connect(server.local_addr(), provision_for(&master, 1), SessionId(0)).unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Overloaded);
                assert!(e.message.contains("draining"), "unexpected message {e:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn drain_reaps_parked_sessions_immediately() {
        let master = master(56);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, _session, _token) =
            raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);
        server.drain(Duration::from_millis(200));
        assert_eq!(server.parked_sessions(), 0);
        wait_for(|| server.pool().active_sessions() == 0);
    }

    #[test]
    fn a_lost_reply_is_recovered_by_resending_the_same_envelope_unmetered() {
        // A scripted S2 behind a real socket: it reads the first send of exchange 1 and
        // shuts that connection down unanswered, then takes the resume and answers the
        // re-send.
        const SESSION: SessionId = SessionId(7);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let response = S2Response::Signs(vec![1]);
        let reply =
            Envelope { session: SESSION, seq: 1, frame: framed(frame::RESPONSE, &response) };
        let s2 = std::thread::spawn(move || {
            let handshake = |resume_token: u64| {
                let (stream, _) = listener.accept().unwrap();
                let hello: ClientHello = wire::from_bytes(&read_frame(&stream).unwrap()).unwrap();
                let accept = ServerHello::Accept {
                    version: TCP_PROTOCOL_VERSION,
                    session: SESSION.0,
                    resume_token,
                };
                write_frame(&stream, &wire::to_bytes(&accept)).unwrap();
                (stream, hello.kind)
            };
            let (first, _) = handshake(1);
            let sent = read_frame(&first).unwrap();
            first.shutdown(Shutdown::Both).unwrap();
            let (second, resume) = handshake(2);
            let resent = read_frame(&second).unwrap();
            write_frame(&second, &reply.encode()).unwrap();
            (sent, resent, resume)
        });
        let master = master(66);
        let mut transport = connect(addr, provision_for(&master, 1), SessionId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let request = compare_request(&master, 1, &mut rng);
        let one_round = wire::measure(&request) + wire::measure(&response);
        assert_eq!(
            transport.round_trip(request).unwrap(),
            (response, one_round),
            "a re-send must not be re-metered"
        );
        assert_eq!(transport.faults_absorbed(), 1);
        let (sent, resent, resume) = s2.join().unwrap();
        assert_eq!(sent, resent, "the re-send is the very same envelope");
        assert!(
            matches!(
                resume,
                HelloKind::Resume(ResumeHello { session: 7, last_acked_seq: 0, resume_token: 1 })
            ),
            "unexpected resume claim {resume:?}"
        );
    }

    /// `message` encodes to `pinned`, and `pinned` decodes to what encodes to it again.
    fn assert_pinned<T: Serialize + Deserialize>(message: &T, pinned: &[u8]) {
        assert_eq!(wire::to_bytes(message), pinned);
        assert_eq!(wire::to_bytes(&wire::from_bytes::<T>(pinned).unwrap()), pinned);
    }

    #[test]
    fn hello_bytes_are_pinned() {
        // The handshake as protocol version 3 peers put it on the wire.  A fresh hello
        // is pinned around its provision, whose bytes are the engine's to define.
        let provision = provision_for(&master(65), 65);
        let kind = HelloKind::Fresh { session: 7, provision: provision.clone() };
        let fresh = ClientHello { magic: TCP_MAGIC.into(), version: TCP_PROTOCOL_VERSION, kind };
        let fresh_prefix: &[u8] = b"\x09\x03\x05magic\x06\x07sectopk\x07version\x03\x03\x04kind\
            \x09\x01\x05Fresh\x09\x02\x07session\x03\x07\x09provision";
        assert_pinned(&fresh, &[fresh_prefix, &wire::to_bytes(&provision)].concat());

        let claim = ResumeHello { session: 7, last_acked_seq: 3, resume_token: 0x1234 };
        let resume = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Resume(claim),
        };
        assert_pinned(
            &resume,
            b"\x09\x03\x05magic\x06\x07sectopk\x07version\x03\x03\x04kind\x09\x01\x06Resume\
              \x08\x01\x09\x03\x07session\x03\x07\x0elast_acked_seq\x03\x03\
              \x0cresume_token\x03\xb4\x24",
        );
        let accept =
            ServerHello::Accept { version: TCP_PROTOCOL_VERSION, session: 7, resume_token: 0x1234 };
        assert_pinned(
            &accept,
            b"\x09\x01\x06Accept\x09\x03\x07version\x03\x03\x07session\x03\x07\
              \x0cresume_token\x03\xb4\x24",
        );
        let rejects: [(RejectCode, &[u8]); 6] = [
            (RejectCode::Malformed, b"\x06\x09Malformed"),
            (RejectCode::VersionMismatch, b"\x06\x0fVersionMismatch"),
            (RejectCode::Full, b"\x06\x04Full"),
            (RejectCode::Draining, b"\x06\x08Draining"),
            (RejectCode::SessionInUse, b"\x06\x0cSessionInUse"),
            (RejectCode::ResumeDenied, b"\x06\x0cResumeDenied"),
        ];
        for (code, name) in rejects {
            let pinned = [b"\x09\x01\x06Reject\x09\x02\x04code", name, b"\x06reason\x06\x01r"];
            assert_pinned(&ServerHello::Reject { code, reason: "r".into() }, &pinned.concat());
        }
    }

    /// Run `f` on a thread of its own and fail unless it returns within 5 s (a thread
    /// that hangs is left behind; one that panics passes its panic on).
    fn within_five_seconds(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, returned) = std::sync::mpsc::channel();
        let running = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        let waited = returned.recv_timeout(Duration::from_secs(5));
        let hung = matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout));
        assert!(!hung, "{what} did not return within 5 s");
        running.join().unwrap();
    }

    /// A listener and a dozen raw clients, each with a connection thread of its own,
    /// that send a fresh hello all at once and say nothing more: the listener is stopped
    /// while their hellos are being admitted.
    fn silent_clients(base: &EngineProvision) -> (TcpCloudServer, Vec<TcpStream>) {
        const CLIENTS: u64 = 12;
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let clients: Vec<TcpStream> =
            (0..CLIENTS).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
        wait_for(|| server.connection_threads.plock().len() == CLIENTS as usize);
        for (stream, seed) in clients.iter().zip(0..) {
            let provision = EngineProvision { seed, ..base.clone() };
            let kind = HelloKind::Fresh { session: 0, provision };
            let hello =
                ClientHello { magic: TCP_MAGIC.into(), version: TCP_PROTOCOL_VERSION, kind };
            write_frame(stream, &wire::to_bytes(&hello)).unwrap();
        }
        (server, clients)
    }

    /// A silent client must end refused for draining or hung up on (after an accept or
    /// before one) — never left connected, and never reset.
    fn assert_refused_for_draining_or_hung_up(mut client: TcpStream) {
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut received = Vec::new();
        client.read_to_end(&mut received).expect("the server must hang up");
        let mut frames = &received[..];
        while !frames.is_empty() {
            match wire::from_bytes::<ServerHello>(&read_frame(&mut frames).unwrap()).unwrap() {
                ServerHello::Accept { .. } => {}
                ServerHello::Reject { code, reason } => {
                    assert_eq!(code, RejectCode::Draining, "unexpected refusal: {reason}");
                }
            }
        }
    }

    /// Rounds of each race test: the window a stop can hit is microseconds wide.
    const RACE_ROUNDS: u64 = 10;

    #[test]
    fn dropping_a_listener_mid_admission_never_waits_on_a_silent_client() {
        let base = provision_for(&master(63), 63);
        for _ in 0..RACE_ROUNDS {
            let (server, clients) = silent_clients(&base);
            within_five_seconds("Drop", move || drop(server));
            clients.into_iter().for_each(assert_refused_for_draining_or_hung_up);
        }
    }

    #[test]
    fn draining_a_listener_mid_admission_refuses_or_severs_every_client() {
        let base = provision_for(&master(64), 64);
        for _ in 0..RACE_ROUNDS {
            let (server, clients) = silent_clients(&base);
            let server = Arc::new(server);
            let draining = Arc::clone(&server);
            within_five_seconds("drain", move || draining.drain(Duration::ZERO));
            clients.into_iter().for_each(assert_refused_for_draining_or_hung_up);
            within_five_seconds("Drop", move || drop(server));
        }
    }
}
