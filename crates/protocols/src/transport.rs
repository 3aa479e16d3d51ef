//! The inter-cloud message-passing transport: typed S1 ↔ S2 protocol messages, the
//! [`Transport`] trait that carries them, and its two implementations.
//!
//! # Architecture
//!
//! The paper's §3.2 deployment is two non-colluding parties exchanging messages over a
//! metered link.  Every sub-protocol exchange in this crate is expressed as one
//! [`S1Request`] shipped to S2 and one [`S2Response`] shipped back — there is no shared
//! state between the parties; S2's keys, randomness and ledger live exclusively inside
//! the [`crate::engine::S2Engine`] behind the transport:
//!
//! ```text
//!            primary cloud S1                      crypto cloud S2
//!   ┌────────────────────────────┐         ┌───────────────────────────────┐
//!   │ S1State                    │         │ S2Engine                      │
//!   │  public keys, rng, ledger  │         │  secret keys, rng, ledger     │
//!   │  encrypted relation        │         │  (no data)                    │
//!   └─────────────┬──────────────┘         └───────────────▲───────────────┘
//!                 │      S1Request (serialized)            │
//!                 │  ────────────────────────────────────▶ │
//!                 │            Transport::round_trip       │
//!                 │  ◀──────────────────────────────────── │
//!                 │      S2Response (serialized)           │
//!                 ▼                                        │
//!          TwoClouds::round meters the reply's arrival: 1 round per
//!          request/reply pair (Batch counts as one), plus the Traffic
//!          the codec measured for both messages
//! ```
//!
//! A transport moves messages and reports what they weighed ([`Traffic`]); it keeps no
//! meter.  Two implementations:
//!
//! * [`InProcessTransport`] — the direct call and the byte-metering oracle: the request
//!   value is handed to the engine without copying the payload; both messages are still
//!   *measured* at their exact wire size via [`crate::wire::measure`].
//! * [`EnvelopeTransport`] — every message is actually serialized with [`crate::wire`]
//!   and travels as a session-tagged [`Envelope`] to a
//!   [`crate::multiplex::MultiplexServer`]; its traffic is the payload bytes the codec
//!   encoded and decoded.  The client owns everything the link's two ends agree on —
//!   sequence numbers, echo verification, the control plane and teardown — exactly
//!   once; what carries an envelope there and its reply back is a `Pipe` (exchange +
//!   teardown), of which there are two: the pool's own conduit (a call on the S1 thread
//!   beside a simulated-RTT sleeper, [`TransportKind::Multiplex`]) and a socket
//!   ([`TransportKind::Tcp`], see [`crate::tcp`]).  Recovery is the socket pipe's alone,
//!   the only medium that can drop: its exchange reconnects, resumes and re-sends the
//!   same envelope on its own.
//!
//! Both produce byte-identical protocol outputs, identical leakage ledgers and
//! identical [`Traffic`] for the same seed, over either pipe (asserted by
//! `tests/transport_equivalence.rs`).
//!
//! Intra-query parallelism never leaks into this layer: S2 executes a request as
//! parallel compute + serial commit (see [`crate::engine`]) and S1 parallelizes only
//! pure ciphertext arithmetic after drawing its randomness serially, so transcripts,
//! metrics and ledgers are byte-identical for any `SECTOPK_INTRA_PARALLEL` worker
//! count.  Worker count is a local resource decision of each party — it is not
//! protocol state and is never carried in these messages.
//!
//! # Batching rules
//!
//! Every request is self-contained: S2's reply depends only on that request and S2's
//! own randomness, never on an earlier request of the session.  Each sub-protocol step
//! is therefore one message, and [`S1Request::Batch`] wraps any number of *independent*
//! requests into a single round trip; the engine answers with a positionally matching
//! [`S2Response::Batch`]:
//!
//! * `SecDedup` ships its whole pairwise equality matrix inside one [`S1Request::Dedup`].
//! * `EncSort` ships all pairs of its counting step, or all gates of one merge stage, in
//!   one [`S1Request::Compare`].
//! * `SecWorst` / `SecBest` ship the equality rows of all `m` per-depth items, with the
//!   masked scores S2 selects from, in one `Batch`.
//!
//! Requests inside a `Batch` must not depend on each other's responses; sequencing
//! across rounds is the caller's job.

// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::cell::RefCell;
use std::fmt;

use sectopk_metrics::Registry as MetricsRegistry;
use serde::{Deserialize, Serialize};

use sectopk_crypto::paillier::Ciphertext;

use crate::dedup::EncryptedBlinding;
use crate::engine::S2Engine;
use crate::error::{ProtocolError, Result};
use crate::items::ScoredItem;
use crate::ledger::LeakageLedger;
use crate::multiplex::{Envelope, LinkProfile, SessionId};
use crate::wire;
use crate::wire::{Traffic, WireError};

// ====================================================================================
// Message types
// ====================================================================================

/// How a masked candidate set, or a family of selection jobs, lies over a `rows × cols`
/// equality matrix: one entry per cell (row-major), per row, or per column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Per {
    /// One entry per cell, row-major.
    Cell,
    /// One entry per row.
    Row,
    /// One entry per column.
    Column,
}

impl Per {
    /// How many entries a `rows × cols` matrix has laid out this way.
    pub fn len(self, rows: usize, cols: usize) -> usize {
        match self {
            Per::Cell => rows * cols,
            Per::Row => rows,
            Per::Column => cols,
        }
    }

    /// The entry that cell `(i, j)` of a matrix with `cols` columns reads.
    pub fn index(self, cols: usize, i: usize, j: usize) -> usize {
        match self {
            Per::Cell => i * cols + j,
            Per::Row => i,
            Per::Column => j,
        }
    }

    /// The row-major cells of line `line` — cell, row or column `line` — of a
    /// `rows × cols` matrix.
    pub fn cells(self, rows: usize, cols: usize, line: usize) -> Vec<usize> {
        match self {
            Per::Cell => vec![line],
            Per::Row => (line * cols..(line + 1) * cols).collect(),
            Per::Column => (0..rows).map(|i| i * cols + line).collect(),
        }
    }
}

/// Masked candidates `Enc(x + r)`, laid out over the equality matrix as `.0` says: each
/// `r` is uniform modulo `N` and known only to S1, so the plaintexts S2 decrypts are
/// uniform to it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MaskedSet(pub Per, pub Vec<Ciphertext>);

/// One family of selection jobs in an [`S1Request::EqMatrix`]: a job per line — per cell,
/// row or column, as `.0` says.  Job `ℓ` is answered with a fresh
/// `Enc(Σ_{c ∈ ℓ} t_c·x_c + (1 − Σ_{c ∈ ℓ} t_c)·y_ℓ)`, where `t_c` is the equality bit of
/// cell `c`, `x_c` the candidate of masked set `.1` at `c` and `y_ℓ` the entry of set
/// `.2` at line `ℓ` (a set laid out like the family).  Without a default set the job is a
/// *sum*, `Enc(Σ_{c ∈ ℓ} t_c·x_c)`; with one it is a *one-of-many* selection, meaningful
/// when at most one bit of the line is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Select(pub Per, pub usize, pub Option<usize>);

/// The `SecDedup` / `SecDupElim` exchange payload (Algorithm 7 / §10.1): the blinded,
/// permuted items, their blinding randomness encrypted under S1's own key `pk'`, and the
/// pairwise equality matrix over the permuted positions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DedupRequest {
    /// Blinded items in permuted order.
    pub items: Vec<ScoredItem>,
    /// `Enc_pk'(blinding)` per item, permuted consistently with `items`.
    pub blindings: Vec<EncryptedBlinding>,
    /// Permuted index pairs `(a, b)` with `a < b`, one per matrix entry: the whole upper
    /// triangle, `l(l−1)/2` pairs for `l` items.
    pub pair_indices: Vec<(usize, usize)>,
    /// The `⊖` equality ciphertexts, positionally matching `pair_indices`.
    pub matrix: Vec<Ciphertext>,
    /// `true` ⇒ `SecDupElim` (§10.1): drop duplicates, shrinking the list.
    pub eliminate: bool,
    /// Scan depth, for the equality-pattern bookkeeping.
    pub depth: usize,
}

/// One blinded tuple of the `SecFilter` exchange (Algorithm 12).  On the way out the
/// unblinders are S1's (`Enc_pk'(r⁻¹)`, `Enc_pk'(R_l)`); on the way back they are the
/// homomorphically updated versions after S2's re-blinding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FilterTuple {
    /// Multiplicatively blinded score `Enc(r · b · score)`.
    pub score: Ciphertext,
    /// Additively blinded carried attributes.
    pub attributes: Vec<Ciphertext>,
    /// `Enc_pk'(·)` multiplicative unblinder for the score.
    pub score_unblinder: Ciphertext,
    /// `Enc_pk'(·)` additive masks for the attributes.
    pub attribute_masks: Vec<Ciphertext>,
}

/// A typed request from the primary cloud S1 to the crypto cloud S2.  One request and
/// its [`S2Response`] form one protocol round trip.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum S1Request {
    /// A whole equality matrix in one message, `rows × cols` ciphertexts in row-major
    /// order, and the selections S2 is to make from its bits over masked candidates.
    EqMatrix {
        /// Row-major `⊖` ciphertexts (`diffs.len()` must be a multiple of `cols`).
        diffs: Vec<Ciphertext>,
        /// Number of columns.
        cols: usize,
        /// Calling sub-protocol (ledger context).
        context: String,
        /// Scan depth, if applicable.
        depth: Option<usize>,
        /// The masked candidate sets the selections read.
        sets: Vec<MaskedSet>,
        /// The selection jobs, family by family.
        select: Vec<Select>,
        /// Return the *plaintext* per-row bits `∨_j t_ij` — a deliberate disclosure to S1,
        /// used only by `Qry_E`'s SecUpdate, whose profile grants S1 the per-depth
        /// uniqueness pattern `UP^d` (§10.1).
        disclose_rows: bool,
    },
    /// Blinded, sign-flipped differences; S2 decrypts each and reports only its sign
    /// (the EncCompare / EncSort comparator exchange).
    Compare {
        /// `Enc(±α(a−b))` per comparison.
        blinded: Vec<Ciphertext>,
        /// Calling sub-protocol (ledger context).
        context: String,
    },
    /// The `SecDedup` / `SecDupElim` exchange (Algorithm 7 / §10.1).
    Dedup(DedupRequest),
    /// The `SecFilter` exchange (Algorithm 12): drop blinded all-zero join tuples.
    Filter {
        /// Blinded joined tuples, in S1-permuted order.
        tuples: Vec<FilterTuple>,
    },
    /// Blinded operand pairs for the SkNN baseline's secure multiplication: S2 decrypts
    /// both halves, multiplies, and returns `Enc((a+r_a)(b+r_b))`.
    MulBlinded {
        /// The blinded `(Enc(a+r_a), Enc(b+r_b))` pairs.
        pairs: Vec<(Ciphertext, Ciphertext)>,
    },
    /// Any number of independent requests shipped as a single round trip.
    Batch(Vec<S1Request>),
}

impl S1Request {
    /// Stable lower-snake-case name of this request kind, used as the metric and trace
    /// span label for the protocol round that ships it.
    pub fn kind_name(&self) -> &'static str {
        match self {
            S1Request::EqMatrix { .. } => "eq_matrix",
            S1Request::Compare { .. } => "compare",
            S1Request::Dedup(_) => "dedup",
            S1Request::Filter { .. } => "filter",
            S1Request::MulBlinded { .. } => "mul_blinded",
            S1Request::Batch(_) => "batch",
        }
    }
}

/// A typed response from the crypto cloud S2, positionally matching the [`S1Request`]
/// kind that solicited it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum S2Response {
    /// Reply to [`S1Request::EqMatrix`].
    EqBits {
        /// Fresh `Enc(t_ij)` per cell, row-major; empty when the request selects nothing.
        bits: Vec<Ciphertext>,
        /// One fresh ciphertext per job, family by family in request order.
        selected: Vec<Ciphertext>,
        /// Plaintext `∨_j t_ij` per row when `disclose_rows` was set, else empty.
        row_matched: Vec<bool>,
    },
    /// Reply to [`S1Request::Compare`]: one sign per blinded difference, −1 or +1 (S1
    /// sends odd differences; S2 rejects a zero as a malformed request).
    Signs(Vec<i8>),
    /// Reply to [`S1Request::Dedup`]: re-blinded, re-permuted items and their updated
    /// encrypted blindings.
    Dedup {
        /// The processed items (same length for `SecDedup`, possibly shorter for
        /// `SecDupElim`).
        items: Vec<ScoredItem>,
        /// Updated `Enc_pk'(blinding)` per returned item.
        blindings: Vec<EncryptedBlinding>,
    },
    /// Reply to [`S1Request::Filter`]: the surviving (re-blinded, re-permuted) tuples.
    Filter {
        /// Tuples whose score was non-zero.
        survivors: Vec<FilterTuple>,
    },
    /// Reply to [`S1Request::MulBlinded`]: `Enc((a+r_a)(b+r_b))` per pair.
    Products(Vec<Ciphertext>),
    /// Replies to a [`S1Request::Batch`], in request order.
    Batch(Vec<S2Response>),
    /// S2 failed to process the request: a typed [`WireError`] frame, metered like any
    /// reply and surfaced by the session as [`ProtocolError::Remote`]; the session keeps
    /// being served.
    Error(WireError),
}

// ====================================================================================
// The transport trait
// ====================================================================================

/// Which transport implementation backs a [`crate::context::TwoClouds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// S2 runs in-process behind a direct call (fast path, metered wire sizes).
    InProcess,
    /// S2 is a session-multiplexing pool ([`crate::multiplex::MultiplexServer`]);
    /// messages travel as [`Envelope`]s over the pool's in-memory conduit.  When
    /// selected here (rather than by connecting to an explicit server), the session
    /// joins the process-wide loopback pool, so the whole test suite can run over the
    /// envelope path via `SECTOPK_TRANSPORT=multiplex`.
    Multiplex,
    /// S2 is a real networked process: the same envelopes travel length-prefix-framed
    /// over a TCP socket to a [`crate::tcp::TcpCloudServer`] listener (the
    /// `sectopk-s2d` binary).  When selected here, the session dials the process-wide
    /// loopback listener, so the whole test suite can run over real sockets via
    /// `SECTOPK_TRANSPORT=tcp`.
    Tcp,
}

/// Environment variable selecting the default transport: unset or `inprocess`,
/// `multiplex`, or `tcp` (ASCII case-insensitive).  Anything else is an error, so a
/// mistyped CI leg fails instead of silently testing the in-process path.
pub const TRANSPORT_ENV: &str = "SECTOPK_TRANSPORT";

impl TransportKind {
    /// The transport selected by the `SECTOPK_TRANSPORT` environment variable (see
    /// [`TRANSPORT_ENV`]).  Lets the CI matrix run the whole test suite over each
    /// transport without code changes.
    pub fn from_env() -> Result<Self> {
        Self::parse(std::env::var(TRANSPORT_ENV).ok().as_deref())
    }

    /// The selection rule behind [`Self::from_env`], split out so tests can exercise it
    /// without mutating the process environment (which every `TwoClouds::new` reads).
    pub fn parse(value: Option<&str>) -> Result<Self> {
        match value.map(str::to_ascii_lowercase).as_deref() {
            None | Some("inprocess") => Ok(TransportKind::InProcess),
            Some("multiplex") => Ok(TransportKind::Multiplex),
            Some("tcp") => Ok(TransportKind::Tcp),
            Some(other) => Err(ProtocolError::transport_rejected(format!(
                "unknown {TRANSPORT_ENV} value {other:?}: expected inprocess, multiplex or tcp"
            ))),
        }
    }
}

/// A bidirectional message channel to the crypto cloud S2.
///
/// Implementations own the S2 party outright — its keys, randomness and leakage ledger —
/// so protocol code on the S1 side can only interact with S2 by sending a typed
/// [`S1Request`] and reading the [`S2Response`].
pub trait Transport: fmt::Debug + Send {
    /// Ship `request` to S2 and block until its reply arrives.  Returns the reply as S2
    /// sent it — an [`S2Response::Error`] frame included — and the round's [`Traffic`]:
    /// both messages' payload bytes and ciphertexts, as the wire codec measured them.
    /// An exchange that fails inside the transport returns the error alone.
    fn round_trip(&mut self, request: S1Request) -> Result<(S2Response, Traffic)>;

    /// Snapshot of everything S2 observed beyond its inputs.
    fn s2_ledger(&self) -> LeakageLedger;

    /// Clear S2's ledger.
    fn reset_s2(&mut self);

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;

    /// The simulated link profile the transport runs over: ideal unless a pool session
    /// was connected with an RTT, which is what the adaptive query planner feeds into
    /// the §11 cost model.
    fn link(&self) -> LinkProfile {
        LinkProfile::ideal()
    }

    /// Transport-level faults this connection absorbed without surfacing an error to
    /// the caller: reconnect-and-resume cycles after a dropped connection.  Zero on the
    /// in-process path, which cannot fault; the envelope transport counts every
    /// absorbed fault so serving reports can separate "queries that failed" from
    /// "faults that were retried away".
    fn faults_absorbed(&self) -> u64 {
        0
    }

    /// Install client-side metric handles from `registry` (see
    /// [`sectopk_metrics::Registry`]).  Default: no instrumentation — only the socket
    /// pipe currently reports client-side metrics (`tcp.client.*`).  Never affects
    /// protocol bytes, ledgers or [`crate::ChannelMetrics`].
    fn set_metrics_registry(&mut self, _registry: &MetricsRegistry) {}
}

// ====================================================================================
// In-process transport
// ====================================================================================

/// The fast path: the request value is handed to S2's engine directly — nothing is
/// serialized for transfer or deserialized on arrival.  Both messages are still
/// measured at their exact wire-encoded size via [`wire::measure`] so the bandwidth
/// figures match the envelope transport byte for byte; that measure does lower each
/// message into a transient value tree, a cost that is negligible next to the Paillier
/// arithmetic dominating every exchange.
pub struct InProcessTransport {
    engine: S2Engine,
}

impl InProcessTransport {
    /// Wrap an S2 engine.
    pub fn new(engine: S2Engine) -> Self {
        InProcessTransport { engine }
    }
}

impl fmt::Debug for InProcessTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessTransport").finish_non_exhaustive()
    }
}

impl Transport for InProcessTransport {
    fn round_trip(&mut self, request: S1Request) -> Result<(S2Response, Traffic)> {
        // Engine failures become an `S2Response::Error` frame exactly as on the
        // envelope transport, so the reply weighs the same on both implementations.
        let response = self.engine.handle(&request).unwrap_or_else(S2Response::Error);
        let traffic = wire::measure(&request) + wire::measure(&response);
        Ok((response, traffic))
    }

    fn s2_ledger(&self) -> LeakageLedger {
        self.engine.ledger().clone()
    }

    fn reset_s2(&mut self) {
        self.engine.reset();
    }

    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }
}

// ====================================================================================
// Envelope transport
// ====================================================================================

/// Frame tags of an [`Envelope`]'s frame (one leading tag byte, then the wire-encoded
/// payload).
pub(crate) mod frame {
    /// S1 → S2: a protocol request (payload: [`super::S1Request`]).
    pub const REQUEST: u8 = 0;
    /// S1 → S2: fetch S2's ledger snapshot (control plane, unmetered).
    pub const FETCH_LEDGER: u8 = 1;
    /// S1 → S2: clear S2's ledger (control plane, unmetered).
    pub const RESET: u8 = 2;
    /// S1 → S2: close the session, dropping its server-side state.
    pub const DISCONNECT: u8 = 4;
    /// S2 → S1: a protocol response (payload: [`super::S2Response`]).
    pub const RESPONSE: u8 = 16;
    /// S2 → S1: the requested ledger snapshot.
    pub const LEDGER: u8 = 17;
    /// S2 → S1: acknowledgement of a reset.
    pub const RESET_DONE: u8 = 18;
    /// S2 → S1: acknowledgement of a session disconnect.  Makes teardown synchronous,
    /// so a session id can be reused the moment its previous owner is dropped.
    pub const DISCONNECT_DONE: u8 = 19;
}

/// Prefix the wire encoding of `payload` with a frame tag byte.
pub(crate) fn framed<T: Serialize>(tag: u8, payload: &T) -> Vec<u8> {
    [&[tag][..], &wire::to_bytes(payload)].concat()
}

/// The payload of `frame` if it opens with `tag`.
fn payload_of(frame: &[u8], tag: u8) -> Result<&[u8]> {
    match frame.split_first() {
        Some((&t, payload)) if t == tag => Ok(payload),
        _ => Err(ProtocolError::transport("unexpected reply frame from S2")),
    }
}

/// What carries an [`EnvelopeTransport`]'s envelopes to the S2 pool and back.  The
/// client decides *what* crosses the link and checks what comes back; a pipe only
/// moves envelopes, and a pipe whose medium can drop re-establishes it on its own.
pub(crate) trait Pipe: Send {
    /// Which deployment this pipe realises.
    fn kind(&self) -> TransportKind;

    /// The simulated link this pipe runs over.
    fn link(&self) -> LinkProfile {
        LinkProfile::ideal()
    }

    /// Ship one envelope and block for its reply.  A failure the pipe can recover from
    /// (the socket pipe: reconnect, resume, re-send the same envelope) never surfaces.
    fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope>;

    /// See [`Transport::faults_absorbed`].
    fn faults_absorbed(&self) -> u64 {
        0
    }

    /// Orderly teardown: deliver the DISCONNECT `envelope` and wait until the session
    /// id is free for reuse.  Best effort — the far side may already be gone.
    fn disconnect(&mut self, envelope: &Envelope);

    /// See [`Transport::set_metrics_registry`].
    fn set_metrics_registry(&mut self, _registry: &MetricsRegistry) {}
}

/// The S1 side of one session of a [`crate::multiplex::MultiplexServer`]: a
/// [`Transport`] whose messages are serialized, framed into session-tagged
/// [`Envelope`]s and moved by a `Pipe`.  Obtain one from
/// [`crate::multiplex::MultiplexServer::connect`] (in-memory conduit) or
/// [`crate::tcp::connect`] (socket).
pub struct EnvelopeTransport {
    session: SessionId,
    /// Sequence number of the last protocol request (control traffic uses 0).
    seq: u64,
    /// `RefCell` because the control plane runs from `&self` ([`Transport::s2_ledger`])
    /// through the same exchange path as requests, and an exchange mutates the pipe.
    pipe: RefCell<Box<dyn Pipe>>,
}

impl fmt::Debug for EnvelopeTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnvelopeTransport")
            .field("kind", &self.kind())
            .field("session", &self.session)
            .field("faults_absorbed", &self.faults_absorbed())
            .finish()
    }
}

impl EnvelopeTransport {
    /// Speak for `session` over `pipe`.
    pub(crate) fn new(session: SessionId, pipe: Box<dyn Pipe>) -> Self {
        EnvelopeTransport { session, seq: 0, pipe: RefCell::new(pipe) }
    }

    /// The session this transport speaks for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Ship `envelope` and block for its reply, verifying the envelope echo so a
    /// response can never be attributed to the wrong session or request.
    fn exchange(&self, envelope: &Envelope) -> Result<Envelope> {
        let reply = self.pipe.borrow_mut().exchange(envelope)?;
        if reply.session == self.session && reply.seq == envelope.seq {
            return Ok(reply);
        }
        Err(ProtocolError::transport(format!(
            "envelope echo mismatch: sent {}#{}, got {}#{}",
            self.session, envelope.seq, reply.session, reply.seq
        )))
    }

    /// One control-plane exchange (ledger fetch / reset) under the reserved
    /// sequence number 0.
    fn control(&self, tag: u8, expected_reply: u8) -> Result<Vec<u8>> {
        let reply = self.exchange(&Envelope { session: self.session, seq: 0, frame: vec![tag] })?;
        payload_of(&reply.frame, expected_reply).map(<[u8]>::to_vec)
    }
}

impl Transport for EnvelopeTransport {
    fn round_trip(&mut self, request: S1Request) -> Result<(S2Response, Traffic)> {
        // Traffic = wire payloads only; the tag byte, the envelope header and any framing
        // the pipe adds are not the message, which keeps it identical to the in-process
        // oracle.  A pipe's re-send after a recovered fault is a retransmit, not traffic.
        let (payload, sent) = wire::encode(&request);
        let frame = [&[frame::REQUEST][..], &payload].concat();
        self.seq += 1;
        let reply = self.exchange(&Envelope { session: self.session, seq: self.seq, frame })?;
        let payload = payload_of(&reply.frame, frame::RESPONSE)?;
        let (response, received) = wire::decode(payload)
            .map_err(|e| ProtocolError::transport(format!("undecodable response: {e}")))?;
        Ok((response, sent + received))
    }

    #[expect(
        clippy::expect_used,
        reason = "test-harness control plane (ledger fetch), not the request path: a dead S2 must \
                  fail loudly here, otherwise leakage assertions would pass vacuously against an \
                  empty ledger; the snapshot is produced by our own engine over a lossless channel"
    )]
    fn s2_ledger(&self) -> LeakageLedger {
        // A dead S2 must surface loudly: returning an empty ledger here would let
        // "S2 saw nothing but X" assertions pass vacuously.
        let payload = self
            .control(frame::FETCH_LEDGER, frame::LEDGER)
            .expect("S2 unavailable while fetching the session ledger");
        wire::from_bytes(&payload).expect("undecodable S2 ledger snapshot")
    }

    #[expect(
        clippy::expect_used,
        reason = "test-harness control plane (ledger reset), not the request path: a dead S2 must \
                  fail loudly here, otherwise the next leakage assertion would read a ledger that \
                  was never reset"
    )]
    fn reset_s2(&mut self) {
        self.control(frame::RESET, frame::RESET_DONE)
            .expect("S2 unavailable while resetting the session");
    }

    fn kind(&self) -> TransportKind {
        self.pipe.borrow().kind()
    }

    fn link(&self) -> LinkProfile {
        self.pipe.borrow().link()
    }

    fn faults_absorbed(&self) -> u64 {
        self.pipe.borrow().faults_absorbed()
    }

    fn set_metrics_registry(&mut self, registry: &MetricsRegistry) {
        self.pipe.get_mut().set_metrics_registry(registry);
    }
}

impl Drop for EnvelopeTransport {
    fn drop(&mut self) {
        let bye =
            Envelope { session: self.session, seq: self.seq + 1, frame: vec![frame::DISCONNECT] };
        self.pipe.get_mut().disconnect(&bye);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Stream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    fn engine(seed: u64) -> (MasterKeys, S2Engine) {
        let mut rng = StdRng::seed_from_u64(seed);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let engine = S2Engine::new(master.s2_view(), own_pk, Stream::S2Engine.seed(seed));
        (master, engine)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        let pk = &master.paillier_public;
        S1Request::Compare {
            blinded: vec![pk.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    #[test]
    fn batch_is_one_round() {
        let (master, eng) = engine(10);
        let mut transport = InProcessTransport::new(eng);
        let mut rng = StdRng::seed_from_u64(2);
        let reqs: Vec<S1Request> =
            (0..4).map(|i| compare_request(&master, 2 * i - 3, &mut rng)).collect();
        let batch = S1Request::Batch(reqs);
        let (response, traffic) = transport.round_trip(batch.clone()).unwrap();
        assert_eq!(traffic, wire::measure(&batch) + wire::measure(&response));
        assert_eq!(traffic.ciphertexts, 4, "four blinded differences out, four signs back");
        match response {
            S2Response::Batch(replies) => assert_eq!(replies.len(), 4),
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn transport_kind_env_parsing() {
        assert_eq!(TransportKind::parse(None).unwrap(), TransportKind::InProcess);
        assert_eq!(TransportKind::parse(Some("inprocess")).unwrap(), TransportKind::InProcess);
        assert_eq!(TransportKind::parse(Some("multiplex")).unwrap(), TransportKind::Multiplex);
        assert_eq!(TransportKind::parse(Some("TCP")).unwrap(), TransportKind::Tcp);
        // Anything else is an error, not a silent fall-back to the in-process path:
        // typos, retired spellings, the retired transport, the empty string.
        for bad in ["garbage", "tcpp", "mux", "socket", "thread", "channel", ""] {
            let err = TransportKind::parse(Some(bad)).unwrap_err();
            assert!(
                matches!(&err, ProtocolError::Transport(e) if e.message.contains(TRANSPORT_ENV)),
                "{bad:?} must be rejected with a typed error, got {err:?}"
            );
            assert!(!err.is_retryable());
        }
    }

    // --- The envelope client against a scripted in-memory pipe ------------------------

    const SESSION: SessionId = SessionId(7);

    /// What the fake pipe will do and what it saw.
    #[derive(Default)]
    struct Script {
        /// What the next `exchange` yields: a reply envelope, or a failure of the link.
        replies: VecDeque<Result<Envelope>>,
        /// Every envelope the client sent.
        sent: Vec<Envelope>,
        /// The teardown envelope, once the client is dropped.
        bye: Option<Envelope>,
    }

    /// A pipe with no S2 behind it: replies, losses and misdeliveries are whatever the
    /// test scripted — no sockets, no threads, no sleeps.
    struct FakePipe(Arc<Mutex<Script>>);

    impl Pipe for FakePipe {
        fn kind(&self) -> TransportKind {
            TransportKind::Multiplex
        }
        fn exchange(&mut self, envelope: &Envelope) -> Result<Envelope> {
            let mut script = self.0.lock().unwrap();
            script.sent.push(envelope.clone());
            let next = script.replies.pop_front();
            next.unwrap_or_else(|| Err(ProtocolError::transport("script exhausted")))
        }
        fn disconnect(&mut self, envelope: &Envelope) {
            self.0.lock().unwrap().bye = Some(envelope.clone());
        }
    }

    fn scripted(script: Script) -> (EnvelopeTransport, Arc<Mutex<Script>>) {
        let script = Arc::new(Mutex::new(script));
        (EnvelopeTransport::new(SESSION, Box::new(FakePipe(Arc::clone(&script)))), script)
    }

    fn reply_from(session: SessionId, seq: u64, response: &S2Response) -> Result<Envelope> {
        Ok(Envelope { session, seq, frame: framed(frame::RESPONSE, response) })
    }

    fn reply(seq: u64, response: &S2Response) -> Result<Envelope> {
        reply_from(SESSION, seq, response)
    }

    fn request() -> S1Request {
        S1Request::Compare { blinded: Vec::new(), context: "test".into() }
    }

    /// The scripted answer to `request()`.
    fn answer() -> S2Response {
        S2Response::Signs(Vec::new())
    }

    #[test]
    fn replies_must_echo_the_session_and_sequence_number() {
        // A reply for another session, and a reply from the future, are both
        // permanent errors — never attributed to the request in flight.
        for wrong in [reply_from(SessionId(8), 1, &answer()), reply(2, &answer())] {
            let (mut transport, _) =
                scripted(Script { replies: [wrong].into(), ..Default::default() });
            let err = transport.round_trip(request()).unwrap_err();
            assert!(
                matches!(&err, ProtocolError::Transport(e) if e.message.contains("echo mismatch")),
                "unexpected error {err:?}"
            );
            assert!(!err.is_retryable());
        }
        // A reply that is not a response frame is refused as well.
        let stray = Ok(Envelope { session: SESSION, seq: 1, frame: vec![frame::RESET_DONE] });
        let (mut transport, _) = scripted(Script { replies: [stray].into(), ..Default::default() });
        assert!(transport.round_trip(request()).is_err());
    }

    #[test]
    fn error_frames_come_back_raw_with_their_traffic() {
        let error = S2Response::Error(WireError::malformed("scripted"));
        let (mut transport, _) =
            scripted(Script { replies: [reply(1, &error)].into(), ..Default::default() });
        let (response, traffic) = transport.round_trip(request()).unwrap();
        assert_eq!(response, error);
        assert_eq!(traffic, wire::measure(&request()) + wire::measure(&error));
    }

    #[test]
    fn control_plane_is_unmetered_and_teardown_follows_the_last_request() {
        let ledger = Envelope {
            session: SESSION,
            seq: 0,
            frame: framed(frame::LEDGER, &LeakageLedger::new()),
        };
        let (mut transport, script) = scripted(Script {
            replies: [reply(1, &answer()), Ok(ledger)].into(),
            ..Default::default()
        });
        let (_, traffic) = transport.round_trip(request()).unwrap();
        assert_eq!(traffic, wire::measure(&request()) + wire::measure(&answer()));
        assert!(transport.s2_ledger().is_empty());
        drop(transport);
        let script = script.lock().unwrap();
        assert_eq!(
            script.sent[1],
            Envelope { session: SESSION, seq: 0, frame: vec![frame::FETCH_LEDGER] }
        );
        assert_eq!(
            script.bye,
            Some(Envelope { session: SESSION, seq: 2, frame: vec![frame::DISCONNECT] })
        );
    }
}
