//! # sectopk-protocols
//!
//! The two-cloud secure sub-protocols of the SecTopK construction (§8 of *"Top-k Query
//! Processing on Encrypted Databases with Strong Security Guarantees"*): the primary
//! cloud S1 holds the encrypted relation and only public keys, the crypto cloud S2 holds
//! the decryption keys and no data, and every computation on plaintext-sensitive values
//! happens through the message exchanges implemented here.
//!
//! * [`context::TwoClouds`] — S1's state plus the metered [`transport::Transport`] to
//!   the S2 engine, with the [`channel::ChannelMetrics`] accounting and the per-party
//!   [`ledger::LeakageLedger`].
//! * [`transport`] — the typed [`transport::S1Request`] / [`transport::S2Response`]
//!   message layer, round-trip batching, and the two [`transport::Transport`]
//!   implementations: the in-process direct call and the envelope client.
//! * [`multiplex`] — session-multiplexed serving: one S2 session table and compute
//!   budget answering many concurrent S1 sessions over session-tagged envelopes — each
//!   request on the thread that brought it — with per-session ledgers, metrics and
//!   deterministic nonce-pool shards.
//! * [`tcp`] — the real-socket deployment: the same envelopes length-prefix-framed over
//!   TCP, with a connection handshake that provisions the session's engine, and the
//!   listener ([`tcp::TcpCloudServer`]) seating connections in the multiplex pool.
//! * [`engine`] — the crypto cloud S2 as a request-processing engine (all S2-side
//!   protocol logic, keys and randomness).
//! * [`wire`] — the binary codec every message is measured (and, on the envelope
//!   transport, actually shipped) in.
//! * [`primitives`] — the equality round with the masked selections S2 makes inside it,
//!   and the `EncCompare` realisation.
//! * [`sort`] — `EncSort` as one comparison network with a dial: blocks ranked by
//!   counting, Batcher merges above them, the block size picked by [`sort::sort_plan`].
//! * [`worst`] / [`best`] — `SecWorst` (Algorithm 4) and `SecBest` (Algorithm 6), and
//!   [`bounds`] — the plan / finish halves both share, so a depth pays for them once.
//! * [`dedup`] — `SecDedup` (Algorithm 7) and the optimized `SecDupElim` (§10.1).
//! * [`update`] — `SecUpdate` (Algorithm 9) in keep-length (`Qry_F`) and eliminate
//!   (`Qry_E`) variants.
//! * [`join`] — `SecJoin` and `SecFilter` (Algorithms 11 and 12) for top-k joins (§12).
//!
//! All of these are usable as stand-alone building blocks, as the paper points out.
//!
//! # Observability
//!
//! The serving path reports into a [`sectopk_metrics::Registry`] when one is
//! installed: the engine counts requests by kind and times its compute
//! (`engine.*`), the multiplex pool counts replays/attachments and times how long
//! each compute permit is held (`pool.*`), the TCP client and listener count
//! reconnects, rejects, resumes, parks and reaps (`tcp.client.*` /
//! `tcp.server.*`), and [`context::TwoClouds::set_metrics`] adds per-session
//! round-latency histograms (`session.*`).  Instrumentation is strictly
//! observational: a disabled registry makes every handle a no-op, and enabled or
//! not, protocol bytes, [`ledger::LeakageLedger`]s and
//! [`channel::ChannelMetrics`] are byte-identical (asserted by
//! `tests/metrics_invariance.rs`).  [`sectopk_metrics::TraceHook`] offers span
//! enter/exit callbacks per protocol round via
//! [`context::TwoClouds::set_trace_hook`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod best;
pub mod bounds;
pub mod channel;
pub mod context;
pub mod dedup;
pub mod engine;
pub mod error;
pub mod items;
pub mod join;
pub mod ledger;
pub mod multiplex;
mod plock;
pub mod primitives;
pub mod sort;
#[deny(missing_docs)]
pub mod tcp;
pub mod transport;
pub mod update;
pub mod wire;
pub mod worst;

pub use channel::ChannelMetrics;
pub use context::{S1State, TwoClouds};
pub use dedup::EncryptedBlinding;
pub use engine::{intra_workers_from_env, EngineProvision, EngineResult, S2Engine};
pub use error::{ProtocolError, Result, TransportError, TransportErrorKind};
pub use items::{rand_blind, rand_unblind, rerandomize_item_pooled, ItemBlinding, ScoredItem};
pub use join::{EncryptedTuple, JoinSpec, JoinedTuple};
pub use ledger::{LeakageEvent, LeakageLedger};
pub use multiplex::{Envelope, LinkProfile, MultiplexServer, PoolLimits, SessionId};
pub use tcp::{TcpCloudServer, DEFAULT_PARK_TTL, MAX_FRAME_LEN, TCP_PROTOCOL_VERSION};
pub use transport::{
    EnvelopeTransport, InProcessTransport, S1Request, S2Response, Transport, TransportKind,
    TRANSPORT_ENV,
};
pub use update::UpdateMode;
pub use wire::{Traffic, WireError, WireErrorCode};
