//! The two-cloud execution context.
//!
//! The paper's architecture (§3.2) has a primary cloud S1 (stores the encrypted relation,
//! holds only public keys) and a crypto cloud S2 (holds the Paillier secret key, stores
//! no data).  Both parties are semi-honest and non-colluding.
//!
//! A [`TwoClouds`] value holds S1's state directly and reaches S2 **only** through a
//! [`Transport`]: every S1 ↔ S2 exchange is a typed, serializable [`S1Request`] /
//! [`S2Response`] round trip, timed, traced and metered into the session's
//! [`ChannelMetrics`] in one place (`TwoClouds::round`), and reflected in the per-party
//! [`LeakageLedger`]s.  The transport is selected by [`TransportKind`] (or the
//! `SECTOPK_TRANSPORT` environment variable): the in-process direct call, or
//! serialized envelopes to an S2 session pool — over its in-memory conduit or over a
//! real loopback socket.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::chacha::ChaCha12Rng;
use sectopk_metrics::{Histogram, Registry as MetricsRegistry, TraceHook};

use crate::error::{ProtocolError, Result};
use sectopk_crypto::keys::{own_modulus_bits, MasterKeys, S1Keys};
use sectopk_crypto::paillier::{generate_keypair, PaillierPublicKey, PaillierSecretKey};
use sectopk_crypto::par::{cores, share};
use sectopk_crypto::pool::RandomnessPool;

use crate::channel::ChannelMetrics;
use crate::engine::{intra_workers_from_env, EngineProvision};
use crate::ledger::LeakageLedger;
use crate::multiplex::{LinkProfile, MultiplexServer, SessionId};
use crate::tcp::{TcpCloudServer, DEFAULT_PARK_TTL};
use crate::transport::{InProcessTransport, S1Request, S2Response, Transport, TransportKind};

/// The process-wide S2 pool behind [`TransportKind::Multiplex`] and
/// [`TransportKind::Tcp`] sessions that name no server of their own: one compute permit
/// per core, sessions with server-assigned ids.  Sessions share nothing but the permits.
fn loopback_pool() -> &'static Arc<MultiplexServer> {
    static POOL: OnceLock<Arc<MultiplexServer>> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        Arc::new(MultiplexServer::new(workers))
    })
}

/// The process-wide loopback listener (ephemeral port) in front of [`loopback_pool`].
fn loopback_listener() -> Result<&'static TcpCloudServer> {
    static LISTENER: OnceLock<std::io::Result<TcpCloudServer>> = OnceLock::new();
    LISTENER
        .get_or_init(|| {
            let pool = Arc::clone(loopback_pool());
            TcpCloudServer::serve_pool("127.0.0.1:0", pool, DEFAULT_PARK_TTL)
        })
        .as_ref()
        .map_err(|e| crate::ProtocolError::transport(format!("binding loopback S2: {e}")))
}

/// The one check behind every session door that still takes a `batching` flag
/// ([`TwoClouds::with_transport`], [`TwoClouds::connect`] and the doors built on them):
/// `false` is refused before any key is generated.  Every sub-protocol step ships as one
/// self-contained request; there is no one-message-per-pair pattern to fall back to.
pub fn require_batching(batching: bool) -> Result<()> {
    if batching {
        Ok(())
    } else {
        Err(ProtocolError::transport_rejected(
            "unbatched sessions are retired: every protocol step ships as one request",
        ))
    }
}

/// The named streams of a session seed, the one derivation of every party stream: stream
/// `id` of `seed` is seeded with `seed ^ id`.  S1's streams are of the session seed, S2's
/// of the engine seed S1 provisions (`S2Engine`).  S1's key pair is drawn from a `StdRng`,
/// like the owner's keys, so that its prime search (and the set-up time) did not move when
/// the parties' other streams, local and pool, became [`ChaCha12Rng`] keys.
#[derive(Clone, Copy, Debug)]
#[repr(u64)]
pub(crate) enum Stream {
    S1Keys = 0x5151_5151_5151_5151,
    S1Local = 0x5353_5353_5353_5353,
    S1Pool = 0x1001_1001_1001_1001,
    S1OwnPool = 0x4004_4004_4004_4004,
    S2Engine = 0x5252_5252_5252_5252,
    S2Local = 0,
    S2Pool = 0x2002_2002_2002_2002,
    S2OwnPool = 0x3003_3003_3003_3003,
}

impl Stream {
    /// The seed of this stream of `seed`.
    pub(crate) fn seed(self, seed: u64) -> u64 {
        seed ^ self as u64
    }
}

/// S1 sessions alive in this process: the divisor of S1's share of the machine.
static LIVE_S1_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// A [`TwoClouds`]'s place in [`LIVE_S1_SESSIONS`], held from construction to drop.
struct LiveSession;

impl LiveSession {
    fn join() -> Self {
        LIVE_S1_SESSIONS.fetch_add(1, Ordering::Relaxed);
        LiveSession
    }
}

impl Drop for LiveSession {
    fn drop(&mut self) {
        LIVE_S1_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// State held by the primary cloud S1 during protocol execution.
#[derive(Debug)]
pub struct S1State {
    /// Public key material shared by the data owner.
    pub keys: S1Keys,
    /// S1's *own* Paillier key pair, used only to transport blinding randomness through
    /// S2 in SecDedup / SecFilter (Algorithm 7 line 7, Algorithm 12 line 3).
    pub own_public: PaillierPublicKey,
    /// Secret half of S1's own key pair.
    pub own_secret: PaillierSecretKey,
    /// S1's local randomness.
    pub rng: ChaCha12Rng,
    /// S1's pool of precomputed encryption nonces for the *shared* Paillier key (every
    /// fresh-zero, candidate mask and re-randomization S1 produces draws from here
    /// instead of paying a full exponentiation inline).
    pub pool: RandomnessPool,
    /// Nonce pool for S1's *own* key pair `pk'` (the encrypted-blinding channel of
    /// SecDedup / SecFilter / SecJoin).
    pub own_pool: RandomnessPool,
    /// Everything S1 observed beyond its inputs.
    pub ledger: LeakageLedger,
    /// An exact worker count for S1's batched client loops and nonce refills (1 =
    /// serial; initially `SECTOPK_INTRA_PARALLEL`'s, if set).  `None`: the session's
    /// share of the machine, the cores divided among the live S1 sessions of the process
    /// ([`TwoClouds::intra_workers`]).  The local stream is drawn serially first and
    /// each pool nonce is read by its address, so protocol bytes never depend on the
    /// count.  [`TwoClouds::set_intra_workers`] is its one writer, so the nonce pools
    /// always refill on the count the loops use.
    pub(crate) intra_workers: Option<usize>,
}

/// The two non-colluding clouds: S1's state plus the metered transport to the S2 engine.
pub struct TwoClouds {
    /// The primary cloud S1.
    pub s1: S1State,
    /// The message channel to the crypto cloud S2 (which owns all S2 state).
    transport: Box<dyn Transport>,
    /// Every round's traffic since setup or the last [`TwoClouds::reset_accounting`].
    channel: ChannelMetrics,
    /// Per-round latency histogram (`session.{label}.round_nanos`); a no-op until
    /// [`TwoClouds::set_metrics`] installs a registry.  Observes wall-clock only —
    /// never protocol state — so ledgers and [`ChannelMetrics`] are unaffected.
    round_nanos: Histogram,
    /// Optional span hook notified at entry/exit of every protocol round.
    trace: Option<Arc<dyn TraceHook>>,
    /// Counts this session among the live S1 sessions while it exists.
    _live: LiveSession,
}

impl fmt::Debug for TwoClouds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoClouds")
            .field("s1", &self.s1)
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

impl TwoClouds {
    /// Set up the two clouds from the data owner's key bundle with the transport chosen
    /// by the `SECTOPK_TRANSPORT` environment variable (in-process by default).  `seed`
    /// makes every random choice of both parties reproducible.  A `SECTOPK_TRANSPORT`
    /// value that names no transport is an error.
    pub fn new(master: &MasterKeys, seed: u64) -> Result<Self> {
        Self::with_transport(master, seed, TransportKind::from_env()?, true)
    }

    /// Set up the two clouds with an explicit transport; `batching` must be `true`
    /// ([`require_batching`]).  [`TransportKind::Multiplex`] and [`TransportKind::Tcp`]
    /// join the process-wide loopback pool / listener; to serve sessions from a server
    /// of your own use [`TwoClouds::connect`] / [`TwoClouds::connect_tcp`].
    pub fn with_transport(
        master: &MasterKeys,
        seed: u64,
        kind: TransportKind,
        batching: bool,
    ) -> Result<Self> {
        require_batching(batching)?;
        Self::over_transport(master, seed, |provision| {
            Ok(match kind {
                TransportKind::InProcess => Box::new(InProcessTransport::new(provision.build())),
                TransportKind::Multiplex => Box::new(loopback_pool().connect(
                    SessionId(0),
                    provision.build(),
                    LinkProfile::ideal(),
                )?),
                TransportKind::Tcp => Box::new(crate::tcp::connect(
                    loopback_listener()?.local_addr(),
                    provision,
                    SessionId(0),
                )?),
            })
        })
    }

    /// Set up the two clouds as session `session` (`SessionId(0)`: the server assigns
    /// one) of a remote [`crate::tcp::TcpCloudServer`] at `addr` (e.g. a `sectopk-s2d`
    /// process): the S2 engine is provisioned over the connection handshake, and every
    /// protocol round trip crosses the real socket.  S1-side state derives from `seed`
    /// exactly as in [`TwoClouds::with_transport`], so a TCP run with seed *s* is
    /// byte-identical to an in-process run with seed *s*.
    pub fn connect_tcp(
        master: &MasterKeys,
        seed: u64,
        addr: &str,
        session: SessionId,
    ) -> Result<Self> {
        Self::over_transport(master, seed, |provision| {
            Ok(Box::new(crate::tcp::connect(addr, provision, session)?))
        })
    }

    /// Set up the two clouds as session `session` of a shared [`MultiplexServer`];
    /// `batching` must be `true` ([`require_batching`]).
    ///
    /// The S1-side state and the session's S2 engine are derived from `seed` exactly as
    /// in [`TwoClouds::with_transport`], so a session connected with seed *s* is
    /// byte-identical to an in-process run with seed *s* — the serving layer
    /// picks per-session seeds (e.g. [`sectopk_crypto::pool::shard_seed`]) to keep
    /// concurrent sessions deterministic and decorrelated.
    pub fn connect(
        master: &MasterKeys,
        seed: u64,
        batching: bool,
        server: &MultiplexServer,
        session: SessionId,
        link: LinkProfile,
    ) -> Result<Self> {
        require_batching(batching)?;
        Self::over_transport(master, seed, |provision| {
            Ok(Box::new(server.connect(session, provision.build(), link)?))
        })
    }

    /// The shared S1-side setup: every transport, over either pipe, derives
    /// S1's keys, RNG and nonce pools from `seed` through this one path, which is what
    /// makes protocol output byte-identical across transports for a fixed seed.
    ///
    /// Public as the door for a transport of the caller's making — `make_transport`
    /// receives S2's provisioning payload — e.g. a test that wraps an
    /// [`InProcessTransport`] to read what S2 replied.
    pub fn over_transport(
        master: &MasterKeys,
        seed: u64,
        make_transport: impl FnOnce(EngineProvision) -> Result<Box<dyn Transport>>,
    ) -> Result<Self> {
        // S1's own key pair is used to transport blinding randomness through S2 (SecDedup,
        // SecFilter); see `own_modulus_bits` for its size.
        let own_bits = own_modulus_bits(master.paillier_public.modulus_bits());
        let mut key_rng = StdRng::seed_from_u64(Stream::S1Keys.seed(seed));
        let (own_public, own_secret) = generate_keypair(own_bits, &mut key_rng)?;

        // S2 receives the owner's secret-key view and S1's published own public key; it
        // lives behind the transport from here on.  The provision is the serializable
        // form of that hand-over — local transports build the engine in place, the
        // socket pipe ships it over the connection handshake.
        let provision =
            EngineProvision::new(master.s2_view(), own_public.clone(), Stream::S2Engine.seed(seed));
        let transport = make_transport(provision)?;

        let s1_keys = master.s1_view();
        // S1's nonce pool serves the shared key pair; it owns its own deterministic
        // stream so the two clouds (and any replay with the same seed) stay reproducible.
        let pool = RandomnessPool::new(&s1_keys.paillier_public, Stream::S1Pool.seed(seed));
        let own_pool = RandomnessPool::new(&own_public, Stream::S1OwnPool.seed(seed));
        let mut clouds = TwoClouds {
            s1: S1State {
                keys: s1_keys,
                own_public,
                own_secret,
                rng: ChaCha12Rng::seed_from_u64(Stream::S1Local.seed(seed)),
                pool,
                own_pool,
                ledger: LeakageLedger::new(),
                intra_workers: intra_workers_from_env(),
            },
            transport,
            channel: ChannelMetrics::default(),
            round_nanos: Histogram::noop(),
            trace: None,
            _live: LiveSession::join(),
        };
        clouds.refresh_refill_workers();
        Ok(clouds)
    }

    /// Report this context's protocol rounds into `registry`: a per-round latency
    /// histogram (`session.{label}.round_nanos`) and the transport's own client-side
    /// handles (`tcp.client.*` on the TCP transport).  A disabled registry leaves every
    /// instrument a no-op; protocol bytes, ledgers and [`ChannelMetrics`] are
    /// unaffected either way.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry, label: &str) {
        self.round_nanos = registry.histogram(&format!("session.{label}.round_nanos"));
        self.transport.set_metrics_registry(registry);
    }

    /// Install a hook notified at entry and exit of every protocol round; the span
    /// name is the request's [`S1Request::kind_name`] (e.g. `"compare"`).  Hooks run
    /// on the query thread — keep them cheap.
    pub fn set_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.trace = Some(hook);
    }

    /// Transport faults absorbed without surfacing an error (reconnect-resume cycles);
    /// see [`Transport::faults_absorbed`].
    pub fn faults_absorbed(&self) -> u64 {
        self.transport.faults_absorbed()
    }

    /// Worker threads S1's batched client loops use right now: the exact count if one
    /// was set, else this session's share of the machine — the cores divided among the
    /// S1 sessions alive in this process.
    pub fn intra_workers(&self) -> usize {
        self.s1
            .intra_workers
            .unwrap_or_else(|| share(cores(), LIVE_S1_SESSIONS.load(Ordering::Relaxed)))
    }

    /// Set an exact S1-side intra-query worker count (minimum 1; 1 = fully serial),
    /// whatever else is alive — a test seam: every door leaves a party on its share of
    /// the machine, or on `SECTOPK_INTRA_PARALLEL`'s count when that is set.  The S2
    /// engine behind the transport has the other seam
    /// ([`crate::engine::S2Engine::set_intra_workers`]), set in the closure of
    /// [`TwoClouds::over_transport`].  Protocol bytes, ledgers and metrics are identical
    /// for every value.
    pub fn set_intra_workers(&mut self, workers: usize) {
        self.s1.intra_workers = Some(workers.max(1));
        self.refresh_refill_workers();
    }

    /// Let S1's lazy nonce refills use the current worker count.  Called at setup, on
    /// every explicit count and after every round, so a refill follows the share within
    /// one round of a neighbouring session coming or going.
    fn refresh_refill_workers(&mut self) {
        let workers = self.intra_workers();
        self.s1.pool.set_refill_workers(workers);
        self.s1.own_pool.set_refill_workers(workers);
    }

    /// The shared Paillier public key (every score and EHL block is encrypted under it).
    pub fn pk(&self) -> &PaillierPublicKey {
        &self.s1.keys.paillier_public
    }

    /// Which transport implementation carries the S1 ↔ S2 messages.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// Always `true`: every sub-protocol step ships as one request (round-trip
    /// batching), the only wire pattern there is.
    pub fn batching(&self) -> bool {
        true
    }

    /// The simulated inter-cloud link the transport runs over (ideal unless the
    /// session was connected to a pool with an RTT).  Feeds the adaptive query
    /// planner's §11 cost model.
    pub fn link_profile(&self) -> LinkProfile {
        self.transport.link()
    }

    /// Communication statistics accumulated so far: every round, metered as its reply
    /// arrived.
    pub fn channel(&self) -> ChannelMetrics {
        self.channel
    }

    /// S1's leakage ledger.
    pub fn s1_ledger(&self) -> &LeakageLedger {
        &self.s1.ledger
    }

    /// A snapshot of S2's leakage ledger, fetched through the transport's control plane.
    pub fn s2_ledger(&self) -> LeakageLedger {
        self.transport.s2_ledger()
    }

    /// Reset the channel metrics and both ledgers (e.g. between queries).
    pub fn reset_accounting(&mut self) {
        self.channel = ChannelMetrics::default();
        self.transport.reset_s2();
        self.s1.ledger.clear();
    }

    /// Ship one request to S2 and return its response: one round trip, timed into the
    /// round-latency histogram, bracketed by the trace hook and metered into
    /// [`TwoClouds::channel`] once its reply has arrived — an error frame included, which
    /// surfaces as [`ProtocolError::Remote`].  An exchange that fails inside the transport
    /// meters nothing.
    pub(crate) fn round(&mut self, request: S1Request) -> Result<S2Response> {
        let span = request.kind_name();
        if let Some(trace) = &self.trace {
            trace.enter(span);
        }
        let timer = self.round_nanos.start();
        let result = self.transport.round_trip(request);
        self.round_nanos.stop(timer);
        if let Ok((_, traffic)) = &result {
            self.channel.rounds += 1;
            self.channel.bytes += traffic.bytes;
            self.channel.ciphertexts += traffic.ciphertexts;
        }
        self.refresh_refill_workers();
        if let Some(trace) = &self.trace {
            trace.exit(span);
        }
        match result? {
            (S2Response::Error(e), _) => Err(ProtocolError::Remote(e)),
            (response, _) => Ok(response),
        }
    }

    /// Ship one *raw* request to S2 — the escape hatch the conformance and
    /// failure-injection suites use to exercise the engine's typed error frames.
    /// Regular callers speak through the sub-protocol methods, never this.
    pub fn raw_round_trip(&mut self, request: S1Request) -> Result<S2Response> {
        self.round(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;

    #[test]
    fn setup_shares_the_owner_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 7).unwrap();
        assert_eq!(clouds.pk().n(), master.paillier_public.n());
        // S1's own key pair must be a *different* modulus.
        assert_ne!(clouds.s1.own_public.n(), master.paillier_public.n());
        assert_eq!(clouds.channel(), ChannelMetrics::default());
        assert!(clouds.s1_ledger().is_empty());
        assert!(clouds.s2_ledger().is_empty());
        assert!(clouds.batching());
    }

    #[test]
    fn accounting_and_reset() {
        let mut rng = StdRng::seed_from_u64(2);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 3).unwrap();
        let a = clouds.pk().clone().encrypt_u64(1, &mut clouds.s1.rng).unwrap();
        let b = clouds.pk().clone().encrypt_u64(2, &mut clouds.s1.rng).unwrap();
        let _ = clouds.enc_compare(&a, &b, "test").unwrap();
        assert!(clouds.channel().bytes > 0);
        assert_eq!(clouds.channel().rounds, 1);
        assert!(!clouds.s2_ledger().is_empty());
        clouds.reset_accounting();
        assert_eq!(clouds.channel(), ChannelMetrics::default());
        assert!(clouds.s1_ledger().is_empty());
        assert!(clouds.s2_ledger().is_empty());
    }

    #[test]
    fn a_round_is_metered_once_when_its_reply_arrives() {
        let mut rng = StdRng::seed_from_u64(5);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let server = MultiplexServer::new(1);
        let mut clouds =
            TwoClouds::connect(&master, 5, true, &server, SessionId(1), LinkProfile::ideal())
                .unwrap();
        // An error frame is a reply: metered like any other, then surfaced as `Remote`.
        let malformed = S1Request::Batch(vec![S1Request::Batch(Vec::new())]);
        let err = clouds.raw_round_trip(malformed.clone()).unwrap_err();
        let ProtocolError::Remote(wire_error) = err else { panic!("expected Remote, got {err:?}") };
        let traffic = wire::measure(&malformed) + wire::measure(&S2Response::Error(wire_error));
        let after_error = clouds.channel();
        assert_eq!(
            after_error,
            ChannelMetrics { rounds: 1, bytes: traffic.bytes, ciphertexts: traffic.ciphertexts }
        );
        // An exchange that fails inside the transport meters nothing.
        drop(server);
        let x = clouds.pk().clone().encrypt_u64(1, &mut clouds.s1.rng).unwrap();
        let y = clouds.pk().clone().encrypt_u64(2, &mut clouds.s1.rng).unwrap();
        let err = clouds.enc_compare(&x, &y, "test").unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)), "unexpected error {err:?}");
        assert_eq!(clouds.channel(), after_error, "a failed exchange must leave the meter alone");
    }

    #[test]
    fn same_seed_gives_reproducible_randomness() {
        let mut rng = StdRng::seed_from_u64(3);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut a = TwoClouds::new(&master, 42).unwrap();
        let mut b = TwoClouds::new(&master, 42).unwrap();
        let pk = a.pk().clone();
        let ca = pk.encrypt_u64(5, &mut a.s1.rng).unwrap();
        let cb = pk.encrypt_u64(5, &mut b.s1.rng).unwrap();
        assert_eq!(ca, cb);
    }

    #[test]
    fn explicit_transport_selection() {
        let mut rng = StdRng::seed_from_u64(4);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let a = TwoClouds::with_transport(&master, 1, TransportKind::InProcess, true).unwrap();
        assert_eq!(a.transport_kind(), TransportKind::InProcess);
        let b = TwoClouds::with_transport(&master, 1, TransportKind::Multiplex, true).unwrap();
        assert_eq!(b.transport_kind(), TransportKind::Multiplex);
        // Multiplex and Tcp sessions are self-contained: they join the process-wide
        // loopback pool / listener, and each session's S2 state is its own.
        let mut c = TwoClouds::with_transport(&master, 1, TransportKind::Tcp, true).unwrap();
        assert_eq!(c.transport_kind(), TransportKind::Tcp);
        let x = c.pk().clone().encrypt_u64(1, &mut c.s1.rng).unwrap();
        let y = c.pk().clone().encrypt_u64(2, &mut c.s1.rng).unwrap();
        c.enc_compare(&x, &y, "test").unwrap();
        assert_eq!(c.channel().rounds, 1);
        assert!(!c.s2_ledger().is_empty());
        assert!(b.s2_ledger().is_empty(), "a neighbour on the same pool saw nothing");
    }
}
