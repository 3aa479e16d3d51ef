//! Shared helpers for the cross-crate integration tests.
//!
//! Every end-to-end test follows the same pattern: a data owner outsources a small
//! relation, a [`Session`] executes queries built with the `QueryBuilder` front door,
//! and the resolved object ids are checked to form a *valid* top-k set (same score
//! multiset as the exact plaintext answer — NRA only guarantees set validity, not a
//! particular tie-break order).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, DirectSession, Outsourced, Query, QueryConfig, QueryOutcome, Session, VariantChoice,
};
use sectopk_protocols::{Envelope, S1Request, SessionId, TwoClouds};
use sectopk_server::SessionReport;
use sectopk_storage::{ObjectId, Relation, Score, TopKQuery};

/// Paillier modulus size used by the integration tests (small = fast; the protocols are
/// parameterised over it, see DESIGN.md).
pub const TEST_MODULUS_BITS: usize = 128;

/// Number of EHL PRF keys used by the integration tests.
pub const TEST_EHL_KEYS: usize = 3;

/// A request S2 answers with a typed `MalformedRequest` frame before it has any effect:
/// an equality matrix of two columns whose last row is partial.
pub fn malformed_request(clouds: &mut TwoClouds) -> S1Request {
    let zero = clouds.fresh_zero().expect("encrypt a zero");
    S1Request::EqMatrix {
        diffs: vec![zero; 3],
        cols: 2,
        context: "test".into(),
        depth: None,
        sets: Vec::new(),
        select: Vec::new(),
        disclose_rows: false,
    }
}

/// Everything a test needs to run secure queries against one relation.
pub struct Harness {
    /// The data owner (key holder).
    pub owner: DataOwner,
    /// The plaintext relation (kept for oracle comparisons).
    pub relation: Relation,
    /// The outsourced encrypted relation plus its resolution universe.
    pub outsourced: Outsourced,
    /// The session executing queries (a dedicated two-cloud deployment).
    pub session: DirectSession,
    /// Test-local randomness.
    pub rng: StdRng,
}

/// Build a harness around `relation`.
pub fn harness(relation: Relation, seed: u64) -> Harness {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng)
        .expect("key generation succeeds");
    let (outsourced, _) =
        owner.outsource(&relation, &mut rng).expect("relation encryption succeeds");
    let session = owner.connect(&outsourced, seed ^ 0xABCD).expect("cloud setup succeeds");
    Harness { owner, relation, outsourced, session, rng }
}

/// Run a secure query end to end through the `Session` front door and return the
/// resolved object ids (plus the outcome).  The legacy `(TopKQuery, QueryConfig)` shape
/// is kept so the suites can keep sweeping explicit variants.
pub fn run_query(
    h: &mut Harness,
    query: &TopKQuery,
    config: &QueryConfig,
) -> (Vec<ObjectId>, QueryOutcome) {
    h.session.reset_accounting();
    let mut built =
        Query::from_spec(query.clone()).with_variant(VariantChoice::Fixed(config.variant));
    if let Some(depths) = config.max_depth {
        built = built.with_max_depth(depths);
    }
    let resolved = h.session.execute(&built).expect("secure query succeeds");
    (resolved.object_ids(), resolved.outcome)
}

/// Run a builder-described query as-is (e.g. with `variant(Auto)`) and return the full
/// resolved answer.
pub fn run_built_query(h: &mut Harness, query: &Query) -> sectopk_core::ResolvedTopK {
    h.session.reset_accounting();
    h.session.execute(query).expect("secure query succeeds")
}

/// Assert that `returned` is a valid top-k answer for the query: it must contain `k`
/// distinct objects whose exact aggregate scores form the same multiset as the exact
/// plaintext top-k (ties may be broken differently by the secure protocol).
pub fn assert_valid_top_k(
    relation: &Relation,
    attributes: &[usize],
    weights: &[Score],
    k: usize,
    returned: &[ObjectId],
    context: &str,
) {
    let expected = relation.plaintext_top_k(attributes, weights, k);
    assert_eq!(
        returned.len(),
        expected.len(),
        "{context}: expected {} results, got {:?}",
        expected.len(),
        returned
    );
    let mut seen = std::collections::HashSet::new();
    for id in returned {
        assert!(seen.insert(*id), "{context}: object {id} returned twice");
    }
    let mut returned_scores: Vec<u128> = returned
        .iter()
        .map(|&id| {
            relation
                .aggregate_score(id, attributes, weights)
                .unwrap_or_else(|| panic!("{context}: unknown object {id} in result"))
        })
        .collect();
    let mut expected_scores: Vec<u128> = expected.iter().map(|(_, s)| *s).collect();
    returned_scores.sort_unstable();
    expected_scores.sort_unstable();
    assert_eq!(
        returned_scores, expected_scores,
        "{context}: returned objects {returned:?} do not form a valid top-{k} set"
    );
}

/// The one definition of "byte-identical" for two per-session serving reports:
/// everything deterministic must agree (wall-clock is excluded, and so is the
/// absorbed-fault count, which legitimately differs between a faulted run and its
/// fault-free baseline).
pub fn assert_sessions_identical(a: &SessionReport, b: &SessionReport, context: &str) {
    assert_eq!(a.session, b.session, "{context}: session ids diverge");
    assert_eq!(a.seed, b.seed, "{context}: session seeds diverge");
    assert_eq!(a.failures, b.failures, "{context}: failure lists diverge");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{context}: query counts diverge");
    for (i, (x, y)) in a.outcomes.iter().zip(b.outcomes.iter()).enumerate() {
        // ScoredItem equality is group-element equality: byte-identical ciphertexts.
        assert_eq!(x.top_k, y.top_k, "{context}: query {i} ciphertexts diverge");
        assert_eq!(
            x.stats.depths_scanned, y.stats.depths_scanned,
            "{context}: query {i} scan depths diverge"
        );
        assert_eq!(x.stats.halted, y.stats.halted, "{context}: query {i} halting diverges");
        assert_eq!(x.stats.plan, y.stats.plan, "{context}: query {i} planner decisions diverge");
    }
    assert_eq!(a.metrics, b.metrics, "{context}: channel metrics diverge");
    assert_eq!(a.s1_ledger.events(), b.s1_ledger.events(), "{context}: S1 ledgers diverge");
    assert_eq!(a.s2_ledger.events(), b.s2_ledger.events(), "{context}: S2 ledgers diverge");
}

/// Open a session on `outsourced` as session `id` of the S2 listener at `addr`: what
/// `DataOwner::connect_remote` does, with an id of the caller's instead of one the
/// server assigns.
pub fn connect_remote_as(
    owner: &DataOwner,
    outsourced: &Outsourced,
    addr: &str,
    seed: u64,
    id: SessionId,
) -> sectopk_core::Result<DirectSession> {
    let clouds = TwoClouds::connect_tcp(owner.keys(), seed, addr, id)?;
    Ok(DirectSession::new(clouds, outsourced.clone(), owner.keys().clone(), seed))
}

/// The faults a [`Relay`] injects, each on every Nth *logical frame* of a session (see
/// [`Relay`]); 0 disables that fault.
#[derive(Clone, Copy, Debug, Default)]
pub struct Faults {
    /// Shut the connection down without forwarding the frame: the request is lost, and
    /// the client's re-send executes it once.
    pub drop_before_every: u64,
    /// Forward the frame, read its reply and discard it, then shut the connection down:
    /// the reply is lost, and the re-send is answered from S2's replay cache.
    pub drop_after_every: u64,
    /// Forward the frame and sleep [`Faults::delay`] before passing the reply on.
    pub delay_every: u64,
    /// The stall of [`Faults::delay_every`].
    pub delay: Duration,
}

/// Frame tag of a protocol request, the first byte of an envelope's frame.
const REQUEST_TAG: u8 = 0;

/// Length of an envelope's header (session id, sequence number) plus its tag byte.
const ENVELOPE_PREFIX: usize = 17;

/// Per session: the highest sequence number the relay has seen, and the logical frames
/// it has counted.
type Sessions = Mutex<HashMap<SessionId, (u64, u64)>>;

/// A relayed connection's thread, with its two sockets to shut down on drop.
type Connection = (JoinHandle<()>, [TcpStream; 2]);

/// A loopback relay between socket clients and a `TcpCloudServer`, injecting
/// [`Faults`] on the wire: one thread per accepted connection, in strict
/// request/reply order.  The first frame each way (the hello and its reply) passes
/// untouched.  A later client frame is a session's *logical frame* when it is a request
/// (tag 0) with a sequence number that is non-zero and above the highest the relay has
/// seen for that session — so re-sends, disconnects, ledger fetches and resets are
/// never counted and never faulted.  The Nth logical frame (N from 1, counted across
/// all of the session's connections) is checked against `drop_before_every`, then
/// `drop_after_every`, then `delay_every`.  Dropping the relay stops it and joins its
/// threads.
pub struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl Relay {
    /// Listen on an ephemeral loopback port and relay every connection to `upstream`.
    pub fn start(upstream: SocketAddr, faults: Faults) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the relay");
        let addr = listener.local_addr().expect("relay address");
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::new()));
        let sessions = Arc::new(Sessions::default());
        let accept = {
            let (stop, connections) = (Arc::clone(&stop), Arc::clone(&connections));
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    // A failed dial drops the client, which dials again on its schedule.
                    let (Ok(client), Ok(server)) = (client, TcpStream::connect(upstream)) else {
                        continue;
                    };
                    let sockets = [client.try_clone(), server.try_clone()]
                        .map(|socket| socket.expect("clone a relayed socket"));
                    let sessions = Arc::clone(&sessions);
                    let handle =
                        std::thread::spawn(move || relay(&client, &server, faults, &sessions));
                    connections.lock().unwrap().push((handle, sockets));
                }
            })
        };
        Relay { addr, stop, accept: Some(accept), connections }
    }

    /// The address clients dial instead of the listener's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wakes the accept loop
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for (handle, sockets) in std::mem::take(&mut *self.connections.lock().unwrap()) {
            sockets.iter().for_each(|socket| drop(socket.shutdown(Shutdown::Both)));
            let _ = handle.join();
        }
    }
}

/// Relay one connection until either side ends it, faulting its logical frames.
fn relay(client: &TcpStream, server: &TcpStream, faults: Faults, sessions: &Sessions) {
    let _ = relay_frames(client, server, faults, sessions);
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

fn relay_frames(
    client: &TcpStream,
    server: &TcpStream,
    faults: Faults,
    sessions: &Sessions,
) -> Option<()> {
    write_frame(server, &read_frame(client)?)?;
    write_frame(client, &read_frame(server)?)?;
    loop {
        let request = read_frame(client)?;
        let nth = logical_frame(&request, sessions);
        let due = |every: u64| every > 0 && nth.is_some_and(|n| n % every == 0);
        if due(faults.drop_before_every) {
            return None;
        }
        write_frame(server, &request)?;
        let reply = read_frame(server)?;
        if due(faults.drop_after_every) {
            return None;
        }
        if due(faults.delay_every) {
            std::thread::sleep(faults.delay);
        }
        write_frame(client, &reply)?;
    }
}

/// The number of `request` among its session's logical frames, if it is one.
fn logical_frame(request: &[u8], sessions: &Sessions) -> Option<u64> {
    let head = Envelope::decode(&request[..request.len().min(ENVELOPE_PREFIX)]).ok()?;
    if head.frame.first() != Some(&REQUEST_TAG) || head.seq == 0 {
        return None;
    }
    let mut sessions = sessions.lock().unwrap();
    let (highest, counted) = sessions.entry(head.session).or_default();
    if head.seq <= *highest {
        return None;
    }
    *highest = head.seq;
    *counted += 1;
    Some(*counted)
}

/// Read one `u32 LE length ‖ bytes` frame, as the socket transport writes them.
fn read_frame(mut from: &TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    from.read_exact(&mut len).ok()?;
    let mut bytes = vec![0; u32::from_le_bytes(len) as usize];
    from.read_exact(&mut bytes).ok()?;
    Some(bytes)
}

fn write_frame(mut to: &TcpStream, bytes: &[u8]) -> Option<()> {
    let len = u32::try_from(bytes.len()).ok()?.to_le_bytes();
    to.write_all(&[&len[..], bytes].concat()).ok()
}
