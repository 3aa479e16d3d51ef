//! Failure injection over the real TCP transport.
//!
//! The in-process transports can only fail by construction (a worker panicking); a
//! socket can die under a live query.  A socket session always tries to resume, so
//! these tests sever connections server-side with [`TcpCloudServer::drop_session`] on a
//! listener that parks nothing, and assert the contract of a session that cannot be
//! resumed from both ends:
//!
//! * the client surfaces a typed [`ProtocolError::Transport`] — the refused resume — no
//!   panic, and no partial result escapes (`Session::execute` returns `Err`, never a
//!   truncated `ResolvedTopK`);
//! * the server reaps the dead session from the shared `MultiplexServer` pool (its id
//!   becomes connectable again) and keeps serving clean neighbours **byte-identically**
//!   to a run where the victim never existed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, Outsourced, Query, QueryVariant, Session, TcpOptions, TransportKind, VariantChoice,
};
use sectopk_protocols::{MultiplexServer, ProtocolError, SessionId, TcpCloudServer, WireErrorCode};
use sectopk_storage::{ObjectId, Relation, Row};
use sectopk_tests::{malformed_request, TEST_EHL_KEYS, TEST_MODULUS_BITS};

/// The worked example every suite shares (transport_equivalence uses the same rows).
fn fixed_relation() -> Relation {
    Relation::new(
        vec!["r1".into(), "r2".into(), "r3".into()],
        vec![
            Row { id: ObjectId(1), values: vec![10, 3, 2] },
            Row { id: ObjectId(2), values: vec![8, 8, 0] },
            Row { id: ObjectId(3), values: vec![5, 7, 6] },
            Row { id: ObjectId(4), values: vec![3, 2, 8] },
            Row { id: ObjectId(5), values: vec![1, 1, 1] },
        ],
    )
}

fn fixture(seed: u64) -> (DataOwner, Outsourced) {
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&fixed_relation(), &mut rng).expect("encryption");
    (owner, outsourced)
}

fn bind_server(workers: usize) -> TcpCloudServer {
    // `park_ttl` zero: a severed session is reaped immediately rather than parked, so
    // the client's resume is refused — `tests/tcp_resume.rs` covers the parking path.
    TcpCloudServer::serve_pool(
        "127.0.0.1:0",
        Arc::new(MultiplexServer::new(workers)),
        Duration::ZERO,
    )
    .expect("bind ephemeral loopback listener")
}

fn fixed_query() -> Query {
    Query::top_k(2)
        .attribute_indices([0, 1, 2])
        .variant(VariantChoice::Fixed(QueryVariant::Full))
        .build()
        .expect("query builds")
}

/// Wait until `cond` holds, failing the test after a generous deadline.  Reaping is
/// asynchronous (the bridge thread observes the severed socket on its next read), so
/// assertions about server-side state must poll.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn socket_drop_surfaces_transport_error_and_session_is_reaped() {
    let server = bind_server(2);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0xDEAD_0001);
    let victim_id = SessionId(77);

    let mut victim = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            0xBEEF,
            TcpOptions::default().with_session(victim_id),
        )
        .expect("victim connects with an explicit session id");

    // Round 1 proves the wire is live before the injection: a malformed matrix travels
    // to S2 and comes back as a *remote* typed error frame, not a dead socket.
    let malformed = malformed_request(victim.clouds_mut());
    let err = victim.clouds_mut().raw_round_trip(malformed.clone()).expect_err("must fail");
    assert!(
        matches!(&err, ProtocolError::Remote(e) if e.code == WireErrorCode::MalformedRequest),
        "expected a remote frame, got {err:?}"
    );

    // Injection: sever the victim's socket server-side, mid-session.
    assert!(server.drop_session(victim_id), "the victim's connection is registered");

    // Round 2 dies on the wire.  The failure is the *typed* transport error — the
    // client neither panics nor fabricates an S2 response.
    let err = victim
        .clouds_mut()
        .raw_round_trip(malformed)
        .expect_err("round trip over a severed socket must fail");
    assert!(matches!(err, ProtocolError::Transport(_)), "expected Transport, got {err:?}");

    // A full query through the Session front door fails the same way: `Err`, so no
    // partial `ResolvedTopK` can escape, and the error chains back to the transport.
    let err = victim.execute(&fixed_query()).expect_err("query over a dead socket must fail");
    assert!(
        matches!(&err, sectopk_core::SecTopKError::Protocol(ProtocolError::Transport(_))),
        "expected a wrapped transport error, got {err:?}"
    );

    // The server reaps the carcass: the bridge thread deregisters the connection and
    // frees the pool slot, so the *same explicit id* becomes connectable again.  (A
    // live id is rejected at the handshake, so a successful reconnect is proof.)
    eventually("victim connection deregistered", || server.active_sessions() == 0);
    let mut revenant = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            0xBEEF,
            TcpOptions::default().with_session(victim_id),
        )
        .expect("the reaped session id is free for reuse");
    let resolved = revenant.execute(&fixed_query()).expect("reused id serves a full query");
    assert_eq!(resolved.results.len(), 2);
}

#[test]
fn clean_neighbour_is_byte_identical_despite_a_dying_peer() {
    let server = bind_server(2);
    let addr = server.local_addr().to_string();
    let (owner, outsourced) = fixture(0xDEAD_0002);
    let query = fixed_query();

    // Reference: the same seeds through the in-process transport, no TCP anywhere.
    let mut reference = owner
        .connect_with(&outsourced, 0xF00D, TransportKind::InProcess, true)
        .expect("in-process reference session");
    let expected = reference.execute(&query).expect("reference query");

    // A victim and a clean neighbour share the listener.  The victim dies mid-session;
    // the neighbour then runs the full query and must match the reference bit for bit.
    let mut victim = owner
        .connect_remote_with(
            &outsourced,
            &addr,
            0xABAD,
            TcpOptions::default().with_session(SessionId(13)),
        )
        .expect("victim connects");
    let mut neighbour =
        owner.connect_remote(&outsourced, &addr, 0xF00D).expect("neighbour connects");

    assert!(server.drop_session(SessionId(13)), "sever the victim");
    let request = malformed_request(victim.clouds_mut());
    let err = victim.clouds_mut().raw_round_trip(request).expect_err("victim is dead");
    assert!(matches!(err, ProtocolError::Transport(_)), "expected Transport, got {err:?}");
    eventually("victim reaped, neighbour still connected", || server.active_sessions() == 1);

    let resolved = neighbour.execute(&query).expect("neighbour query survives the dying peer");

    // Byte identity end to end: same resolved objects and bounds, same channel
    // accounting, same leakage ledgers on both clouds.
    assert_eq!(resolved.results, expected.results, "resolved top-k diverged");
    assert_eq!(
        resolved.outcome.top_k, expected.outcome.top_k,
        "encrypted result ciphertexts diverged"
    );
    assert_eq!(neighbour.metrics(), reference.metrics(), "channel metrics diverged");
    assert_eq!(
        neighbour.s1_ledger().events(),
        reference.s1_ledger().events(),
        "S1 ledgers diverged"
    );
    assert_eq!(
        neighbour.s2_ledger().events(),
        reference.s2_ledger().events(),
        "S2 ledgers diverged"
    );
}
