//! A `MultiplexServer` owns no thread: requests run on the thread that brought them.
//! Alone in its test binary, because a process-wide thread count means nothing next to
//! tests running in parallel.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
use sectopk_protocols::{LinkProfile, MultiplexServer, S1Request, S2Engine, SessionId, Transport};

/// The `Threads:` line of `/proc/self/status`; `None` where there is no procfs.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

#[test]
fn constructing_serving_and_dropping_a_server_leaves_the_thread_count_unchanged() {
    let Some(before) = process_threads() else { return };
    let mut rng = StdRng::seed_from_u64(0x7EAD);
    let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let (own_pk, _) = generate_keypair(MIN_MODULUS_BITS, &mut rng).expect("own keygen");

    let server = MultiplexServer::new(4);
    assert_eq!(process_threads(), Some(before), "a server must not spawn threads");

    let engine = S2Engine::new(master.s2_view(), own_pk, 1);
    let mut session = server.connect(SessionId(1), engine, LinkProfile::ideal()).expect("seat");
    let blinded = vec![master.paillier_public.encrypt_i64(-3, &mut rng).expect("encrypt")];
    session.round_trip(S1Request::Compare { blinded, context: "test".into() }).expect("round");
    assert_eq!(session.s2_ledger().len(), 1, "the request ran");
    assert_eq!(process_threads(), Some(before), "a request runs on its caller's thread");

    drop(session);
    drop(server);
    assert_eq!(process_threads(), Some(before));
}
