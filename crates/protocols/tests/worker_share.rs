//! A party given no explicit worker count uses its share of the machine: S1 the cores
//! divided among the live S1 sessions of the process, an S2 engine those divided among
//! the sessions its pool may compute for at once.  Alone in its test binary, because
//! the count of live S1 sessions is process-wide and tests running beside this one
//! would move it.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::MIN_MODULUS_BITS;
use sectopk_crypto::par::{cores, share};
use sectopk_protocols::{
    intra_workers_from_env, SessionId, TcpCloudServer, TransportKind, TwoClouds,
};

fn wait_for(mut condition: impl FnMut() -> bool) {
    for _ in 0..1000 {
        if condition() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("condition not reached within 5 s");
}

#[test]
fn each_party_uses_its_share_of_the_machine_unless_told_otherwise() {
    let cores = cores();
    // `SECTOPK_INTRA_PARALLEL` is an exact override for every session built here.
    let s1_share = |live: usize| intra_workers_from_env().unwrap_or(share(cores, live));
    let mut rng = StdRng::seed_from_u64(0x5A7E);
    let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let open = |seed| {
        TwoClouds::with_transport(&master, seed, TransportKind::InProcess, true).expect("setup")
    };

    let mut lone = open(1);
    assert_eq!(lone.intra_workers(), s1_share(1), "a lone session uses every core");
    let second = open(2);
    assert_eq!(lone.intra_workers(), s1_share(2));
    assert_eq!(second.intra_workers(), s1_share(2));
    drop(second);
    assert_eq!(lone.intra_workers(), s1_share(1), "dropping a session restores the share");

    // S2: two connected sessions on a four-permit listener halve the cores; a session
    // whose connection died is parked, sends nothing, and stops counting.
    let server = TcpCloudServer::bind("127.0.0.1:0", 4).expect("bind");
    let addr = server.local_addr().to_string();
    let connect = |seed, session| {
        TwoClouds::connect_tcp(&master, seed, &addr, SessionId(session)).expect("connect")
    };
    let staying = connect(3, 31);
    let leaving = connect(4, 32);
    assert_eq!(server.pool().intra_workers(), share(cores, 2));
    assert!(server.drop_session(SessionId(32)));
    wait_for(|| server.parked_sessions() == 1);
    assert_eq!(server.pool().intra_workers(), cores, "a parked session does not count");
    // Its S1 half is still alive in this process, and still counts.
    assert_eq!(lone.intra_workers(), s1_share(3));

    lone.set_intra_workers(3);
    assert_eq!(lone.intra_workers(), 3, "an explicit count is exact, whatever else is alive");
    assert_eq!(staying.intra_workers(), s1_share(3));
    drop((staying, leaving));
    assert_eq!(lone.intra_workers(), 3);
}
