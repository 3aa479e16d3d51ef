//! Nonce pools own no thread: what they make ahead of need runs on `par_map`'s helpers.
//! Alone in its test binary, because a process-wide thread count means nothing next to
//! tests running in parallel.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sectopk_crypto::keys::MasterKeys;
use sectopk_crypto::paillier::MIN_MODULUS_BITS;
use sectopk_crypto::par::{idle_sources, par_map};
use sectopk_crypto::pool::{RandomnessPool, RESERVOIR_TARGET};

/// The `Threads:` line of `/proc/self/status`; `None` where there is no procfs.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

#[test]
fn creating_using_and_dropping_pools_spawns_no_thread_and_leaves_the_idle_registry() {
    let mut rng = StdRng::seed_from_u64(0x9001);
    let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).expect("keygen");
    let pk = &master.paillier_public;
    // The helpers every pool below may use: as many as a 4-worker call asks for.
    par_map(4, vec![0u8; 4], |&x| x);
    let Some(before) = process_threads() else { return };
    let sources = idle_sources();

    let mut pools: Vec<RandomnessPool> = (0..3).map(|seed| RandomnessPool::new(pk, seed)).collect();
    assert_eq!(process_threads(), Some(before), "creating a pool spawned a thread");
    assert_eq!(idle_sources(), sources, "a pool registered before its first draw");

    for (workers, pool) in [1, 2, 4].into_iter().zip(&mut pools) {
        pool.set_refill_workers(workers);
        for _ in 0..RESERVOIR_TARGET + 7 {
            pool.encrypt_u64(7).expect("encrypt");
        }
    }
    assert_eq!(process_threads(), Some(before), "using a pool spawned a thread");
    assert_eq!(idle_sources(), sources + 3);

    drop(pools);
    assert_eq!(idle_sources(), sources, "a dropped pool stayed in the idle registry");
    assert_eq!(process_threads(), Some(before), "dropping a pool changed the thread count");
}
