//! An amortizing pool of precomputed encryption nonces.
//!
//! The expensive half of a Paillier encryption (or re-randomization) is the nonce
//! `H^a mod N²`; for the Damgård–Jurik outer layer it is `H₃^a mod N³`.  Neither
//! depends on the message, so they can be computed ahead of time and consumed with a
//! single multiplication on the latency path — the classic precomputation trick for
//! Paillier-style schemes, and what lets the S2 engine answer a burst of protocol
//! requests without paying one full exponentiation per returned ciphertext.
//!
//! A [`RandomnessPool`] owns its own deterministic RNG streams, one per nonce kind
//! (so a pool seeded identically produces identical ciphertext streams — the
//! transport-equivalence tests rely on this).  A dry queue refills a batch on as many
//! threads as its owner last set with [`RandomnessPool::set_refill_workers`];
//! [`RandomnessPool::refill`] is the one explicit fill, and it is serial.
//!
//! Paillier nonces are also made *ahead of need*, on cores the owner leaves idle.  The
//! queue is a reservoir of slots in draw order, each either in flight (its exponent is
//! drawn, its nonce being computed) or ready.  After its first draw a pool registers
//! with [`crate::par`]'s helpers as idle work: a helper with no job draws one exponent
//! under the pool's lock, computes that nonce and fills its slot, then looks at its
//! job queue again, until the pool holds [`RESERVOIR_TARGET`] slots.  A pop takes the
//! front slot, waiting for it if it is still in flight, so the owner waits at most one
//! nonce; the pool wakes idle helpers when its stock falls below half the target.  A
//! pool makes nothing ahead while its owner's worker share is 1: then no core is idle,
//! and a helper's nonce would be taken from a neighbour (DESIGN.md §14).
//!
//! Ownership: pools are *not* part of the shared `Arc` key material — two parties
//! sharing a public key must not share a nonce stream — so each protocol party
//! (`S1State`, the S2 engine) owns its pools, seeded from its own seed.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bigint::random_below;
use crate::damgard_jurik::DjPublicKey;
use crate::error::Result;
use crate::paillier::{Ciphertext, PaillierPublicKey};
use crate::par::{self, IdleWork};

/// Number of nonces a dry queue refills at once.
const DEFAULT_BATCH: usize = 32;

/// Paillier slots a pool's idle helpers fill up to.  A `deep-scan` query takes about
/// 2,900 nonces from four pools, most of them from the two shared-key pools, in runs of
/// up to a few hundred between the waits on the other party that refill them.
pub const RESERVOIR_TARGET: usize = 256;

/// Derive the deterministic seed of per-session pool shard `session` from a party's
/// `base_seed`.
///
/// A multi-session server (one S2 engine pool serving many S1 sessions) must give every
/// session its **own** nonce stream: sessions sharing one pool would consume nonces in
/// arrival order, making ciphertexts depend on the interleaving of other sessions'
/// requests — the end of byte-for-byte reproducibility.  Mixing the session id into the
/// seed with a [SplitMix64](https://prng.di.unimi.it/splitmix64.c) finalizer keeps each
/// shard deterministic in isolation while decorrelating the streams (a plain
/// `base_seed ^ session` would make shards of adjacent sessions collide whenever the
/// base seed already differs in the low bits).
pub fn shard_seed(base_seed: u64, session: u64) -> u64 {
    let mut z = base_seed ^ session.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream tag mixed into a pool's seed to derive the Damgård–Jurik exponent stream.
///
/// Each nonce kind draws its exponents from its **own** RNG stream: with a single
/// shared RNG, the value of Paillier nonce *k* would depend on how many DJ draws
/// happened before it — i.e. on the `(paillier, dj)` split of every refill call — and
/// an explicit refill of both kinds (which splits differently than lazy consumption)
/// would silently shift both streams.
const DJ_STREAM_TAG: u64 = 0xD1;

/// A pool of precomputed Paillier (and optionally Damgård–Jurik) encryption nonces
/// for one public key.
#[derive(Debug)]
pub struct RandomnessPool {
    /// The Paillier stream, shared with the helpers that fill it ahead of need.
    reservoir: Arc<Reservoir>,
    /// The reservoir as registered idle work, from the pool's first draw on.
    registered: Option<Weak<dyn IdleWork>>,
    dj: Option<DjPublicKey>,
    dj_rng: StdRng,
    dj_nonces: VecDeque<BigUint>,
}

/// The Paillier nonces of one pool: the key, the exponent stream and the slots.
#[derive(Debug)]
struct Reservoir {
    pk: PaillierPublicKey,
    slots: Mutex<Slots>,
    /// Signalled when an in-flight slot settles while the owner waits for it.
    settled: Condvar,
}

#[derive(Debug)]
struct Slots {
    /// Paillier exponents, drawn only under this lock, so slot order is draw order.
    rng: StdRng,
    /// Every drawn nonce not yet taken, in draw order.
    queue: VecDeque<Slot>,
    /// The draw number of the front slot.
    front: u64,
    /// The owner's worker count; helpers fill ahead only while it is above 1.
    workers: usize,
    /// Whether the owner is waiting for the front slot.
    owner_waits: bool,
}

#[derive(Debug)]
enum Slot {
    /// Its exponent is drawn and its nonce is being computed.
    InFlight,
    /// Its computation was given up (the thread computing it unwound): the owner
    /// computes the nonce from this exponent when it reaches the front.
    Abandoned(BigUint),
    Ready(BigUint),
}

/// A run of slots drawn together and being computed.  Filled in one go; dropped unfilled
/// (an unwind), its slots are abandoned to the owner rather than left in flight.
struct Run<'a> {
    reservoir: &'a Reservoir,
    /// The draw number of the first slot.
    first: u64,
    exponents: Vec<BigUint>,
}

impl Reservoir {
    /// Draw `count` exponents into new in-flight slots at the back.
    fn draw_locked<'a>(&'a self, slots: &mut Slots, count: usize) -> Run<'a> {
        let first = slots.front + slots.queue.len() as u64;
        let exponents: Vec<BigUint> =
            (0..count).map(|_| random_below(&mut slots.rng, self.pk.n())).collect();
        slots.queue.extend((0..count).map(|_| Slot::InFlight));
        Run { reservoir: self, first, exponents }
    }

    /// Draw `count` slots and compute them on up to `workers` threads.
    fn produce(&self, count: usize, workers: usize) {
        if count == 0 {
            return;
        }
        let run = self.draw_locked(&mut lock(&self.slots), count);
        let pk = self.pk.clone();
        let nonces =
            par::par_map(workers, run.exponents.clone(), move |a| pk.nonce_from_exponent(a));
        run.settle(nonces.into_iter().map(Slot::Ready));
    }

    /// Take the front nonce, waiting for it if it is in flight.  A reservoir with no
    /// settled slot is dry: the owner draws a batch behind what is in flight and
    /// computes it on the spot, on the owner's worker count, instead of waiting for
    /// helpers that fill one slot at a time.
    fn pop(&self) -> BigUint {
        let mut slots = lock(&self.slots);
        let slot = loop {
            match slots.queue.front() {
                Some(Slot::InFlight)
                    if slots.queue.iter().any(|s| !matches!(s, Slot::InFlight)) =>
                {
                    slots.owner_waits = true;
                    slots = self.settled.wait(slots).unwrap_or_else(PoisonError::into_inner);
                    slots.owner_waits = false;
                }
                None | Some(Slot::InFlight) => {
                    let workers = slots.workers;
                    drop(slots);
                    self.produce(DEFAULT_BATCH, workers);
                    slots = lock(&self.slots);
                }
                Some(_) => {
                    slots.front += 1;
                    break slots.queue.pop_front().expect("the front slot was just seen");
                }
            }
        };
        let wake = slots.workers > 1 && slots.queue.len() + 1 == RESERVOIR_TARGET / 2;
        drop(slots);
        if wake {
            par::wake_idle();
        }
        match slot {
            Slot::Ready(nonce) => nonce,
            Slot::Abandoned(a) => self.pk.nonce_from_exponent(&a),
            Slot::InFlight => unreachable!("an in-flight slot is never taken"),
        }
    }
}

impl IdleWork for Reservoir {
    /// Fill one slot ahead of need, if the owner's share leaves a core idle and the
    /// reservoir is below its target.
    fn step(&self) -> bool {
        let run = {
            let mut slots = lock(&self.slots);
            if slots.workers <= 1 || slots.queue.len() >= RESERVOIR_TARGET {
                return false;
            }
            self.draw_locked(&mut slots, 1)
        };
        let nonce = self.pk.nonce_from_exponent(&run.exponents[0]);
        run.settle([Slot::Ready(nonce)]);
        true
    }
}

impl Run<'_> {
    /// Settle the run's slots, in order, with `settled`.
    fn settle(mut self, settled: impl IntoIterator<Item = Slot>) {
        self.exponents.clear();
        self.write(settled);
    }

    fn write(&self, settled: impl IntoIterator<Item = Slot>) {
        let mut slots = lock(&self.reservoir.slots);
        let at = usize::try_from(self.first - slots.front).expect("an in-flight slot is queued");
        for (slot, settled) in slots.queue.iter_mut().skip(at).zip(settled) {
            *slot = settled;
        }
        if slots.owner_waits {
            self.reservoir.settled.notify_all();
        }
    }
}

impl Drop for Run<'_> {
    fn drop(&mut self) {
        let abandoned = std::mem::take(&mut self.exponents);
        if !abandoned.is_empty() {
            self.write(abandoned.into_iter().map(Slot::Abandoned));
        }
    }
}

impl Drop for RandomnessPool {
    fn drop(&mut self) {
        if let Some(reservoir) = &self.registered {
            par::withdraw_idle(reservoir);
        }
    }
}

/// Lock `mutex`.  Every update under a pool's lock leaves the slots valid (an unwinding
/// computation abandons its slots through [`Run`]), so a poisoned lock is still sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RandomnessPool {
    /// A pool for Paillier nonces only.
    pub fn new(pk: &PaillierPublicKey, seed: u64) -> Self {
        let slots = Slots {
            rng: StdRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            front: 0,
            workers: 1,
            owner_waits: false,
        };
        RandomnessPool {
            reservoir: Arc::new(Reservoir {
                pk: pk.clone(),
                slots: Mutex::new(slots),
                settled: Condvar::new(),
            }),
            registered: None,
            dj: None,
            dj_rng: StdRng::seed_from_u64(shard_seed(seed, DJ_STREAM_TAG)),
            dj_nonces: VecDeque::new(),
        }
    }

    /// A pool serving both the Paillier and the Damgård–Jurik layer of one modulus.
    pub fn with_dj(pk: &PaillierPublicKey, dj: &DjPublicKey, seed: u64) -> Self {
        let mut pool = Self::new(pk, seed);
        pool.dj = Some(dj.clone());
        pool
    }

    /// Precompute `paillier` + `dj` nonces now, serially.
    ///
    /// Nonces come from the keys' amortized fixed-base path
    /// ([`PaillierPublicKey::nonce_from_exponent`] /
    /// [`DjPublicKey::nonce_from_exponent`]): draw a random exponent `a < N`, evaluate
    /// `H^a` over the key's fixed-base comb — at a 256-bit `N`, 7 squarings and at most
    /// 32 Montgomery products, against about 310 for the textbook `r^N`
    /// exponentiation.
    ///
    /// Each nonce kind has its **own** RNG stream, consumed only by that kind's
    /// exponent draws (one draw per nonce, in slot order), so nonce *k* of a kind is a
    /// function of the pool seed, the kind and *k* alone — never of refill timing, batch
    /// boundaries, the `(paillier, dj)` split of earlier refill calls, or which thread
    /// computed it.  That invariant is what lets explicit refills of any size, a dry
    /// queue's parallel batch and the idle helpers' production leave the ciphertext
    /// stream byte-identical.
    pub fn refill(&mut self, paillier: usize, dj: usize) {
        self.register();
        self.reservoir.produce(paillier, 1);
        self.refill_dj(dj, 1);
    }

    /// Draw `count` DJ exponents serially and compute their nonces on up to `workers`
    /// threads, queued in draw order.
    fn refill_dj(&mut self, count: usize, workers: usize) {
        if count == 0 {
            return;
        }
        let dj_pk = self.dj.clone().expect("refilling DJ nonces on a Paillier-only pool");
        let exps: Vec<BigUint> =
            (0..count).map(|_| random_below(&mut self.dj_rng, dj_pk.n())).collect();
        let nonces = par::par_map(workers, exps, move |a| dj_pk.nonce_from_exponent(a));
        self.dj_nonces.extend(nonces);
    }

    /// Register the reservoir as idle work, once: a pool makes nothing ahead before it
    /// is first drawn from.
    fn register(&mut self) {
        if self.registered.is_none() {
            let reservoir: Weak<dyn IdleWork> = Arc::downgrade(&self.reservoir) as Weak<Reservoir>;
            par::register_idle(reservoir.clone());
            self.registered = Some(reservoir);
            if lock(&self.reservoir.slots).workers > 1 {
                par::wake_idle();
            }
        }
    }

    /// Threads a dry queue's batch refill may use (default 1), and whether idle helpers
    /// fill the pool ahead of need (only above 1).  The owner keeps it at its current
    /// worker count; the nonce stream is the same for every value.
    pub fn set_refill_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        let opened = {
            let mut slots = lock(&self.reservoir.slots);
            let opened = slots.workers <= 1 && workers > 1;
            slots.workers = workers;
            opened && slots.queue.len() < RESERVOIR_TARGET
        };
        if opened && self.registered.is_some() {
            par::wake_idle();
        }
    }

    /// Pop a Paillier nonce `H^a mod N²`: the front slot, waited for if it is still in
    /// flight; a batch is refilled if none is drawn.
    pub fn next_paillier_nonce(&mut self) -> BigUint {
        self.register();
        self.reservoir.pop()
    }

    /// Pop a DJ nonce `r^{N²} mod N³`, refilling a batch if the queue is dry.
    ///
    /// Panics if the pool was built without a DJ key.
    pub fn next_dj_nonce(&mut self) -> BigUint {
        if self.dj_nonces.is_empty() {
            let workers = lock(&self.reservoir.slots).workers;
            self.refill_dj(DEFAULT_BATCH, workers);
        }
        self.dj_nonces.pop_front().expect("refill produced at least one nonce")
    }

    /// Encrypt `m` under the pool's Paillier key using a precomputed nonce.
    pub fn encrypt(&mut self, m: &BigUint) -> Result<Ciphertext> {
        if m >= self.reservoir.pk.n() {
            return Err(crate::error::CryptoError::PlaintextOutOfRange);
        }
        let nonce = self.next_paillier_nonce();
        Ok(self.reservoir.pk.encrypt_with_nonce(m, &nonce))
    }

    /// Encrypt a small unsigned integer (convenience for scores and flags).
    pub fn encrypt_u64(&mut self, m: u64) -> Result<Ciphertext> {
        self.encrypt(&BigUint::from(m))
    }

    /// Re-randomize a Paillier ciphertext using a precomputed nonce.
    pub fn rerandomize(&mut self, a: &Ciphertext) -> Ciphertext {
        let nonce = self.next_paillier_nonce();
        self.reservoir.pk.rerandomize_with_nonce(a, &nonce)
    }

    /// The Paillier public key this pool serves.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.reservoir.pk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKeys;
    use crate::paillier::MIN_MODULUS_BITS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl RandomnessPool {
        /// How many nonces of each kind are drawn and not yet taken: for the Paillier
        /// kind that counts the slots still being computed, which a pop waits for.
        fn ready(&self) -> (usize, usize) {
            (lock(&self.reservoir.slots).queue.len(), self.dj_nonces.len())
        }
    }

    /// Concurrency audit: the shared key material must be freely shareable across the
    /// S2 worker threads (`Send + Sync`; they are `Arc`-backed), while the stateful
    /// per-session values (pools own a deterministic RNG and nonce queues) only need to
    /// *move* into a session's engine (`Send`).  Compile-time assertions — a regression
    /// here breaks the multi-session server's thread model.
    #[test]
    fn shared_types_are_send_sync_and_pools_are_send() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<crate::paillier::PaillierPublicKey>();
        send_sync::<crate::paillier::PaillierSecretKey>();
        send_sync::<crate::damgard_jurik::DjPublicKey>();
        send_sync::<crate::damgard_jurik::DjSecretKey>();
        send_sync::<crate::keys::S1Keys>();
        send_sync::<crate::keys::S2Keys>();
        send_sync::<crate::keys::MasterKeys>();
        send_sync::<num_bigint::MontgomeryContext>();
        send::<RandomnessPool>();
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        assert_eq!(shard_seed(42, 7), shard_seed(42, 7));
        // Distinct sessions (and distinct bases) get decorrelated streams.
        let shards: Vec<u64> = (0..64).map(|s| shard_seed(42, s)).collect();
        let mut dedup = shards.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), shards.len(), "shard seeds must not collide");
        assert_ne!(shard_seed(42, 1), shard_seed(43, 1));
        // Adjacent-session shards differ even when base seeds differ only in low bits.
        assert_ne!(shard_seed(42, 1), shard_seed(43, 0));
    }

    fn setup() -> (MasterKeys, RandomnessPool) {
        let mut rng = StdRng::seed_from_u64(1717);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let dj = crate::damgard_jurik::DjPublicKey::from_paillier(&master.paillier_public);
        let pool = RandomnessPool::with_dj(&master.paillier_public, &dj, 99);
        (master, pool)
    }

    #[test]
    fn pooled_encrypt_round_trips() {
        let (master, mut pool) = setup();
        for m in [0u64, 1, 424242, u32::MAX as u64] {
            let c = pool.encrypt_u64(m).unwrap();
            assert_eq!(master.paillier_secret.decrypt_u64(&c).unwrap(), m);
        }
    }

    #[test]
    fn pooled_rerandomize_preserves_plaintext() {
        let (master, mut pool) = setup();
        let c = pool.encrypt_u64(77).unwrap();
        let c2 = pool.rerandomize(&c);
        assert_ne!(c, c2);
        assert_eq!(master.paillier_secret.decrypt_u64(&c2).unwrap(), 77);
    }

    #[test]
    fn pooled_dj_round_trips() {
        let (master, mut pool) = setup();
        let dj_pk = DjPublicKey::from_paillier(&master.paillier_public);
        let dj_sk = crate::damgard_jurik::DjSecretKey::from_paillier(&master.paillier_secret);
        let inner = pool.encrypt_u64(5).unwrap();
        let layered = dj_pk.encrypt_with_nonce(inner.as_biguint(), &pool.next_dj_nonce());
        assert_eq!(&dj_sk.decrypt(&layered).unwrap(), inner.as_biguint());
        let again = dj_pk.encrypt_with_nonce(inner.as_biguint(), &pool.next_dj_nonce());
        assert_ne!(layered, again);
        assert_eq!(&dj_sk.decrypt(&again).unwrap(), inner.as_biguint());
    }

    #[test]
    fn explicit_refill_is_consumed_before_new_batches() {
        let (_master, mut pool) = setup();
        pool.refill(3, 2);
        assert_eq!(pool.ready(), (3, 2));
        let _ = pool.encrypt_u64(1).unwrap();
        assert_eq!(pool.ready(), (2, 2));
        let _ = pool.next_dj_nonce();
        let _ = pool.next_dj_nonce();
        assert_eq!(pool.ready().1, 0);
        // Next DJ draw triggers a batch refill.
        let _ = pool.next_dj_nonce();
        assert_eq!(pool.ready().1, DEFAULT_BATCH - 1);
    }

    #[test]
    fn same_seed_same_nonce_stream() {
        let (master, _pool) = setup();
        let mut a = RandomnessPool::new(&master.paillier_public, 7);
        let mut b = RandomnessPool::new(&master.paillier_public, 7);
        for _ in 0..3 {
            assert_eq!(a.next_paillier_nonce(), b.next_paillier_nonce());
        }
        let mut c = RandomnessPool::new(&master.paillier_public, 8);
        assert_ne!(a.next_paillier_nonce(), c.next_paillier_nonce());
    }

    #[test]
    fn a_parallel_batch_matches_a_serial_refill_byte_for_byte() {
        let (master, _pool) = setup();
        let dj = crate::damgard_jurik::DjPublicKey::from_paillier(&master.paillier_public);
        for workers in [1usize, 2, 4, 7] {
            let mut serial = RandomnessPool::with_dj(&master.paillier_public, &dj, 1234);
            let mut parallel = RandomnessPool::with_dj(&master.paillier_public, &dj, 1234);
            // The parallel pool's helpers may also fill it ahead of need meanwhile.
            parallel.set_refill_workers(workers);
            serial.refill(9, 5);
            parallel.reservoir.produce(9, workers);
            parallel.refill_dj(5, workers);
            // The batch's nonces and the ones drawn after them, alike.
            for _ in 0..9 + DEFAULT_BATCH {
                assert_eq!(
                    serial.next_paillier_nonce(),
                    parallel.next_paillier_nonce(),
                    "workers = {workers}"
                );
            }
            for _ in 0..5 + DEFAULT_BATCH {
                assert_eq!(serial.next_dj_nonce(), parallel.next_dj_nonce());
            }
        }
    }

    #[test]
    fn overfilling_never_changes_the_nonce_stream() {
        // The RNG is consumed only by exponent draws (one per nonce), so prefetching
        // any amount ahead of time must leave the stream position-deterministic.
        let (master, _pool) = setup();
        let mut lazy = RandomnessPool::new(&master.paillier_public, 5);
        let mut eager = RandomnessPool::new(&master.paillier_public, 5);
        eager.refill(40, 0);
        for _ in 0..40 {
            assert_eq!(lazy.next_paillier_nonce(), eager.next_paillier_nonce());
        }
    }

    #[test]
    fn lazy_refills_on_several_workers_keep_both_streams() {
        let (master, _pool) = setup();
        let dj = crate::damgard_jurik::DjPublicKey::from_paillier(&master.paillier_public);
        let mut serial = RandomnessPool::with_dj(&master.paillier_public, &dj, 77);
        let mut parallel = RandomnessPool::with_dj(&master.paillier_public, &dj, 77);
        parallel.set_refill_workers(3);
        // Past two batch refills of each kind, while helpers fill the parallel pool's
        // Paillier queue ahead of need.
        for _ in 0..2 * DEFAULT_BATCH + 12 {
            assert_eq!(serial.next_paillier_nonce(), parallel.next_paillier_nonce());
            assert_eq!(serial.next_dj_nonce(), parallel.next_dj_nonce());
        }
    }

    #[test]
    fn cross_kind_prefill_never_changes_either_stream() {
        // Regression: with one shared RNG, an upper-bound prefill (all Paillier draws,
        // then all DJ draws) assigned RNG outputs to nonce kinds differently than lazy
        // interleaved consumption, shifting both streams.  Per-kind RNG streams make
        // nonce k of each kind a function of (seed, kind, k) alone.
        let (master, _pool) = setup();
        let dj = crate::damgard_jurik::DjPublicKey::from_paillier(&master.paillier_public);
        let mut lazy = RandomnessPool::with_dj(&master.paillier_public, &dj, 21);
        let mut eager = RandomnessPool::with_dj(&master.paillier_public, &dj, 21);
        eager.refill(10, 10);
        for _ in 0..10 {
            // Lazy draws interleave the kinds (refilling a batch on dry queues); eager
            // precomputed everything up front.  Streams must still match.
            assert_eq!(lazy.next_paillier_nonce(), eager.next_paillier_nonce());
            assert_eq!(lazy.next_dj_nonce(), eager.next_dj_nonce());
        }
    }

    /// Poll `condition` until it holds (`true`) or ten seconds have passed (`false`).
    fn within_ten_seconds(condition: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !condition() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    /// Make sure `par_map` has helpers to fill pools ahead of need.
    fn spawn_helpers() {
        crate::par::par_map(3, vec![0u8; 3], |&x| x);
    }

    /// The first `count` Paillier nonces of seed `seed`, from a pool that never fills
    /// ahead of need.
    fn reference_stream(pk: &PaillierPublicKey, seed: u64, count: usize) -> Vec<BigUint> {
        let mut pool = RandomnessPool::new(pk, seed);
        (0..count).map(|_| pool.next_paillier_nonce()).collect()
    }

    #[test]
    fn the_stream_is_the_same_whether_helpers_ran_ahead_raced_the_owner_or_never_ran() {
        let (master, _pool) = setup();
        let pk = &master.paillier_public;
        spawn_helpers();
        let count = 2 * RESERVOIR_TARGET + 3;
        let expected = reference_stream(pk, 31, count);

        // Far ahead: the reservoir is full before the owner takes its second.  (Its first
        // may come after the helpers filled the reservoir to the target.)
        let mut ahead = RandomnessPool::new(pk, 31);
        ahead.set_refill_workers(2);
        let mut taken = vec![ahead.next_paillier_nonce()];
        assert!(within_ten_seconds(|| ahead.ready().0 >= RESERVOIR_TARGET - 1));
        taken.extend((1..count).map(|_| ahead.next_paillier_nonce()));
        assert!(taken == expected, "a pool filled ahead of need changed its stream");

        // Racing: the owner pops as fast as it can while helpers produce beside it.
        for workers in [2, 4] {
            let mut racing = RandomnessPool::new(pk, 31);
            racing.set_refill_workers(workers);
            let taken: Vec<BigUint> = (0..count).map(|_| racing.next_paillier_nonce()).collect();
            assert!(taken == expected, "a raced pool changed its stream (workers = {workers})");
        }
    }

    #[test]
    fn a_fresh_pool_holds_no_nonce_until_its_first_draw() {
        let (master, _pool) = setup();
        spawn_helpers();
        let mut pool = RandomnessPool::new(&master.paillier_public, 3);
        pool.set_refill_workers(4);
        crate::par::wake_idle();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(pool.ready(), (0, 0), "a pool made nonces before it was drawn from");
        let _ = pool.next_paillier_nonce();
        assert!(within_ten_seconds(|| pool.ready().0 >= RESERVOIR_TARGET - 1));
    }

    #[test]
    fn a_pool_whose_share_is_one_produces_nothing_ahead() {
        let (master, _pool) = setup();
        spawn_helpers();
        let mut pool = RandomnessPool::new(&master.paillier_public, 4);
        pool.set_refill_workers(4);
        pool.set_refill_workers(1);
        let _ = pool.next_paillier_nonce();
        crate::par::wake_idle();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(pool.ready(), (DEFAULT_BATCH - 1, 0), "a pool at share 1 filled ahead");
        // Its share rising opens the gate.
        pool.set_refill_workers(2);
        assert!(within_ten_seconds(|| pool.ready().0 == RESERVOIR_TARGET));
    }

    #[test]
    fn an_abandoned_slot_is_computed_by_the_owner() {
        // A run dropped unfilled — its computation unwound — leaves its slots to the
        // owner instead of in flight, where a pop would wait for them forever.
        let (master, _pool) = setup();
        let pk = &master.paillier_public;
        let expected = reference_stream(pk, 5, 4);
        let mut pool = RandomnessPool::new(pk, 5);
        pool.refill(1, 0);
        let reservoir = &*pool.reservoir;
        let run = reservoir.draw_locked(&mut lock(&reservoir.slots), 2);
        drop(run);
        assert_eq!(pool.ready(), (3, 0));
        let taken: Vec<BigUint> = (0..4).map(|_| pool.next_paillier_nonce()).collect();
        assert!(taken == expected);
    }

    #[test]
    fn pooled_encrypt_rejects_out_of_range() {
        let (master, mut pool) = setup();
        let too_big = master.paillier_public.n().clone();
        assert!(pool.encrypt(&too_big).is_err());
    }
}
