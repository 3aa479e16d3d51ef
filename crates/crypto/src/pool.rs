//! An amortizing pool of precomputed encryption nonces.
//!
//! The expensive half of a Paillier encryption (or re-randomization) is the nonce
//! `H^a mod N²`; for the Damgård–Jurik outer layer it is `H₃^a mod N³`.  Neither
//! depends on the message, so they can be computed ahead of time and consumed with a
//! single multiplication on the latency path — the classic precomputation trick for
//! Paillier-style schemes, and what lets the S2 engine answer a burst of protocol
//! requests without paying one full exponentiation per returned ciphertext.
//!
//! A [`RandomnessPool`] reads its exponents *by address*: nonce *k* of a kind is
//! `H^{a(k)}`, where `a(k)` is drawn below `N` from sub-stream `(kind, k)` of the pool's
//! [`ChaCha12Rng`] key.  So nonce *k* is a function of the pool seed, the kind and *k*
//! alone, whichever thread computes it, in whatever order, and however far ahead — a
//! pool seeded identically produces identical ciphertext streams, which the
//! transport-equivalence tests rely on.  A dry queue refills a batch on as many threads
//! as its owner last set with [`RandomnessPool::set_refill_workers`];
//! [`RandomnessPool::refill`] is the one explicit fill, and it is serial.
//!
//! Each kind's queue is a reservoir: one slot per index from the owner's next one on,
//! each holding its nonce once computed.  Paillier nonces are also made *ahead of need*,
//! on cores the owner leaves idle: after its first draw a pool registers its Paillier
//! reservoir with [`crate::par`]'s helpers as idle work, and a helper with no job claims
//! the next index under the pool's lock, computes that nonce outside it and fills its
//! slot, then looks at its job queue again, until the pool holds [`RESERVOIR_TARGET`]
//! slots.  A pop takes the front slot if it is ready and otherwise computes the nonce
//! from its index (a batch of them if no slot is ready), so the owner never waits on a
//! helper, and a helper's fill of an index already taken is dropped.  The pool wakes idle
//! helpers when its stock falls below half the target.  A pool makes nothing ahead while
//! its owner's worker share is 1: then no core is idle, and a helper's nonce would be
//! taken from a neighbour (DESIGN.md §14).
//!
//! Ownership: pools are *not* part of the shared `Arc` key material — two parties
//! sharing a public key must not share a nonce stream — so each protocol party
//! (`S1State`, the S2 engine) owns its pools, seeded from its own seed.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use num_bigint::BigUint;
use rand::SeedableRng;

use crate::bigint::random_below;
use crate::chacha::ChaCha12Rng;
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

/// The sub-stream id of the Paillier exponents under a pool's key.
const PAILLIER: u32 = 0;
/// The sub-stream id of the Damgård–Jurik exponents under a pool's key.
const DJ: u32 = 1;

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

/// A pool of precomputed Paillier (and optionally Damgård–Jurik) encryption nonces
/// for one public key.
#[derive(Debug)]
pub struct RandomnessPool {
    pk: PaillierPublicKey,
    /// The Paillier nonces, shared with the helpers that fill them ahead of need.
    reservoir: Arc<Reservoir>,
    /// The reservoir as registered idle work, from the pool's first draw on.
    registered: Option<Weak<dyn IdleWork>>,
    /// The Damgård–Jurik nonces, made only when popped or refilled.
    dj: Option<Arc<Reservoir>>,
}

/// The nonces of one kind: the key they are nonces of, the exponent key and the slots.
#[derive(Debug)]
struct Reservoir {
    kind: Kind,
    key: ChaCha12Rng,
    slots: Mutex<Slots>,
}

#[derive(Debug)]
enum Kind {
    Paillier(PaillierPublicKey),
    Dj(DjPublicKey),
}

#[derive(Debug)]
struct Slots {
    /// The index of the front slot: the owner's next nonce.
    front: u64,
    /// One slot per claimed index from `front` on: its nonce, once computed.
    queue: VecDeque<Option<BigUint>>,
    /// The owner's worker count; helpers fill ahead only while it is above 1.
    workers: usize,
}

impl Slots {
    /// The slot of `index`, if it is queued.
    fn slot(&mut self, index: u64) -> Option<&mut Option<BigUint>> {
        let at = usize::try_from(index.checked_sub(self.front)?).ok()?;
        self.queue.get_mut(at)
    }

    /// The index one past the back slot.
    fn end(&self) -> u64 {
        self.front + self.queue.len() as u64
    }
}

impl Reservoir {
    fn new(kind: Kind, seed: u64) -> Arc<Self> {
        let slots = Slots { front: 0, queue: VecDeque::new(), workers: 1 };
        Arc::new(Reservoir {
            kind,
            key: ChaCha12Rng::seed_from_u64(seed),
            slots: Mutex::new(slots),
        })
    }

    /// Nonce `index`: its exponent is drawn below `N` from sub-stream (kind, `index`) of
    /// the pool's key.
    fn nonce(&self, index: u64) -> BigUint {
        let exponent = |stream, n| random_below(&mut self.key.substream(stream, index), n);
        match &self.kind {
            Kind::Paillier(pk) => pk.nonce_from_exponent(&exponent(PAILLIER, pk.n())),
            Kind::Dj(dj) => dj.nonce_from_exponent(&exponent(DJ, dj.n())),
        }
    }

    /// Claim the slots of indices `from..to` and compute those not ready on up to
    /// `workers` threads.
    fn compute(self: &Arc<Self>, from: u64, to: u64, workers: usize) {
        let missing: Vec<u64> = {
            let mut slots = lock(&self.slots);
            let end = slots.end();
            slots.queue.extend((end..to).map(|_| None));
            (from..to).filter(|&k| slots.slot(k).is_some_and(|slot| slot.is_none())).collect()
        };
        let reservoir = Arc::clone(self);
        let nonces = par::par_map(workers, missing.clone(), move |&k| reservoir.nonce(k));
        let mut slots = lock(&self.slots);
        for (k, nonce) in missing.into_iter().zip(nonces) {
            if let Some(slot) = slots.slot(k) {
                *slot = Some(nonce);
            }
        }
    }

    /// Compute the next `count` nonces now, serially.
    fn produce(self: &Arc<Self>, count: usize) {
        let end = lock(&self.slots).end();
        self.compute(end, end + count as u64, 1);
    }

    /// Take the front nonce.  One that is not ready yet (a helper is computing it, or
    /// gave it up) the owner computes from its index, without waiting; a reservoir with
    /// no ready slot is dry, and the owner computes the next batch on its worker count.
    fn pop(self: &Arc<Self>) -> BigUint {
        let mut slots = lock(&self.slots);
        let index = slots.front;
        if slots.queue.iter().all(Option::is_none) {
            let workers = slots.workers;
            drop(slots);
            self.compute(index, index + DEFAULT_BATCH as u64, workers);
            slots = lock(&self.slots);
        }
        slots.front += 1;
        let slot = slots.queue.pop_front().flatten();
        let wake = slots.workers > 1 && slots.queue.len() + 1 == RESERVOIR_TARGET / 2;
        drop(slots);
        if wake {
            par::wake_idle();
        }
        slot.unwrap_or_else(|| self.nonce(index))
    }

    /// Fill the slot of `index` with its nonce, unless the owner has taken it.
    fn fill(&self, index: u64, nonce: BigUint) {
        if let Some(slot) = lock(&self.slots).slot(index) {
            *slot = Some(nonce);
        }
    }

    /// Claim the next index for a helper, if the owner's share leaves a core idle and
    /// the reservoir is below its target.
    fn claim(&self) -> Option<u64> {
        let mut slots = lock(&self.slots);
        if slots.workers <= 1 || slots.queue.len() >= RESERVOIR_TARGET {
            return None;
        }
        slots.queue.push_back(None);
        Some(slots.end() - 1)
    }
}

impl IdleWork for Reservoir {
    /// Fill one slot ahead of need.  A helper that unwinds leaves its slot empty, and
    /// the owner computes it when it gets there; a slot the owner took first is not
    /// queued any more, and its nonce is dropped.
    fn step(&self) -> bool {
        let Some(index) = self.claim() else { return false };
        self.fill(index, self.nonce(index));
        true
    }
}

impl Drop for RandomnessPool {
    fn drop(&mut self) {
        if let Some(reservoir) = &self.registered {
            par::withdraw_idle(reservoir);
        }
    }
}

/// Lock `mutex`.  Every update under a pool's lock leaves the slots valid (a slot left
/// empty is computed by the owner), so a poisoned lock is still sound.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RandomnessPool {
    /// A pool for Paillier nonces only.
    pub fn new(pk: &PaillierPublicKey, seed: u64) -> Self {
        RandomnessPool {
            pk: pk.clone(),
            reservoir: Reservoir::new(Kind::Paillier(pk.clone()), seed),
            registered: None,
            dj: None,
        }
    }

    /// A pool serving both the Paillier and the Damgård–Jurik layer of one modulus.
    pub fn with_dj(pk: &PaillierPublicKey, dj: &DjPublicKey, seed: u64) -> Self {
        let mut pool = Self::new(pk, seed);
        pool.dj = Some(Reservoir::new(Kind::Dj(dj.clone()), seed));
        pool
    }

    /// Precompute `paillier` + `dj` nonces now, serially.
    ///
    /// Nonces come from the keys' amortized fixed-base path
    /// ([`PaillierPublicKey::nonce_from_exponent`] /
    /// [`DjPublicKey::nonce_from_exponent`]): an exponent `a < N` read from its address,
    /// then `H^a` over the key's fixed-base comb — at a 256-bit `N`, 7 squarings and at
    /// most 32 Montgomery products, against about 310 for the textbook `r^N`
    /// exponentiation.  Nonce *k* of a kind is the same whether an explicit refill of
    /// any size, a dry queue's parallel batch or an idle helper made it.
    pub fn refill(&mut self, paillier: usize, dj: usize) {
        self.register();
        self.reservoir.produce(paillier);
        if dj > 0 {
            self.dj().produce(dj);
        }
    }

    /// The Damgård–Jurik nonces.  Panics if the pool was built without a DJ key.
    fn dj(&self) -> &Arc<Reservoir> {
        self.dj.as_ref().expect("DJ nonces of a Paillier-only pool")
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
            if let Some(dj) = &self.dj {
                lock(&dj.slots).workers = workers;
            }
            let mut slots = lock(&self.reservoir.slots);
            let opened = slots.workers <= 1 && workers > 1;
            slots.workers = workers;
            opened && slots.queue.len() < RESERVOIR_TARGET
        };
        if opened && self.registered.is_some() {
            par::wake_idle();
        }
    }

    /// Pop a Paillier nonce `H^a mod N²`: the front slot, computed from its index if it
    /// is not ready; a batch if no slot is.
    pub fn next_paillier_nonce(&mut self) -> BigUint {
        self.register();
        self.reservoir.pop()
    }

    /// Pop a DJ nonce `H₃^a mod N³`, refilling a batch if the queue is dry.
    ///
    /// Panics if the pool was built without a DJ key.
    pub fn next_dj_nonce(&mut self) -> BigUint {
        self.dj().pop()
    }

    /// Encrypt `m` under the pool's Paillier key using a precomputed nonce.
    pub fn encrypt(&mut self, m: &BigUint) -> Result<Ciphertext> {
        if m >= self.pk.n() {
            return Err(crate::error::CryptoError::PlaintextOutOfRange);
        }
        let nonce = self.next_paillier_nonce();
        Ok(self.pk.encrypt_with_nonce(m, &nonce))
    }

    /// Encrypt a small unsigned integer (convenience for scores and flags).
    pub fn encrypt_u64(&mut self, m: u64) -> Result<Ciphertext> {
        self.encrypt(&BigUint::from(m))
    }

    /// Re-randomize a Paillier ciphertext using a precomputed nonce.
    pub fn rerandomize(&mut self, a: &Ciphertext) -> Ciphertext {
        let nonce = self.next_paillier_nonce();
        self.pk.rerandomize_with_nonce(a, &nonce)
    }

    /// The Paillier public key this pool serves.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.pk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKeys;
    use crate::paillier::MIN_MODULUS_BITS;
    use rand::rngs::StdRng;

    impl RandomnessPool {
        /// How many nonces of each kind are drawn and not yet taken: for the Paillier
        /// kind that counts the slots still being computed, which a pop waits for.
        fn ready(&self) -> (usize, usize) {
            let dj = self.dj.as_ref().map_or(0, |dj| lock(&dj.slots).queue.len());
            (lock(&self.reservoir.slots).queue.len(), dj)
        }
    }

    /// Concurrency audit: the shared key material must be freely shareable across the
    /// S2 worker threads (`Send + Sync`; they are `Arc`-backed), while the stateful
    /// per-session values (pools own an exponent key and nonce queues) only need to
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
            parallel.reservoir.compute(0, 9, workers);
            parallel.dj().compute(0, 5, workers);
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
        // Nonce k is read from its address, so prefetching any amount ahead of time
        // must leave the stream position-deterministic.
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
        // Regression: when the kinds drew from one shared RNG, an upper-bound prefill
        // (all Paillier draws, then all DJ draws) assigned its outputs to the kinds
        // differently than lazy interleaved consumption, shifting both streams.  Each
        // kind now reads its exponents from sub-stream (kind, k) of the pool's key, so
        // nonce k of each kind is a function of (seed, kind, k) alone.
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
    fn the_stream_is_the_same_whether_helpers_ran_ahead_raced_the_owner_or_never_ran() {
        // Pop k is H^{a(k)}, a(k) drawn below N from sub-stream (PAILLIER, k) of the
        // pool's key: computed here on its own, apart from any pool.
        let (master, _pool) = setup();
        let pk = &master.paillier_public;
        spawn_helpers();
        let key = ChaCha12Rng::seed_from_u64(31);
        let count = 2 * RESERVOIR_TARGET + 3;
        let expected: Vec<BigUint> = (0..count as u64)
            .map(|k| pk.nonce_from_exponent(&random_below(&mut key.substream(PAILLIER, k), pk.n())))
            .collect();
        for workers in [1, 2, 4] {
            // Racing: the owner pops as fast as it can while helpers produce beside it;
            // at one worker, they never run.
            let mut racing = RandomnessPool::new(pk, 31);
            racing.set_refill_workers(workers);
            let taken: Vec<BigUint> = (0..count).map(|_| racing.next_paillier_nonce()).collect();
            assert!(taken == expected, "a raced pool left its addresses (workers = {workers})");
            if workers == 1 {
                continue;
            }
            // Far ahead: the reservoir is full before the owner takes its second.  (Its
            // first may come after the helpers filled the reservoir to the target.)
            let mut ahead = RandomnessPool::new(pk, 31);
            ahead.set_refill_workers(workers);
            let mut taken = vec![ahead.next_paillier_nonce()];
            assert!(within_ten_seconds(|| ahead.ready().0 >= RESERVOIR_TARGET - 1));
            taken.extend((1..count).map(|_| ahead.next_paillier_nonce()));
            assert!(taken == expected, "a pool filled ahead left its addresses ({workers})");
        }
    }

    #[test]
    fn an_abandoned_slot_is_computed_by_the_owner() {
        // A helper that unwinds between claiming an index and filling its slot leaves the
        // slot empty.  The owner computes it from its index when it gets there, instead
        // of waiting, and the helper's fill, were it to come late, is dropped.
        let (master, _pool) = setup();
        let pk = &master.paillier_public;
        let expected = reference_stream(pk, 5, 6);
        // Never registered while its share is above 1, so no helper fills it.
        let mut pool = RandomnessPool::new(pk, 5);
        let reservoir = Arc::clone(&pool.reservoir);
        reservoir.compute(0, 1, 1);
        lock(&reservoir.slots).workers = 2;
        let claimed = [reservoir.claim(), reservoir.claim()];
        lock(&reservoir.slots).workers = 1;
        reservoir.compute(3, 4, 1);
        assert_eq!(claimed, [Some(1), Some(2)]);
        assert_eq!(pool.ready(), (4, 0));
        let mut taken: Vec<BigUint> = (0..5).map(|_| pool.next_paillier_nonce()).collect();
        reservoir.fill(2, BigUint::from(7u8));
        taken.push(pool.next_paillier_nonce());
        assert!(taken == expected);
    }

    #[test]
    fn pooled_encrypt_rejects_out_of_range() {
        let (master, mut pool) = setup();
        let too_big = master.paillier_public.n().clone();
        assert!(pool.encrypt(&too_big).is_err());
    }
}
