//! An amortizing pool of precomputed encryption nonces.
//!
//! The expensive half of a Paillier encryption (or re-randomization) is the nonce
//! `r^N mod N²`; for the Damgård–Jurik outer layer it is `r^{N²} mod N³`.  Neither
//! depends on the message, so they can be computed ahead of time and consumed with a
//! single multiplication on the latency path — the classic precomputation trick for
//! Paillier-style schemes, and what lets the S2 engine answer a burst of protocol
//! requests without paying one full exponentiation per returned ciphertext.
//!
//! A [`RandomnessPool`] owns its own deterministic RNG streams, one per nonce kind
//! (so a pool seeded identically produces identical ciphertext streams — the
//! transport-equivalence tests rely on this), and refills in batches of
//! [`RandomnessPool::batch`] nonces whenever a queue runs dry — on as many threads as
//! its owner last set with [`RandomnessPool::set_refill_workers`].
//! [`RandomnessPool::refill`] can be called explicitly during idle time to move the
//! precomputation off the critical path entirely.
//!
//! Ownership: pools are *not* part of the shared `Arc` key material — two parties
//! sharing a public key must not share a nonce stream — so each protocol party
//! (`S1State`, the S2 engine) owns its pools, seeded from its own seed.

use std::collections::VecDeque;

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bigint::random_below;
use crate::damgard_jurik::DjPublicKey;
use crate::error::Result;
use crate::paillier::{Ciphertext, PaillierPublicKey};

/// Default number of nonces computed per refill.
pub const DEFAULT_BATCH: usize = 32;

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
/// an upper-bound prefill (which splits differently than lazy consumption) would
/// silently shift both streams.
const DJ_STREAM_TAG: u64 = 0xD1;

/// A pool of precomputed Paillier (and optionally Damgård–Jurik) encryption nonces
/// for one public key.
#[derive(Debug)]
pub struct RandomnessPool {
    pk: PaillierPublicKey,
    dj: Option<DjPublicKey>,
    paillier_rng: StdRng,
    dj_rng: StdRng,
    paillier_nonces: VecDeque<BigUint>,
    dj_nonces: VecDeque<BigUint>,
    batch: usize,
    refill_workers: usize,
}

impl RandomnessPool {
    /// A pool for Paillier nonces only.
    pub fn new(pk: &PaillierPublicKey, seed: u64) -> Self {
        RandomnessPool {
            pk: pk.clone(),
            dj: None,
            paillier_rng: StdRng::seed_from_u64(seed),
            dj_rng: StdRng::seed_from_u64(shard_seed(seed, DJ_STREAM_TAG)),
            paillier_nonces: VecDeque::new(),
            dj_nonces: VecDeque::new(),
            batch: DEFAULT_BATCH,
            refill_workers: 1,
        }
    }

    /// A pool serving both the Paillier and the Damgård–Jurik layer of one modulus.
    pub fn with_dj(pk: &PaillierPublicKey, dj: &DjPublicKey, seed: u64) -> Self {
        let mut pool = Self::new(pk, seed);
        pool.dj = Some(dj.clone());
        pool
    }

    /// Number of nonces computed per batch refill.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Change the refill batch size (minimum 1).
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// How many nonces of each kind are currently ready.
    pub fn ready(&self) -> (usize, usize) {
        (self.paillier_nonces.len(), self.dj_nonces.len())
    }

    /// Precompute `paillier` + `dj` nonces now (e.g. during idle time between queries).
    ///
    /// Nonces come from the keys' amortized fixed-base path
    /// ([`PaillierPublicKey::nonce_from_exponent`] /
    /// [`DjPublicKey::nonce_from_exponent`]): draw a random exponent `a < N`, evaluate
    /// `H^a` over the key's fixed-base comb — at a 256-bit `N`, 7 squarings and at most
    /// 32 Montgomery products, against about 310 for the textbook `r^N`
    /// exponentiation.
    ///
    /// Each nonce kind has its **own** RNG stream, consumed only by that kind's
    /// exponent draws (one draw per nonce), so nonce *k* of a kind is a function of
    /// the pool seed, the kind and *k* alone — never of refill timing, batch
    /// boundaries, or the `(paillier, dj)` split of earlier refill calls.  That
    /// invariant is what lets [`Self::prefill_parallel`] and idle-time refills of any
    /// size (including upper-bound prefills that overshoot one kind) leave the
    /// ciphertext stream byte-identical.
    pub fn refill(&mut self, paillier: usize, dj: usize) {
        for _ in 0..paillier {
            let a = random_below(&mut self.paillier_rng, self.pk.n());
            self.paillier_nonces.push_back(self.pk.nonce_from_exponent(&a));
        }
        if dj > 0 {
            let dj_pk = self.dj.clone().expect("refilling DJ nonces on a Paillier-only pool");
            for _ in 0..dj {
                let a = random_below(&mut self.dj_rng, dj_pk.n());
                self.dj_nonces.push_back(dj_pk.nonce_from_exponent(&a));
            }
        }
    }

    /// Precompute `paillier` + `dj` nonces using up to `workers` threads: exponents are
    /// drawn serially (preserving the draw-order invariant of [`Self::refill`] exactly),
    /// the table evaluations of both kinds run as one data-parallel sweep, and the
    /// results are queued in draw order — so the nonce stream is byte-identical to a
    /// serial refill of the same counts.  With `workers <= 1` this *is* a serial refill.
    pub fn prefill_parallel(&mut self, paillier: usize, dj: usize, workers: usize) {
        if workers <= 1 || paillier + dj < 2 {
            self.refill(paillier, dj);
            return;
        }
        let dj_pk = match dj {
            0 => None,
            _ => Some(self.dj.clone().expect("refilling DJ nonces on a Paillier-only pool")),
        };
        // `(is_dj, exponent)`: every Paillier exponent, then every DJ one.
        let mut exps: Vec<(bool, BigUint)> = Vec::with_capacity(paillier + dj);
        exps.extend(
            (0..paillier).map(|_| (false, random_below(&mut self.paillier_rng, self.pk.n()))),
        );
        if let Some(dj_pk) = &dj_pk {
            exps.extend((0..dj).map(|_| (true, random_below(&mut self.dj_rng, dj_pk.n()))));
        }

        let pk = self.pk.clone();
        let nonces = crate::par::par_map(workers, exps, move |(is_dj, a)| match (is_dj, &dj_pk) {
            (true, Some(dj_pk)) => dj_pk.nonce_from_exponent(a),
            _ => pk.nonce_from_exponent(a),
        });
        let mut nonces = nonces.into_iter();
        self.paillier_nonces.extend(nonces.by_ref().take(paillier));
        self.dj_nonces.extend(nonces);
    }

    /// Threads a dry queue's batch refill may use (default 1).  The owner keeps it at
    /// its current worker count; the nonce stream is the same for every value.
    pub fn set_refill_workers(&mut self, workers: usize) {
        self.refill_workers = workers.max(1);
    }

    /// Pop a Paillier nonce `r^N mod N²`, refilling a batch if the queue is dry.
    pub fn next_paillier_nonce(&mut self) -> BigUint {
        if self.paillier_nonces.is_empty() {
            self.prefill_parallel(self.batch, 0, self.refill_workers);
        }
        self.paillier_nonces.pop_front().expect("refill produced at least one nonce")
    }

    /// Pop a DJ nonce `r^{N²} mod N³`, refilling a batch if the queue is dry.
    ///
    /// Panics if the pool was built without a DJ key.
    pub fn next_dj_nonce(&mut self) -> BigUint {
        if self.dj_nonces.is_empty() {
            self.prefill_parallel(0, self.batch, self.refill_workers);
        }
        self.dj_nonces.pop_front().expect("refill produced at least one nonce")
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
    use rand::SeedableRng;

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
        pool.set_batch(4);
        pool.refill(3, 2);
        assert_eq!(pool.ready(), (3, 2));
        let _ = pool.encrypt_u64(1).unwrap();
        assert_eq!(pool.ready(), (2, 2));
        let _ = pool.next_dj_nonce();
        let _ = pool.next_dj_nonce();
        assert_eq!(pool.ready().1, 0);
        // Next DJ draw triggers a batch refill.
        let _ = pool.next_dj_nonce();
        assert_eq!(pool.ready().1, pool.batch() - 1);
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
    fn prefill_parallel_matches_serial_refill_byte_for_byte() {
        let (master, _pool) = setup();
        let dj = crate::damgard_jurik::DjPublicKey::from_paillier(&master.paillier_public);
        for workers in [1usize, 2, 4, 7] {
            let mut serial = RandomnessPool::with_dj(&master.paillier_public, &dj, 1234);
            let mut parallel = RandomnessPool::with_dj(&master.paillier_public, &dj, 1234);
            serial.refill(9, 5);
            parallel.prefill_parallel(9, 5, workers);
            assert_eq!(serial.ready(), parallel.ready());
            for _ in 0..9 {
                assert_eq!(
                    serial.next_paillier_nonce(),
                    parallel.next_paillier_nonce(),
                    "workers = {workers}"
                );
            }
            for _ in 0..5 {
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
        lazy.set_batch(3);
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
        serial.set_batch(5);
        parallel.set_batch(5);
        parallel.set_refill_workers(3);
        for _ in 0..12 {
            assert_eq!(serial.next_paillier_nonce(), parallel.next_paillier_nonce());
            assert_eq!(serial.next_dj_nonce(), parallel.next_dj_nonce());
        }
        assert_eq!(serial.ready(), parallel.ready());
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
        lazy.set_batch(2);
        let mut eager = RandomnessPool::with_dj(&master.paillier_public, &dj, 21);
        eager.prefill_parallel(10, 10, 4);
        for _ in 0..10 {
            // Lazy draws interleave the kinds (refilling 2-at-a-time on dry queues);
            // eager precomputed everything up front.  Streams must still match.
            assert_eq!(lazy.next_paillier_nonce(), eager.next_paillier_nonce());
            assert_eq!(lazy.next_dj_nonce(), eager.next_dj_nonce());
        }
    }

    #[test]
    fn pooled_encrypt_rejects_out_of_range() {
        let (master, mut pool) = setup();
        let too_big = master.paillier_public.n().clone();
        assert!(pool.encrypt(&too_big).is_err());
    }
}
