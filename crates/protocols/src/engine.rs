//! The crypto cloud S2 as a request-processing engine.
//!
//! All S2-side protocol logic lives here: the engine owns the decryption keys, S2's
//! randomness and its [`LeakageLedger`].  Sub-protocol code on the S1 side can only
//! reach it through a [`crate::transport::Transport`], so everything S2 observes is an
//! explicit message — the executable counterpart of the paper's non-collusion
//! assumption (§3.2).  Every request is self-contained: the engine carries no protocol
//! state from one request to the next, so its reply depends only on that request and
//! its own randomness.
//!
//! # Plan, compute, commit
//!
//! Every request is a batch of n ≥ 1 items and goes through three phases; what phase 1
//! produces is what phases 2 and 3 consume, so each request kind is described once:
//!
//! 1. **Plan** — `plan` validates one item — its shape, its indices and the range of every
//!    ciphertext in it — and states, in the same `match` arm, the secret-key operations it
//!    needs and over which ciphertexts (a `Need`) and its request counter.  Every item is
//!    planned before anything executes, so batches are all-or-nothing: a bad item
//!    anywhere costs no decryption, ledger entry, RNG draw or pool draw.
//! 2. **Compute** — the expensive, *pure* work: all planned ciphertexts of all items run
//!    as one data-parallel sweep over the shared `Arc`-backed keys
//!    ([`sectopk_crypto::par::par_map`]); the first failed operation in request order
//!    wins, as in a serial sweep.  Each item gets one typed result back (a `Done`).
//! 3. **Commit** — `commit`, the only place with effects (ledger records, RNG draws,
//!    nonce-pool consumption, response assembly), runs serially in item order over
//!    `(request, Done)` pairs.  Its nonces come from the engine's two pools the way S1's
//!    do: idle helpers fill a pool ahead of need, and a dry one computes a batch on the
//!    engine's worker count ([`sectopk_crypto::pool`]).
//!
//! Phase 2 is pure and phase 3 serial, so ledgers, metrics and ciphertext streams do not
//! depend on the worker count.  That count is [`S2Engine::set_intra_workers`]'s, or the
//! `SECTOPK_INTRA_PARALLEL` environment variable's; by default it is the engine's share of
//! the machine, evaluated at every request: all cores for an engine alone behind an
//! [`crate::transport::InProcessTransport`], `cores / min(W, connected sessions)` for one
//! seated in a [`crate::multiplex::MultiplexServer`] of `W` permits.  `plan` and `commit`
//! are the only matches over the [`S1Request`] variants, both without a wildcard: a new
//! request kind does not compile until both describe it (DESIGN.md §12).

// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::cmp::Ordering;

use num_bigint::BigUint;
use num_traits::Zero;

use sectopk_crypto::bigint::{mod_inverse, random_below, random_invertible, symmetric_sign};
use sectopk_crypto::keys::S2Keys;
use sectopk_crypto::paillier::{Ciphertext, PaillierPublicKey};
use sectopk_crypto::par::{cores, par_map, share};
use sectopk_crypto::pool::RandomnessPool;
use sectopk_crypto::prp::RandomPermutation;
use sectopk_crypto::Result;
use sectopk_ehl::EhlPlus;

use rand::SeedableRng;
use sectopk_crypto::chacha::ChaCha12Rng;
use sectopk_metrics::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::context::Stream;
use crate::dedup::{EncryptedBlinding, BLINDING_CIPHERTEXTS};
use crate::items::{rand_blind, rerandomize_item_pooled, ItemBlinding, ScoredItem};
use crate::ledger::{LeakageEvent, LeakageLedger};
use crate::transport::{DedupRequest, FilterTuple, MaskedSet, S1Request, S2Response, Select};
use crate::wire::WireError;

/// The most matrix cells an `EqMatrix`'s selections may read per ciphertext it ships
/// (`diffs` plus masked candidates).  Every `Select` family reads each cell once, and a
/// family's lines — jobs, one fresh encryption each — are at most its cells, so this
/// bounds both S2's selection loop and its reply by what the request actually carries.
/// S1's own requests read fewer than 4 (SecUpdate: four families over `tf` cells, with
/// `tf + 3f + t` ciphertexts); without a bound, a few hundred kilobytes of repeated
/// families would make S2 work and answer for megabytes.
const MAX_SELECTION_READS_PER_SHIPPED: usize = 8;

/// The longest ledger context label S2 accepts, in bytes.  S2 keeps a copy of it per
/// sign or equality bit it records (the longest label S1 sends is 13 bytes).
const MAX_CONTEXT_BYTES: usize = 64;

/// Refuse a context label longer than [`MAX_CONTEXT_BYTES`].
fn bounded_context(context: &str) -> EngineResult<()> {
    match context.len() <= MAX_CONTEXT_BYTES {
        true => Ok(()),
        false => Err(WireError::malformed(format!(
            "a {}-byte context label; at most {MAX_CONTEXT_BYTES} are accepted",
            context.len()
        ))),
    }
}

/// Result alias for the request handler: engine failures are [`WireError`] frames,
/// shipped back to S1 as typed `S2Response::Error` messages instead of panicking the
/// serving thread.
pub type EngineResult<T> = std::result::Result<T, WireError>;

/// Everything needed to stand up an [`S2Engine`]: the owner's S2 key view, S1's
/// published own public key, and the seed of S2's deterministic randomness.
///
/// This is the *provisioning payload* of the crypto cloud.  In-process transports build
/// the engine directly from it; the TCP transport ships it to the remote `sectopk-s2d`
/// listener during the connection handshake (Figure 1 of the paper: the data owner
/// uploads `(pk_p, sk_p)` to S2 — in a hardened deployment this handshake would run
/// over an authenticated, encrypted channel such as TLS; the reproduction ships it in
/// the clear).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineProvision {
    /// The owner's S2 key view (decryption keys; S2 stores no data).
    pub keys: S2Keys,
    /// S1's own public key `pk'` (the encrypted-blinding channel of SecDedup/SecFilter).
    pub s1_own_public: PaillierPublicKey,
    /// Seed of S2's local randomness and nonce-pool streams.
    pub seed: u64,
}

impl EngineProvision {
    /// Bundle the engine's constituents.
    pub fn new(keys: S2Keys, s1_own_public: PaillierPublicKey, seed: u64) -> Self {
        EngineProvision { keys, s1_own_public, seed }
    }

    /// Build the engine.  Two engines built from equal provisions answer identically —
    /// the transport-equivalence suite depends on that.
    pub fn build(&self) -> S2Engine {
        S2Engine::new(self.keys.clone(), self.s1_own_public.clone(), self.seed)
    }
}

/// The exact intra-query worker count `SECTOPK_INTRA_PARALLEL` names (≥ 1), an
/// override for every party built in this process.  `None` when it is unset or not a
/// positive number: then each party uses its share of the machine — S1 the cores divided
/// among the live S1 sessions of the process, an S2 engine those divided among the
/// engines that may compute beside it.
pub fn intra_workers_from_env() -> Option<usize> {
    std::env::var("SECTOPK_INTRA_PARALLEL")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 1)
}

/// The secret-key operations a request kind needs, each over its ciphertexts in order.
#[derive(Default)]
struct Need<'a> {
    /// Paillier `is_zero` (equality bits of EqMatrix / Dedup / Filter).
    is_zero: Vec<&'a Ciphertext>,
    /// Paillier signed decryption, reduced to its sign, ±1 (Compare; a zero is rejected).
    sign: Vec<&'a Ciphertext>,
    /// Paillier plain decryption (EqMatrix's masked candidates, MulBlinded operands).
    plain: Vec<&'a Ciphertext>,
}

/// What the compute phase hands `commit` for one request: its [`Need`]'s results.
#[derive(Default)]
struct Done {
    bits: Vec<bool>,
    signs: Vec<i8>,
    plains: Vec<BigUint>,
}

/// What `plan` states about one valid non-batch request.
struct Step<'a> {
    need: Need<'a>,
    /// Its `engine.requests.<kind>` counter.
    count: fn(&EngineMetrics) -> &Counter,
}

/// Cached metric handles of one engine — resolved once in
/// [`S2Engine::set_metrics_registry`], recorded lock-free in the handler.  All
/// defaults are no-ops, so an un-instrumented engine records nothing and never reads
/// the clock (see the `sectopk-metrics` crate docs for the determinism contract).
///
/// What lands where:
/// * `engine.requests.<kind>` counters — one per non-batch [`S1Request`] variant,
///   deterministic (a batch counts each inner request; a rejected one, nothing).
/// * `engine.batch_size` — histogram of inner-request counts per [`S1Request::Batch`];
///   its count is the number of batches.
/// * `engine.compute_ops` — histogram of decryption ops per request: the occupancy
///   the parallel compute phase fans out over the intra-query workers.
/// * `engine.handle_nanos` — wall-clock of [`S2Engine::handle`] (timing: asserted
///   structurally only, never on values).
#[derive(Clone, Debug, Default)]
struct EngineMetrics {
    eq_matrix: Counter,
    compare: Counter,
    dedup: Counter,
    filter: Counter,
    mul_blinded: Counter,
    batch_size: Histogram,
    compute_ops: Histogram,
    handle_nanos: Histogram,
}

/// The crypto cloud S2: keys, randomness, nonce pools, ledger, and the request handler.
#[derive(Debug)]
pub struct S2Engine {
    keys: S2Keys,
    /// S1's *own* public key `pk'`, published at setup time; S2 uses it to transport
    /// blinding randomness back to S1 in SecDedup / SecFilter (Algorithms 7 and 12).
    s1_own_public: PaillierPublicKey,
    rng: ChaCha12Rng,
    /// Precomputed nonces for the *shared* Paillier key — every `Enc(t)` bit, selection,
    /// re-encryption and item re-randomization the engine returns draws from here.
    pool: RandomnessPool,
    /// Precomputed nonces for S1's own key `pk'` (the encrypted-blinding channel).
    own_pool: RandomnessPool,
    ledger: LeakageLedger,
    /// An exact worker count for the compute phase (1 = serial); `None`: the share.
    intra_workers: Option<usize>,
    /// Engines that may compute at the same time as this one, itself included — the
    /// divisor of its share.  1 (alone) unless the pool seating it says otherwise at
    /// each request.
    crowd: usize,
    /// Cached metric handles (all no-ops until [`S2Engine::set_metrics_registry`]).
    metrics: EngineMetrics,
}

impl S2Engine {
    /// Build the engine from the owner's S2 key view, S1's published own public key, and
    /// a seed for S2's local randomness (the nonce pools derive their streams from the
    /// same seed, so two engines built alike answer identically — the
    /// transport-equivalence tests depend on that).
    pub fn new(keys: S2Keys, s1_own_public: PaillierPublicKey, rng_seed: u64) -> Self {
        let pool = RandomnessPool::new(&keys.paillier_public, Stream::S2Pool.seed(rng_seed));
        let own_pool = RandomnessPool::new(&s1_own_public, Stream::S2OwnPool.seed(rng_seed));
        S2Engine {
            keys,
            s1_own_public,
            rng: ChaCha12Rng::seed_from_u64(Stream::S2Local.seed(rng_seed)),
            pool,
            own_pool,
            ledger: LeakageLedger::new(),
            intra_workers: intra_workers_from_env(),
            crowd: 1,
            metrics: EngineMetrics::default(),
        }
    }

    /// Install metric handles from `registry` (per-request-kind counters, batch-size
    /// and compute-occupancy histograms, handler timing).  Metrics are observe-only:
    /// responses, ledgers and nonce streams are byte-identical with or without them
    /// (pinned by `tests/metrics_invariance.rs`).
    pub fn set_metrics_registry(&mut self, registry: &Registry) {
        self.metrics = EngineMetrics {
            eq_matrix: registry.counter("engine.requests.eq_matrix"),
            compare: registry.counter("engine.requests.compare"),
            dedup: registry.counter("engine.requests.dedup"),
            filter: registry.counter("engine.requests.filter"),
            mul_blinded: registry.counter("engine.requests.mul_blinded"),
            batch_size: registry.histogram("engine.batch_size"),
            compute_ops: registry.histogram("engine.compute_ops"),
            handle_nanos: registry.histogram("engine.handle_nanos"),
        };
    }

    /// Number of worker threads the compute phase uses for the next request: the
    /// explicit count, else the engine's share of the machine.
    pub fn intra_workers(&self) -> usize {
        self.intra_workers.unwrap_or_else(|| share(cores(), self.crowd))
    }

    /// Set an exact intra-query worker count (minimum 1; 1 = fully serial), whatever
    /// else runs beside the engine.  Results, ledgers and metrics are byte-identical
    /// for every value — only wall-clock changes.
    pub fn set_intra_workers(&mut self, workers: usize) {
        self.intra_workers = Some(workers.max(1));
    }

    /// How many engines may compute at the same time as this one, itself included.
    pub(crate) fn set_crowd(&mut self, engines: usize) {
        self.crowd = engines;
    }

    /// Everything S2 has observed beyond its inputs.
    pub fn ledger(&self) -> &LeakageLedger {
        &self.ledger
    }

    /// Clear the ledger (e.g. between queries).
    pub fn reset(&mut self) {
        self.ledger.clear();
    }

    /// Process one request and produce the response that travels back to S1.
    ///
    /// Failures are typed [`WireError`]s: the transport encodes them as
    /// `S2Response::Error` frames, so a malformed request is answered, not panicked on,
    /// and the engine keeps serving subsequent requests.  Runs the plan → compute →
    /// commit pipeline of the module doc; byte-identical to serial execution for any
    /// worker count.
    pub fn handle(&mut self, request: &S1Request) -> EngineResult<S2Response> {
        // Timed only when a registry is installed (`start` reads no clock otherwise);
        // nothing below reads a metric back, so instrumentation changes no byte.
        let timer = self.metrics.handle_nanos.start();
        // The one place `Batch` is unwrapped: every request is a batch of n ≥ 1 items.
        let result = match request {
            S1Request::Batch(items) => self.prepare(items).and_then(|dones| {
                self.metrics.batch_size.observe(items.len() as u64);
                let responses = items.iter().zip(dones).map(|(item, done)| self.commit(item, done));
                responses.collect::<EngineResult<_>>().map(S2Response::Batch)
            }),
            single => self.prepare(std::slice::from_ref(single)).and_then(|mut dones| {
                let done =
                    dones.pop().ok_or_else(|| WireError::internal("a request went unplanned"))?;
                self.commit(single, done)
            }),
        };
        self.metrics.handle_nanos.stop(timer);
        result
    }

    /// Phases 1 and 2 for the items of one request: plan every item, count them and run
    /// their decryptions.  Returns one [`Done`] per item.
    fn prepare(&mut self, items: &[S1Request]) -> EngineResult<Vec<Done>> {
        let steps = items.iter().map(|item| self.plan(item)).collect::<EngineResult<Vec<_>>>()?;
        for step in &steps {
            (step.count)(&self.metrics).incr();
        }
        self.refresh_refill_workers();
        self.compute(&steps)
    }

    /// Hand both nonce pools the engine's current worker count: a dry pool's batch runs
    /// on it, and idle helpers fill a pool ahead of need only while it is above 1.
    /// Called at every request, so the pools follow the share as sessions come and go.
    fn refresh_refill_workers(&mut self) {
        let workers = self.intra_workers();
        self.pool.set_refill_workers(workers);
        self.own_pool.set_refill_workers(workers);
    }

    /// Phase 1: validate one non-batch request and describe it.
    fn plan<'a>(&self, request: &'a S1Request) -> EngineResult<Step<'a>> {
        let mut need = Need::default();
        // Every ciphertext must be a group element of its key, `[1, N²)` (S1's own key:
        // `[1, N'²)`) — also those S2 only operates on homomorphically.
        let (pk, own_pk) = (&self.keys.paillier_public, &self.s1_own_public);
        let count: fn(&EngineMetrics) -> &Counter = match request {
            S1Request::EqMatrix { diffs, cols, context, sets, select, .. } => {
                bounded_context(context)?;
                // At least one row and one column, every row full: S2 never sizes a loop
                // or a reply by a number a request only claims.
                let rows = diffs.len().checked_div(*cols).unwrap_or(0);
                if rows == 0 || rows * cols != diffs.len() {
                    return Err(WireError::malformed(format!(
                        "{} equality bits do not fill rows of {cols} columns",
                        diffs.len()
                    )));
                }
                if sets.iter().any(|MaskedSet(per, masked)| masked.len() != per.len(rows, *cols)) {
                    return Err(WireError::malformed("a masked set does not fit the matrix"));
                }
                let per_of = |set: usize| sets.get(set).map(|MaskedSet(per, _)| *per);
                let shipped = diffs.len() + sets.iter().map(|set| set.1.len()).sum::<usize>();
                let reads = select.len().saturating_mul(diffs.len());
                if reads > MAX_SELECTION_READS_PER_SHIPPED.saturating_mul(shipped) {
                    return Err(WireError::malformed(format!(
                        "{} selection families over {} cells from {shipped} ciphertexts",
                        select.len(),
                        diffs.len()
                    )));
                }
                for &Select(per, from, otherwise) in select {
                    if per_of(from).is_none() || otherwise.is_some_and(|y| per_of(y) != Some(per)) {
                        return Err(WireError::malformed("a selection names a set it cannot read"));
                    }
                }
                need.is_zero = diffs.iter().collect();
                need.plain = sets.iter().flat_map(|MaskedSet(_, masked)| masked).collect();
                |m| &m.eq_matrix
            }
            S1Request::Compare { blinded, context } => {
                bounded_context(context)?;
                need.sign = blinded.iter().collect();
                |m| &m.compare
            }
            S1Request::Dedup(dedup) => {
                let l = dedup.items.len();
                if dedup.blindings.len() != l {
                    return Err(WireError::malformed("one blinding per dedup item required"));
                }
                // S1 pairs every two items once, so the `l × l` table `commit_dedup`
                // builds is bounded by twice the ciphertexts the request actually ships.
                let pairs = dedup.pair_indices.len();
                if l.checked_mul(l.saturating_sub(1)).map(|twice| twice / 2) != Some(pairs) {
                    return Err(WireError::malformed(format!("{l} dedup items need every pair")));
                }
                if dedup.matrix.len() != pairs {
                    return Err(WireError::malformed("dedup matrix arity mismatch"));
                }
                if dedup.pair_indices.iter().any(|&(a, b)| a >= b || b >= l) {
                    return Err(WireError::malformed("dedup pair index out of order or range"));
                }
                // `commit_dedup` zips each item's masks with its ciphertexts: a short list
                // would silently truncate the reply.
                for (item, blinding) in dedup.items.iter().zip(dedup.blindings.iter()) {
                    if blinding.packed.len() != BLINDING_CIPHERTEXTS {
                        return Err(WireError::malformed(
                            "a dedup blinding must pack its item's masks two per ciphertext",
                        ));
                    }
                    in_range(pk, [item.ehl.block(), &item.worst, &item.best])?;
                    in_range(own_pk, &blinding.packed)?;
                }
                need.is_zero = dedup.matrix.iter().collect();
                |m| &m.dedup
            }
            S1Request::Filter { tuples } => {
                if tuples.iter().any(|t| t.attribute_masks.len() != t.attributes.len()) {
                    return Err(WireError::malformed("one mask per filter attribute required"));
                }
                for t in tuples {
                    in_range(pk, &t.attributes)?;
                    in_range(own_pk, t.attribute_masks.iter().chain([&t.score_unblinder]))?;
                }
                need.is_zero = tuples.iter().map(|t| &t.score).collect();
                |m| &m.filter
            }
            S1Request::MulBlinded { pairs } => {
                need.plain = pairs.iter().flat_map(|(a, b)| [a, b]).collect();
                |m| &m.mul_blinded
            }
            // One level of batching is all the protocols need.
            S1Request::Batch(_) => return Err(WireError::malformed("nested Batch requests")),
        };
        // Whatever S2 decrypts is a shared-key ciphertext.
        in_range(pk, need.is_zero.iter().chain(&need.sign).chain(&need.plain).copied())?;
        Ok(Step { need, count })
    }

    /// Phase 2: run every planned decryption as one flat sweep over up to
    /// [`Self::intra_workers`] threads and regroup the results per step.  The operations
    /// are pure, so results do not depend on scheduling, and the first failed one *in
    /// request order* wins, as a serial sweep would have returned.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pure parallel phase and the engine's single decrypt site: it decrypts into \
                  typed per-request results but observes nothing; every result is consumed by \
                  commit(), which records each reveal in the LeakageLedger before acting on it \
                  (asserted by the ledger golden suites)"
    )]
    fn compute(&self, steps: &[Step<'_>]) -> EngineResult<Vec<Done>> {
        enum Op {
            IsZero(Ciphertext),
            Sign(Ciphertext),
            Plain(Ciphertext),
        }
        enum Out {
            Bit(bool),
            Sign(i8),
            Plain(BigUint),
        }

        let mut ops = Vec::new();
        for Step { need, .. } in steps {
            ops.extend(need.is_zero.iter().map(|&c| Op::IsZero(c.clone())));
            ops.extend(need.sign.iter().map(|&c| Op::Sign(c.clone())));
            ops.extend(need.plain.iter().map(|&c| Op::Plain(c.clone())));
        }
        self.metrics.compute_ops.observe(ops.len() as u64);

        let sk = self.keys.paillier_secret.clone();
        let outs = par_map(self.intra_workers(), ops, move |op| match op {
            Op::IsZero(c) => sk.is_zero(c).map(Out::Bit),
            Op::Sign(c) => sk.decrypt(c).map(|v| match symmetric_sign(&v, sk.public_key().n()) {
                Ordering::Less => Out::Sign(-1),
                Ordering::Equal => Out::Sign(0),
                Ordering::Greater => Out::Sign(1),
            }),
            Op::Plain(c) => sk.decrypt(c).map(Out::Plain),
        });

        // Sort the flat results by type, then deal each step as many as it asked for.
        let (mut bits, mut signs, mut plains) = (vec![], vec![], vec![]);
        for out in outs {
            match out? {
                // S1 compares odd differences, which are never zero: a zero would be a tie
                // this engine must not tell S1 about (DESIGN.md §5).
                Out::Sign(0) => {
                    return Err(WireError::malformed("a blinded comparison decrypts to zero"))
                }
                Out::Bit(b) => bits.push(b),
                Out::Sign(s) => signs.push(s),
                Out::Plain(p) => plains.push(p),
            }
        }
        let (mut bits, mut signs, mut plains) =
            (bits.into_iter(), signs.into_iter(), plains.into_iter());
        let deal = steps.iter().map(|Step { need, .. }| Done {
            bits: bits.by_ref().take(need.is_zero.len()).collect(),
            signs: signs.by_ref().take(need.sign.len()).collect(),
            plains: plains.by_ref().take(need.plain.len()).collect(),
        });
        Ok(deal.collect())
    }

    /// Phase 3: commit one planned request with its compute results.  Every observable
    /// effect happens here — ledger records, RNG draws, pool consumption — serially, in
    /// item order.
    fn commit(&mut self, request: &S1Request, done: Done) -> EngineResult<S2Response> {
        match request {
            S1Request::EqMatrix { cols, context, depth, sets, select, disclose_rows, .. } => {
                for &bit in &done.bits {
                    self.record_eq_bit(bit, context, *depth);
                }
                if !done.plains.is_empty() {
                    let count = done.plains.len();
                    self.ledger
                        .record(LeakageEvent::MaskedValues { context: context.clone(), count });
                }
                self.select_in_plaintext(*cols, sets, select, *disclose_rows, done)
            }
            S1Request::Compare { context, .. } => {
                for _ in &done.signs {
                    self.ledger.record(LeakageEvent::BlindedSign { context: context.clone() });
                }
                Ok(S2Response::Signs(done.signs))
            }
            S1Request::Dedup(dedup) => self.commit_dedup(dedup, done.bits),
            S1Request::Filter { tuples } => self.commit_filter(tuples, done.bits),
            S1Request::MulBlinded { .. } => {
                let pk = self.keys.paillier_public.clone();
                let mut products = Vec::with_capacity(done.plains.len() / 2);
                let mut plains = done.plains.iter();
                while let (Some(x), Some(y)) = (plains.next(), plains.next()) {
                    products.push(self.pool.encrypt(&((x * y) % pk.n()))?);
                }
                Ok(S2Response::Products(products))
            }
            // A `Batch` item never passes `plan`; the session survives an edit that lets one.
            S1Request::Batch(_) => Err(WireError::internal("a nested Batch reached commit")),
        }
    }

    /// Record one already-decrypted `⊖` equality bit (the equality pattern `EP^d` is
    /// S2's designed leakage).
    fn record_eq_bit(&mut self, equal: bool, context: &str, depth: Option<usize>) {
        self.ledger.record(LeakageEvent::EqualityBit {
            context: context.to_string(),
            depth,
            equal,
        });
    }

    /// The S2 phase of an equality matrix whose bits and masked candidates were observed:
    /// select in plaintext and answer with fresh encryptions — `Enc(t)` per cell and one
    /// ciphertext per job — plus the disclosed row bits if asked for.
    fn select_in_plaintext(
        &mut self,
        cols: usize,
        sets: &[MaskedSet],
        select: &[Select],
        disclose_rows: bool,
        done: Done,
    ) -> EngineResult<S2Response> {
        let (bits, plains) = (done.bits, done.plains);
        let n = self.keys.paillier_public.n().clone();
        let rows = bits.len() / cols.max(1);
        // Each set's plaintexts, in the order `plan` named them.
        let mut plains = plains.into_iter();
        let values: Vec<Vec<BigUint>> = sets
            .iter()
            .map(|MaskedSet(_, masked)| plains.by_ref().take(masked.len()).collect())
            .collect();
        let value = |set: usize, at: usize| {
            values
                .get(set)
                .and_then(|v| v.get(at))
                .ok_or_else(|| WireError::internal("unplanned index"))
        };

        let mut sums = Vec::new();
        for &Select(per, from, otherwise) in select {
            let MaskedSet(from_per, _) =
                sets.get(from).ok_or_else(|| WireError::internal("unplanned set"))?;
            for line in 0..per.len(rows, cols) {
                let (mut sum, mut set) = (BigUint::zero(), 0usize);
                for cell in per.cells(rows, cols, line) {
                    if bits.get(cell).copied().unwrap_or(false) {
                        sum += value(from, from_per.index(cols, cell / cols, cell % cols))?;
                        set += 1;
                    }
                }
                // `(1 − Σ t)·y`, with `1 − Σ t` taken modulo `N`.
                if let Some(y) = otherwise {
                    sum += value(y, line)? * ((&n + BigUint::from(1u32) - BigUint::from(set)) % &n);
                }
                sums.push(sum % &n);
            }
        }
        let encrypted_bits = match select.is_empty() {
            true => Vec::new(),
            false => {
                bits.iter().map(|&b| self.pool.encrypt_u64(u64::from(b))).collect::<Result<_>>()?
            }
        };
        let selected = sums.iter().map(|v| self.pool.encrypt(v)).collect::<Result<_>>()?;
        let row_matched = match disclose_rows {
            true => bits.chunks(cols.max(1)).map(|row| row.contains(&true)).collect(),
            false => Vec::new(),
        };
        Ok(S2Response::EqBits { bits: encrypted_bits, selected, row_matched })
    }

    /// The S2 phase of `SecDedup` / `SecDupElim` (Algorithm 7 / §10.1): observe the
    /// (pre-decrypted) permuted equality matrix, neutralise (or drop) duplicates, layer
    /// fresh blinding and a second permutation on the survivors.
    #[expect(
        clippy::indexing_slicing,
        reason = "l-by-l matrix indexed by pair_indices that plan() bounds-checked against the \
                  item count before the commit phase runs, and the length-l duplicate flags \
                  indexed by loop counters bounded by l"
    )]
    fn commit_dedup(&mut self, dedup: &DedupRequest, bits: Vec<bool>) -> EngineResult<S2Response> {
        let l = dedup.items.len();
        for &bit in &bits {
            self.record_eq_bit(bit, "sec_dedup", Some(dedup.depth));
        }

        let mut equal = vec![vec![false; l]; l];
        for (&(a, b), &is_eq) in dedup.pair_indices.iter().zip(bits.iter()) {
            equal[a][b] = is_eq;
            equal[b][a] = is_eq;
        }

        // The first (lowest permuted index) member of every duplicate group survives.
        let mut is_duplicate = vec![false; l];
        for b in 0..l {
            is_duplicate[b] = (0..b).any(|a| !is_duplicate[a] && equal[a][b]);
        }

        let pk = self.keys.paillier_public.clone();
        let own_pk = self.s1_own_public.clone();
        let z = pk.sentinel_z();
        let mut processed: Vec<(ScoredItem, EncryptedBlinding)> = Vec::with_capacity(l);
        for ((received_item, received_blinding), &duplicate) in
            dedup.items.iter().zip(dedup.blindings.iter()).zip(is_duplicate.iter())
        {
            if duplicate {
                if dedup.eliminate {
                    continue;
                }
                // Replace: fresh garbage id, scores that will unblind to Z = −1.
                let beta2 = random_below(&mut self.rng, pk.n());
                let gamma2 = random_below(&mut self.rng, pk.n());
                let garbage = random_below(&mut self.rng, pk.n());
                let replaced = ScoredItem {
                    ehl: EhlPlus::new(self.pool.encrypt(&garbage)?),
                    worst: self.pool.encrypt(&((&z + &beta2) % pk.n()))?,
                    best: self.pool.encrypt(&((&z + &gamma2) % pk.n()))?,
                };
                // Masks (0, β₂, γ₂): the garbage block stays garbage.
                let masks = ItemBlinding { alpha: BigUint::zero(), beta: beta2, gamma: gamma2 };
                processed.push((replaced, EncryptedBlinding::encrypt(&masks, &mut self.own_pool)?));
            } else {
                // Keep: layer fresh blinding on top (so S1 cannot tell kept from replaced)
                // and update the encrypted randomness accordingly.
                let extra = ItemBlinding::sample(&pk, &mut self.rng);
                let mut reblinded = rand_blind(received_item, &extra, &pk);
                // Fresh ciphertexts so S1 cannot correlate with what it sent.
                reblinded = rerandomize_item_pooled(&reblinded, &mut self.pool);

                // One `add_plain` and one re-randomization per ciphertext adds both of its
                // masks at once.
                let packed = received_blinding.packed.iter().zip(extra.packed(&own_pk));
                let packed =
                    packed.map(|(c, m)| self.own_pool.rerandomize(&own_pk.add_plain(c, &m)));
                let updated_blinding = EncryptedBlinding { packed: packed.collect() };
                processed.push((reblinded, updated_blinding));
            }
        }

        // Second permutation π' before returning.
        let pi_prime = RandomPermutation::sample(processed.len(), &mut self.rng);
        let returned = pi_prime.permute(&processed);
        let (items, blindings) = returned.into_iter().unzip();
        Ok(S2Response::Dedup { items, blindings })
    }

    /// The S2 phase of `SecFilter` (Algorithm 12): drop blinded all-zero tuples (their
    /// scores were decrypted in the compute phase), re-blind and re-permute the
    /// survivors, updating S1's encrypted unblinders.
    fn commit_filter(
        &mut self,
        tuples: &[FilterTuple],
        score_is_zero: Vec<bool>,
    ) -> EngineResult<S2Response> {
        let pk = self.keys.paillier_public.clone();
        let own_pk = self.s1_own_public.clone();

        let mut survivors: Vec<FilterTuple> = Vec::new();
        for (t, zero) in tuples.iter().zip(score_is_zero) {
            if zero {
                continue; // blinded score was zero: did not satisfy the join condition
            }
            // Multiplicative re-blinding of the score with γ; additive re-blinding of the
            // attributes with Γ; the unblinders under pk' are updated homomorphically.
            let gamma = random_invertible(&mut self.rng, pk.n());
            let gamma_inv = mod_inverse(&gamma, pk.n())?;
            let score = pk.mul_plain(&t.score, &gamma);
            let score_unblinder =
                self.own_pool.rerandomize(&own_pk.mul_plain(&t.score_unblinder, &gamma_inv));

            let mut attributes = Vec::with_capacity(t.attributes.len());
            let mut attribute_masks = Vec::with_capacity(t.attributes.len());
            for (a, mask_cipher) in t.attributes.iter().zip(t.attribute_masks.iter()) {
                let extra = random_below(&mut self.rng, pk.n());
                attributes.push(self.pool.rerandomize(&pk.add_plain(a, &extra)));
                attribute_masks
                    .push(self.own_pool.rerandomize(&own_pk.add_plain(mask_cipher, &extra)));
            }
            survivors.push(FilterTuple { score, attributes, score_unblinder, attribute_masks });
        }
        self.ledger.record(LeakageEvent::JoinMatchCount(survivors.len()));
        if !survivors.is_empty() {
            let pi_prime = RandomPermutation::sample(survivors.len(), &mut self.rng);
            survivors = pi_prime.permute(&survivors);
        }
        Ok(S2Response::Filter { survivors })
    }
}

/// Refuse any ciphertext outside `key`'s group `[1, N²)` before it is decrypted or used.
fn in_range<'c>(
    key: &PaillierPublicKey,
    cts: impl IntoIterator<Item = &'c Ciphertext>,
) -> EngineResult<()> {
    cts.into_iter()
        .try_for_each(|c| key.validate(c))
        .map_err(|_| WireError::malformed("a ciphertext lies outside its key's group"))
}
