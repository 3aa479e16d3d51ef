//! Low-level two-party primitives shared by all sub-protocols — the S1 side.  Every
//! exchange here is a typed [`S1Request`] round trip through the transport; the matching
//! S2 logic lives in [`crate::engine::S2Engine`].
//!
//! * batched EHL equality tests (the `⊖` → decrypt → `E2(t)` exchange at the heart of
//!   SecWorst / SecBest / SecDedup / SecUpdate / SecJoin), with optional row/column
//!   aggregates derived by S2 from the bits it legitimately decrypted,
//! * `RecoverEnc` (Algorithm 5) — stripping the outer Damgård–Jurik layer without letting
//!   S2 see the inner plaintext,
//! * encrypted one-of-many selection `Enc(Σ t_i·x_i + (1 − Σ t_i)·y)` from `E2(t_i)`,
//!   `Enc(x_i)` and `Enc(y)` (`SelectJob`; `Enc(t·x)` is its one-term case),
//! * `EncCompare` — the encrypted comparison of \[11\], realised here as a
//!   blind-flip-and-scale protocol (see the SECURITY note below),
//! * a batched comparison against a common threshold (used by the halting check),
//! * the blinded-product exchange the SkNN baseline builds its SM protocol from.
//!
//! # Arithmetic budget of the S1 loops
//!
//! A query is compute-bound on a LAN, and at the paper's key sizes an extended-Euclid
//! inversion costs more than an exponentiation of a short scalar.  So no loop here
//! inverts per element or exponentiates the same ciphertext twice (DESIGN.md §10):
//! `TwoClouds::eq_diffs` and [`TwoClouds::compare_many`] negate all their right-hand
//! sides with one batch inversion per call, every `⊖` is one multi-exponentiation, and
//! `TwoClouds::select_many` evaluates selection and `RecoverEnc` blinding as one
//! inversion-free multi-exponentiation per job.  A job is one *decision*, not one
//! equality bit: where at most one bit of a row or column can be set (a SecBest row, a
//! SecUpdate column) all its cells are terms of a single job, so S1 pays one squaring
//! chain and S2 one outer-layer decryption per row instead of per cell — `m(m−1)`
//! instead of `m(m−1)(d+2)` per depth in SecBest, `2·|T|` instead of `(2f+1)·|T|` per
//! merge in SecUpdate.  A single-term job sends S2 exactly what the paper's two-step
//! sequence would.
//!
//! # SECURITY note on the comparison realisation
//!
//! The paper treats EncCompare as a black box from Bost et al. \[11\].  Our realisation has
//! S1 send the *odd* difference `Enc(±α·(2(a−b) − 1))` for a fresh random sign flip and a
//! fresh random positive scale `α`; S2 decrypts and reports only the sign of the blinded
//! value.  For integers `2(a−b) − 1` is never zero and is negative exactly when `a ≤ b`,
//! so a tie looks like any other outcome: S2 observes a sign bit that is uniform thanks
//! to the flip (a zero decrypt is a malformed request, and `Signs` carries only ±1), and
//! a magnitude scaled by an unknown `α < 2¹⁶` — which shows it every compared difference
//! to within a factor 2¹⁶ (DESIGN.md §5).  S1 learns the comparison outcome, which is
//! what the functionality is supposed to deliver.  This keeps the message pattern, round
//! count and asymptotic cost of \[11\] while remaining a few hundred lines; the residual
//! leakage is recorded in the ledgers and called out in DESIGN.md.

use num_bigint::BigUint;
use num_traits::Zero;
use rand::Rng;
use std::collections::BTreeMap;

use crate::error::{ProtocolError, Result};
use sectopk_crypto::damgard_jurik::LayeredCiphertext;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::par::par_map;
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::ledger::LeakageEvent;
use crate::transport::{EqAggregates, EqWants, S1Request, S2Response};

/// Upper bound (exclusive) for the random comparison scale α.  Keeping α small bounds
/// the blinded magnitude by `α · |2(a − b) ± 1| < 2^16 · 2^81 ≪ N/2`, so the signed
/// interpretation never wraps for the score ranges the protocols produce.
const COMPARE_SCALE_BOUND: u64 = 1 << 16;

/// Result of a batched EHL equality exchange: the outer-layer encryptions `E2(t_i)`
/// returned to S1.  The plaintext bits are known only to S2 (its `EP^d` leakage) and
/// never cross back to S1-side protocol code.
#[derive(Debug, Clone)]
pub struct EqBatch {
    /// Outer-layer encryptions `E2(t_i)` returned to S1.
    pub e2_bits: Vec<LayeredCiphertext>,
}

/// One equality-matrix exchange prepared on the S1 side: the randomized `⊖` ciphertexts
/// in row-major order plus the aggregates S2 should derive.
#[derive(Debug, Clone)]
pub(crate) struct EqPlan {
    /// Row-major `⊖` ciphertexts (`diffs.len() % cols == 0`).
    pub diffs: Vec<Ciphertext>,
    /// Number of matrix columns.
    pub cols: usize,
    /// Calling sub-protocol (ledger context).
    pub context: &'static str,
    /// Scan depth, if applicable.
    pub depth: Option<usize>,
    /// Aggregates to request.
    pub want: EqWants,
}

/// The outcome of one [`EqPlan`]: the `E2(t_ij)` bits plus any requested aggregates.
#[derive(Debug, Clone)]
pub(crate) struct EqOutcome {
    /// `E2(t_ij)` in row-major order.
    pub bits: Vec<LayeredCiphertext>,
    /// The requested aggregates.
    pub aggregates: EqAggregates,
}

/// One encrypted one-of-many selection `([(E2(t_i), Enc(x_i))], Enc(y))` ↦
/// `Enc(Σ t_i·x_i + (1 − Σ t_i)·y)`: the `x_i` whose bit is set, `y` when none is.
///
/// **At most one `t_i` may be 1.**  S1 cannot see the bits, so the job's author must
/// know it from how the bits were produced — one equality row or column in which an
/// object can occur only once (DESIGN.md §10 says where that holds).  Bits without that
/// guarantee get one single-term job each and are summed afterwards, as SecWorst does;
/// a fused job with two set bits recovers a sum of ciphertexts, which decrypts to
/// garbage, not to an error.
#[derive(Debug)]
pub(crate) struct SelectJob<'a> {
    /// The candidates `(E2(t_i), Enc(x_i))`.
    pub terms: Vec<(&'a LayeredCiphertext, &'a Ciphertext)>,
    /// `Enc(y)`, the value when no bit is set; `None` stands for a fresh `Enc(0)`.
    pub otherwise: Option<&'a Ciphertext>,
}

impl<'a> SelectJob<'a> {
    /// The single-term job of Algorithm 4 line 6: `Enc(t·x + (1−t)·y)`.
    pub(crate) fn gate(
        bit: &'a LayeredCiphertext,
        if_true: &'a Ciphertext,
        otherwise: Option<&'a Ciphertext>,
    ) -> Self {
        SelectJob { terms: vec![(bit, if_true)], otherwise }
    }
}

/// The error raised when S2 answers with the wrong response kind (shared by every
/// request site in the crate).
pub(crate) fn unexpected(response: &S2Response, expected: &str) -> ProtocolError {
    ProtocolError::transport(format!("expected {expected} response, got {response:?}"))
}

impl TwoClouds {
    /// Run any number of independent equality-matrix exchanges — of one sub-protocol or
    /// of several (SecWorst and SecBest share a depth's exchange) — in plan order, all
    /// in a single round trip ([`S1Request::Batch`]): the one equality round of a step's
    /// budget.
    pub(crate) fn run_eq_plans(&mut self, plans: Vec<EqPlan>) -> Result<Vec<EqOutcome>> {
        let mut requests: Vec<S1Request> = plans
            .into_iter()
            .filter(|p| !p.diffs.is_empty())
            .map(|p| S1Request::EqMatrix {
                diffs: p.diffs,
                cols: p.cols,
                context: p.context.to_string(),
                depth: p.depth,
                want: p.want,
            })
            .collect();
        let responses: Vec<S2Response> = match requests.len() {
            0 => return Ok(Vec::new()),
            1 => vec![self.round(requests.pop().expect("one request"))?],
            _ => match self.round(S1Request::Batch(requests))? {
                S2Response::Batch(responses) => responses,
                other => return Err(unexpected(&other, "Batch")),
            },
        };
        responses
            .into_iter()
            .map(|r| match r {
                S2Response::EqBits { bits, aggregates } => Ok(EqOutcome { bits, aggregates }),
                other => Err(unexpected(&other, "EqBits")),
            })
            .collect()
    }

    /// Ship an element-wise exchange as one request carrying all `items`.  `build`
    /// constructs the request and `extract` pulls the per-element payload out of the
    /// matching response; the reply arity is checked against the input.
    fn round_elementwise<T, U>(
        &mut self,
        items: Vec<T>,
        build: impl Fn(Vec<T>) -> S1Request,
        extract: impl Fn(S2Response) -> Result<Vec<U>>,
    ) -> Result<Vec<U>> {
        let expected = items.len();
        if expected == 0 {
            return Ok(Vec::new());
        }
        let out = extract(self.round(build(items))?)?;
        if out.len() != expected {
            return Err(ProtocolError::transport(format!(
                "element-wise exchange arity mismatch: sent {expected}, received {}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Compute the randomized `⊖` differences of `pairs` with S1's randomness.
    ///
    /// The masking scalars are drawn serially in pair-major, block-minor order (exactly
    /// the order the one-pair-at-a-time path consumes S1's RNG in).  The distinct
    /// right-hand operands of the call are then negated together — one modular
    /// inversion per call, however many pairs — and the pure `⊖` arithmetic, one
    /// multi-exponentiation per pair, runs data-parallel over
    /// [`TwoClouds::intra_workers`] threads.  The ciphertexts are byte-identical to
    /// [`EhlPlus::eq_test_with_randomness`] per pair, for every worker count.
    pub(crate) fn eq_diffs(&mut self, pairs: &[(&EhlPlus, &EhlPlus)]) -> Vec<Ciphertext> {
        let pk = self.s1.keys.paillier_public.clone();
        let randomness: Vec<Vec<BigUint>> = pairs
            .iter()
            .map(|(a, _)| {
                (0..a.len())
                    .map(|_| sectopk_crypto::bigint::random_invertible(&mut self.s1.rng, pk.n()))
                    .collect()
            })
            .collect();

        // An equality matrix names each right-hand operand once per row.
        let mut distinct: Vec<&EhlPlus> = Vec::new();
        let mut slot_of: BTreeMap<*const EhlPlus, usize> = BTreeMap::new();
        let slots: Vec<usize> = pairs
            .iter()
            .map(|&(_, b)| {
                *slot_of.entry(b).or_insert_with(|| {
                    distinct.push(b);
                    distinct.len() - 1
                })
            })
            .collect();
        let negated = EhlPlus::negate_many(&distinct, &pk);

        let jobs: Vec<(&EhlPlus, &EhlPlus, Vec<BigUint>)> = pairs
            .iter()
            .zip(slots)
            .zip(randomness)
            .map(|((&(a, _), slot), rs)| (a, &negated[slot], rs))
            .collect();
        par_map(self.intra_workers(), &jobs, |(a, neg_b, rs)| a.eq_test_negated(neg_b, &pk, rs))
    }

    /// Batched EHL equality test: for every pair `(a_i, b_i)` S1 computes the randomized
    /// `a_i ⊖ b_i`, ships the batch to S2, S2 decrypts each (learning the equality bit,
    /// its designed leakage) and replies with `E2(t_i)` where `t_i = 1` iff the pair
    /// hides the same object.
    ///
    /// `context` labels the calling sub-protocol and `depth` the scan depth for the
    /// equality-pattern bookkeeping.
    pub fn eq_batch(
        &mut self,
        pairs: &[(&EhlPlus, &EhlPlus)],
        context: &'static str,
        depth: Option<usize>,
    ) -> Result<EqBatch> {
        if pairs.is_empty() {
            return Ok(EqBatch { e2_bits: Vec::new() });
        }
        let diffs = self.eq_diffs(pairs);
        let cols = diffs.len();
        let outcome = self
            .run_eq_plans(vec![EqPlan { diffs, cols, context, depth, want: EqWants::none() }])?
            .pop()
            .expect("one plan in, one outcome out");
        Ok(EqBatch { e2_bits: outcome.bits })
    }

    /// Draw `count` `RecoverEnc` blindings `(r, Enc(r))`: `r` from S1's RNG, the
    /// encryption nonce from S1's pool, serially and in item order.
    fn draw_masks(&mut self, count: usize) -> Result<(Vec<BigUint>, Vec<Ciphertext>)> {
        let pk = self.s1.keys.paillier_public.clone();
        let mut masks = Vec::with_capacity(count);
        let mut enc_masks = Vec::with_capacity(count);
        for _ in 0..count {
            let r = sectopk_crypto::bigint::random_below(&mut self.s1.rng, pk.n());
            enc_masks.push(self.s1.pool.encrypt(&r)?);
            masks.push(r);
        }
        Ok((masks, enc_masks))
    }

    /// The round and the unblinding of `RecoverEnc`: S2 strips the outer layer from
    /// each `E2(Enc(c_i + r_i))`, S1 subtracts `r_i = masks[i]` again.
    fn recover_blinded(
        &mut self,
        blinded: Vec<LayeredCiphertext>,
        masks: Vec<BigUint>,
    ) -> Result<Vec<Ciphertext>> {
        let pk = self.s1.keys.paillier_public.clone();
        let inner: Vec<Ciphertext> = self.round_elementwise(
            blinded,
            |blinded| S1Request::Recover { blinded },
            |response| match response {
                S2Response::Recovered(inner) => Ok(inner),
                other => Err(unexpected(&other, "Recovered")),
            },
        )?;
        let jobs: Vec<(Ciphertext, BigUint)> = inner.into_iter().zip(masks).collect();
        Ok(par_map(self.intra_workers(), &jobs, |(c, r)| {
            let neg_r = (pk.n() - (r % pk.n())) % pk.n();
            pk.add_plain(c, &neg_r)
        }))
    }

    /// `RecoverEnc` (Algorithm 5), batched: strip the outer Damgård–Jurik layer from each
    /// `E2(Enc(c_i))`, returning the inner Paillier ciphertexts to S1 while hiding the
    /// inner plaintexts from S2 behind additive blinding
    /// (`E2(Enc(c))^{Enc(r)} = E2(Enc(c + r))`, one exponentiation per item).
    ///
    /// The protocols never call it on a selection's output:
    /// `Self::select_many` folds this blinding into the selection's own exponents.
    pub fn recover_enc_batch(&mut self, layered: &[LayeredCiphertext]) -> Result<Vec<Ciphertext>> {
        if layered.is_empty() {
            return Ok(Vec::new());
        }
        let dj_pk = self.s1.keys.dj_public.clone();
        // Draws happen serially up front, the exponentiations run data-parallel: the
        // wire bytes do not depend on the worker count.
        let (masks, enc_masks) = self.draw_masks(layered.len())?;
        let jobs: Vec<(&LayeredCiphertext, Ciphertext)> = layered.iter().zip(enc_masks).collect();
        let blinded: Vec<LayeredCiphertext> =
            par_map(self.intra_workers(), &jobs, |(l, enc_r)| dj_pk.mul_by_ciphertext(l, enc_r));
        self.recover_blinded(blinded, masks)
    }

    /// Encrypted selection, any number of jobs in **one** `RecoverEnc` round: every job
    /// evaluates the one-of-many form of Algorithm 4 line 6 to
    /// `Enc(Σ t_i·x_i + (1 − Σ t_i)·y)` (see [`SelectJob`] for the at-most-one-bit
    /// condition).  Jobs of different sub-protocol steps may share the call; every job
    /// gets its own fresh `E2(1)`, `Enc(0)` and blinding, however many terms it has.
    ///
    /// Selection and `RecoverEnc` blinding are one multi-exponentiation per job
    /// ([`DjPublicKey::select_blinded`](sectopk_crypto::damgard_jurik::DjPublicKey::select_blinded)):
    /// no inversion, no second exponentiation of the selected ciphertext, and S2 strips
    /// one ciphertext per job, not per term.  S1's RNG and pool are consumed in the
    /// order of the two-step sequence — every job's `E2(1)` / `Enc(0)`, then every
    /// job's `r` / `Enc(r)` — and for a single-term job S2 decrypts the very inner
    /// ciphertext that sequence would have sent it.
    pub(crate) fn select_many(&mut self, jobs: &[SelectJob<'_>]) -> Result<Vec<Ciphertext>> {
        let dj_pk = self.s1.keys.dj_public.clone();
        let mut drawn = Vec::with_capacity(jobs.len());
        for job in jobs {
            let e2_one = self.s1.pool.encrypt_dj_u64(1)?;
            let y = job.otherwise.cloned().map_or_else(|| self.s1.pool.encrypt_u64(0), Ok)?;
            drawn.push((job, e2_one, y));
        }
        let (masks, enc_masks) = self.draw_masks(jobs.len())?;
        let drawn: Vec<_> = drawn.into_iter().zip(enc_masks).collect();
        let blinded = par_map(self.intra_workers(), &drawn, |((job, e2_one, y), enc_r)| {
            dj_pk.select_blinded(&job.terms, e2_one, y, enc_r)
        });
        self.recover_blinded(blinded, masks)
    }

    /// Encrypted selection: from `E2(t_i)` (bit known to S2, encrypted towards S1) and
    /// `Enc(x_i)`, produce `Enc(t_i · x_i)`.
    pub fn select_scores(
        &mut self,
        e2_bits: &[LayeredCiphertext],
        scores: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>> {
        assert_eq!(e2_bits.len(), scores.len(), "one bit per score required");
        let jobs: Vec<SelectJob<'_>> =
            e2_bits.iter().zip(scores).map(|(t, x)| SelectJob::gate(t, x, None)).collect();
        self.select_many(&jobs)
    }

    /// Two-branch encrypted selection `Enc(t · x + (1 − t) · y)`.
    pub fn select_between(
        &mut self,
        e2_bits: &[LayeredCiphertext],
        if_true: &[Ciphertext],
        if_false: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>> {
        assert_eq!(e2_bits.len(), if_true.len());
        assert_eq!(e2_bits.len(), if_false.len());
        let jobs: Vec<SelectJob<'_>> = e2_bits
            .iter()
            .zip(if_true)
            .zip(if_false)
            .map(|((t, x), y)| SelectJob::gate(t, x, Some(y)))
            .collect();
        self.select_many(&jobs)
    }

    /// `EncCompare(Enc(a), Enc(b))`: S1 learns the bit `f := (a ≤ b)` in the symmetric
    /// (signed) plaintext interpretation; S2 learns only a uniformly flipped, scaled sign.
    pub fn enc_compare(&mut self, a: &Ciphertext, b: &Ciphertext, context: &str) -> Result<bool> {
        let outcomes = self.compare_many(&[(a.clone(), b.clone())], context)?;
        Ok(outcomes[0])
    }

    /// Batched comparison `f_i := (a_i ≤ b_i)` in one round trip.  One modular inversion
    /// per call, whatever the number of pairs.
    pub fn compare_many(
        &mut self,
        pairs: &[(Ciphertext, Ciphertext)],
        context: &str,
    ) -> Result<Vec<bool>> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let pk = self.s1.keys.paillier_public.clone();

        // ---- S1: blind each odd difference with a random flip and scale. --------------
        // Flips and scales are drawn serially (same RNG order as the per-pair loop); all
        // subtrahends are negated by one batch inversion, and the
        // `Enc(±α·(2(a−b) − 1))` arithmetic runs data-parallel.  The flip swaps the
        // operands and the constant: `−(2(a−b) − 1) = 2(b−a) + 1`.
        let mut flips = Vec::with_capacity(pairs.len());
        let mut alphas = Vec::with_capacity(pairs.len());
        for _ in pairs {
            flips.push(self.s1.rng.gen::<bool>());
            alphas.push(BigUint::from(self.s1.rng.gen_range(1..COMPARE_SCALE_BOUND)));
        }
        let (minuends, subtrahends): (Vec<&Ciphertext>, Vec<&Ciphertext>) = pairs
            .iter()
            .zip(&flips)
            .map(|((a, b), &flip)| if flip { (b, a) } else { (a, b) })
            .unzip();
        let negated = pk.negate_many(&subtrahends);
        let plus_one = BigUint::from(1u32);
        let minus_one = pk.n() - &plus_one;
        let jobs: Vec<(&Ciphertext, &Ciphertext, &BigUint, &BigUint)> = minuends
            .into_iter()
            .zip(&negated)
            .zip(&alphas)
            .zip(&flips)
            .map(|(((minuend, neg), alpha), &flip)| {
                (minuend, neg, alpha, if flip { &plus_one } else { &minus_one })
            })
            .collect();
        let blinded = par_map(self.intra_workers(), &jobs, |&(minuend, neg, alpha, one)| {
            let difference = pk.add(minuend, neg);
            pk.mul_plain(&pk.add_plain(&pk.add(&difference, &difference), one), alpha)
        });

        // ---- transport: S2 decrypts each blinded difference and returns its sign. -----
        let signs: Vec<i8> = self.round_elementwise(
            blinded,
            |blinded| S1Request::Compare { blinded, context: context.to_string() },
            |response| match response {
                S2Response::Signs(signs) => Ok(signs),
                other => Err(unexpected(&other, "Signs")),
            },
        )?;

        // ---- S1: undo the flip. --------------------------------------------------------
        if signs.iter().any(|s| s.abs() != 1) {
            return Err(ProtocolError::transport("S2 answered a comparison with a sign not ±1"));
        }
        let outcomes = signs
            .into_iter()
            .zip(flips.iter())
            .map(|(sign, &flip)| {
                // Without flip we sent α(2(a−b) − 1): a ≤ b ⇔ sign < 0.
                // With flip we sent α(2(b−a) + 1):    a ≤ b ⇔ sign > 0.
                let le = (sign > 0) == flip;
                self.s1.ledger.record(LeakageEvent::ComparisonBit {
                    context: context.to_string(),
                    less_or_equal: le,
                });
                le
            })
            .collect();
        Ok(outcomes)
    }

    /// Batched threshold comparison: `f_i := (values_i ≤ threshold)` for every value, in
    /// one round trip.  Used by the halting check of SecQuery (is every candidate's best
    /// score at most the k-th worst score?).
    pub fn batch_compare_leq(
        &mut self,
        values: &[Ciphertext],
        threshold: &Ciphertext,
        context: &str,
    ) -> Result<Vec<bool>> {
        let pairs: Vec<(Ciphertext, Ciphertext)> =
            values.iter().map(|v| (v.clone(), threshold.clone())).collect();
        self.compare_many(&pairs, context)
    }

    /// Ship additively blinded operand pairs to S2, which decrypts, multiplies and
    /// re-encrypts each product — the round trip at the heart of the SkNN baseline's SM
    /// protocol.  The caller is responsible for the blinding and for stripping the cross
    /// terms afterwards.
    pub fn mul_blinded(&mut self, pairs: Vec<(Ciphertext, Ciphertext)>) -> Result<Vec<Ciphertext>> {
        self.round_elementwise(
            pairs,
            |pairs| S1Request::MulBlinded { pairs },
            |response| match response {
                S2Response::Products(products) => Ok(products),
                other => Err(unexpected(&other, "Products")),
            },
        )
    }

    /// Homomorphically sum a set of encrypted scores (no interaction; exposed here
    /// because every sub-protocol needs it).
    pub fn sum_ciphertexts(&self, scores: &[Ciphertext]) -> Ciphertext {
        let pk = &self.s1.keys.paillier_public;
        let mut acc = pk.one_ciphertext();
        for s in scores {
            acc = pk.add(&acc, s);
        }
        acc
    }

    /// Encrypt a fresh zero under the shared public key (pooled nonce).
    pub fn fresh_zero(&mut self) -> Result<Ciphertext> {
        Ok(self.s1.pool.encrypt(&BigUint::zero())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;

    fn setup() -> (MasterKeys, TwoClouds, EhlEncoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(33);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let clouds = TwoClouds::new(&master, 99).unwrap();
        let encoder = EhlEncoder::new(&master.ehl_keys);
        (master, clouds, encoder, rng)
    }

    #[test]
    fn eq_batch_detects_equality_and_inequality() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a1 = encoder.encode(b"a", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"a", pk, &mut rng).unwrap();
        let b = encoder.encode(b"b", pk, &mut rng).unwrap();

        let batch = clouds.eq_batch(&[(&a1, &a2), (&a1, &b)], "test", Some(0)).unwrap();
        // The E2 bits decrypt to 1 / 0 (only the key holder can check this; S1 cannot).
        let dj_sk = &master.s2_view().dj_secret;
        assert_eq!(dj_sk.decrypt(&batch.e2_bits[0]).unwrap(), BigUint::from(1u32));
        assert_eq!(dj_sk.decrypt(&batch.e2_bits[1]).unwrap(), BigUint::from(0u32));
        // Channel and ledger were updated.
        assert!(clouds.channel().bytes > 0);
        assert_eq!(clouds.s2_ledger().count_kind("equality_bit"), 2);
        assert_eq!(clouds.channel().rounds, 1);
    }

    #[test]
    fn recover_enc_strips_one_layer() {
        let (master, mut clouds, _encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let dj_pk = clouds.dj_pk().clone();
        let inner = pk.encrypt_u64(4321, &mut rng).unwrap();
        let layered = dj_pk.encrypt_ciphertext(&inner, &mut rng).unwrap();
        let recovered = clouds.recover_enc_batch(&[layered]).unwrap();
        assert_eq!(master.paillier_secret.decrypt_u64(&recovered[0]).unwrap(), 4321);
    }

    #[test]
    fn select_scores_keeps_or_zeroes() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let same_a = encoder.encode(b"x", pk, &mut rng).unwrap();
        let same_b = encoder.encode(b"x", pk, &mut rng).unwrap();
        let other = encoder.encode(b"y", pk, &mut rng).unwrap();
        let batch =
            clouds.eq_batch(&[(&same_a, &same_b), (&same_a, &other)], "test", None).unwrap();
        let scores =
            vec![pk.encrypt_u64(111, &mut rng).unwrap(), pk.encrypt_u64(222, &mut rng).unwrap()];
        let selected = clouds.select_scores(&batch.e2_bits, &scores).unwrap();
        assert_eq!(master.paillier_secret.decrypt_u64(&selected[0]).unwrap(), 111);
        assert_eq!(master.paillier_secret.decrypt_u64(&selected[1]).unwrap(), 0);
    }

    #[test]
    fn select_between_chooses_correct_branch() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a = encoder.encode(b"p", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"p", pk, &mut rng).unwrap();
        let b = encoder.encode(b"q", pk, &mut rng).unwrap();
        let batch = clouds.eq_batch(&[(&a, &a2), (&a, &b)], "test", None).unwrap();
        let if_true =
            vec![pk.encrypt_u64(10, &mut rng).unwrap(), pk.encrypt_u64(10, &mut rng).unwrap()];
        let if_false =
            vec![pk.encrypt_u64(77, &mut rng).unwrap(), pk.encrypt_u64(77, &mut rng).unwrap()];
        let chosen = clouds.select_between(&batch.e2_bits, &if_true, &if_false).unwrap();
        assert_eq!(master.paillier_secret.decrypt_u64(&chosen[0]).unwrap(), 10);
        assert_eq!(master.paillier_secret.decrypt_u64(&chosen[1]).unwrap(), 77);
    }

    #[test]
    fn select_many_mixes_both_job_kinds_in_one_round() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a = encoder.encode(b"p", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"p", pk, &mut rng).unwrap();
        let b = encoder.encode(b"q", pk, &mut rng).unwrap();
        let bits = clouds.eq_batch(&[(&a, &a2), (&a, &b)], "test", None).unwrap().e2_bits;
        let x = vec![pk.encrypt_u64(10, &mut rng).unwrap(), pk.encrypt_u64(20, &mut rng).unwrap()];
        let y = vec![pk.encrypt_u64(77, &mut rng).unwrap(), pk.encrypt_u64(88, &mut rng).unwrap()];
        let decrypt = |cs: &[Ciphertext]| -> Vec<u64> {
            cs.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect()
        };

        let before = clouds.channel().rounds;
        let jobs = vec![
            SelectJob::gate(&bits[0], &x[0], None),
            SelectJob::gate(&bits[1], &x[1], Some(&y[1])),
            SelectJob::gate(&bits[1], &x[1], None),
            SelectJob::gate(&bits[0], &x[0], Some(&y[0])),
        ];
        let mixed = decrypt(&clouds.select_many(&jobs).unwrap());
        assert_eq!(clouds.channel().rounds, before + 1, "one RecoverEnc round for all jobs");

        let zeroing = decrypt(&clouds.select_scores(&bits, &x).unwrap());
        let two_branch = decrypt(&clouds.select_between(&bits, &x, &y).unwrap());
        assert_eq!(zeroing, vec![10, 0]);
        assert_eq!(two_branch, vec![10, 88]);
        assert_eq!(mixed, vec![zeroing[0], two_branch[1], zeroing[1], two_branch[0]]);
        assert!(clouds.select_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn eq_diffs_is_byte_identical_to_per_pair_eq_tests() {
        // A 3 × 4 matrix: every right-hand operand recurs in each row (and one of them
        // twice per row), so the batch negation serves each from its slot.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let encode = |id: &str, rng: &mut StdRng| encoder.encode(id.as_bytes(), pk, rng).unwrap();
        let rows: Vec<EhlPlus> = ["a", "b", "c"].iter().map(|id| encode(id, &mut rng)).collect();
        let cols: Vec<EhlPlus> = ["b", "x", "a"].iter().map(|id| encode(id, &mut rng)).collect();
        let pairs: Vec<(&EhlPlus, &EhlPlus)> = rows
            .iter()
            .flat_map(|r| [&cols[0], &cols[1], &cols[2], &cols[0]].map(|c| (r, c)))
            .collect();

        // A second S1 with the same seed replays the RNG stream one pair at a time.
        let mut reference = TwoClouds::new(&master, 99).unwrap();
        let expected: Vec<Ciphertext> = pairs
            .iter()
            .map(|(a, b)| {
                let rs: Vec<BigUint> = (0..a.len())
                    .map(|_| {
                        sectopk_crypto::bigint::random_invertible(&mut reference.s1.rng, pk.n())
                    })
                    .collect();
                a.eq_test_with_randomness(b, pk, &rs)
            })
            .collect();
        let diffs = clouds.eq_diffs(&pairs);
        assert_eq!(diffs, expected);
        let zero: Vec<bool> =
            diffs.iter().map(|d| master.paillier_secret.is_zero(d).unwrap()).collect();
        let t = true;
        assert_eq!(zero, [false, false, t, false, t, false, false, t, false, false, false, false]);
        assert!(clouds.eq_diffs(&[]).is_empty());
    }

    /// The selection this module used to run: invert `E2(t)`, double exponentiation,
    /// then `RecoverEnc` with its own exponentiation of the selected ciphertext.
    fn select_many_two_step(
        clouds: &mut TwoClouds,
        jobs: &[SelectJob<'_>],
    ) -> Result<Vec<Ciphertext>> {
        let dj_pk = clouds.dj_pk().clone();
        let mut layered = Vec::with_capacity(jobs.len());
        for job in jobs {
            let [(bit, if_true)] = job.terms[..] else { panic!("the two-step form has one term") };
            let e2_one = clouds.s1.pool.encrypt_dj_u64(1)?;
            let y = job.otherwise.cloned().map_or_else(|| clouds.s1.pool.encrypt_u64(0), Ok)?;
            layered.push(dj_pk.mul_add_ciphertexts(bit, if_true, &dj_pk.sub(&e2_one, bit), &y));
        }
        clouds.recover_enc_batch(&layered)
    }

    #[test]
    fn fused_selection_recovers_the_ciphertexts_of_the_two_step_sequence() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a = encoder.encode(b"p", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"p", pk, &mut rng).unwrap();
        let b = encoder.encode(b"q", pk, &mut rng).unwrap();
        // bits[0] = E2(1), bits[1] = E2(0).
        let bits = clouds.eq_batch(&[(&a, &a2), (&a, &b)], "test", None).unwrap().e2_bits;
        let x = pk.encrypt_u64(10, &mut rng).unwrap();
        let y = pk.encrypt_u64(77, &mut rng).unwrap();
        let sentinel = pk.encrypt(&pk.sentinel_z(), &mut rng).unwrap();
        let jobs = vec![
            SelectJob::gate(&bits[0], &x, None),
            SelectJob::gate(&bits[1], &x, None),
            SelectJob::gate(&bits[0], &x, Some(&y)),
            SelectJob::gate(&bits[1], &x, Some(&y)),
            SelectJob::gate(&bits[1], &y, Some(&sentinel)),
        ];

        // Same seeds, same draws in the same order: S2 decrypts the same inner
        // ciphertexts, so the two S1s end up holding identical ones.
        let mut reference = TwoClouds::new(&master, 99).unwrap();
        let _ = reference.eq_batch(&[(&a, &a2), (&a, &b)], "test", None).unwrap();
        let fused = clouds.select_many(&jobs).unwrap();
        assert_eq!(fused, select_many_two_step(&mut reference, &jobs).unwrap());
        let plain: Vec<BigUint> =
            fused.iter().map(|c| master.paillier_secret.decrypt(c).unwrap()).collect();
        let expected: Vec<BigUint> =
            [10u64, 0, 10, 77].iter().map(|&v| BigUint::from(v)).chain([pk.sentinel_z()]).collect();
        assert_eq!(plain, expected);
        assert_eq!(clouds.channel().rounds, reference.channel().rounds);
    }

    #[test]
    fn enc_compare_orders_correctly() {
        let (master, mut clouds, _encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let cases: Vec<(i64, i64)> = vec![(3, 7), (7, 3), (5, 5), (-1, 4), (4, -1), (-5, -2)];
        for (a, b) in cases {
            let ca = pk.encrypt_i64(a, &mut rng).unwrap();
            let cb = pk.encrypt_i64(b, &mut rng).unwrap();
            let f = clouds.enc_compare(&ca, &cb, "test").unwrap();
            assert_eq!(f, a <= b, "compare({a}, {b})");
        }
        // S2 never saw anything but blinded signs; S1 saw comparison outcomes.
        assert!(clouds.s2_ledger().only_contains(&["blinded_sign"]));
        assert!(clouds.s1_ledger().only_contains(&["comparison_bit"]));
    }

    #[test]
    fn batch_compare_matches_individual_compares() {
        let (master, mut clouds, _encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let threshold = pk.encrypt_u64(50, &mut rng).unwrap();
        let values: Vec<Ciphertext> =
            [10u64, 50, 90, 0, 51].iter().map(|&v| pk.encrypt_u64(v, &mut rng).unwrap()).collect();
        let flags = clouds.batch_compare_leq(&values, &threshold, "test").unwrap();
        assert_eq!(flags, vec![true, true, false, true, false]);
        // One round trip for the whole batch.
        assert_eq!(clouds.channel().rounds, 1);
    }

    #[test]
    fn sum_ciphertexts_is_homomorphic_sum() {
        let (master, clouds, _encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let cs: Vec<Ciphertext> =
            [1u64, 2, 3, 4].iter().map(|&v| pk.encrypt_u64(v, &mut rng).unwrap()).collect();
        let sum = clouds.sum_ciphertexts(&cs);
        assert_eq!(master.paillier_secret.decrypt_u64(&sum).unwrap(), 10);
    }

    #[test]
    fn empty_batches_are_noops() {
        let (_master, mut clouds, _encoder, _rng) = setup();
        assert!(clouds.eq_batch(&[], "t", None).unwrap().e2_bits.is_empty());
        assert!(clouds.recover_enc_batch(&[]).unwrap().is_empty());
        assert!(clouds.compare_many(&[], "t").unwrap().is_empty());
        assert!(clouds.mul_blinded(Vec::new()).unwrap().is_empty());
        assert_eq!(clouds.channel(), crate::ChannelMetrics::default());
    }
}
