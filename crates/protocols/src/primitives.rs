//! Low-level two-party primitives shared by all sub-protocols — the S1 side.  Every
//! exchange here is a typed [`S1Request`] round trip through the transport; the matching
//! S2 logic lives in [`crate::engine::S2Engine`].
//!
//! * the equality round (the `⊖` → decrypt exchange at the heart of SecWorst / SecBest /
//!   SecUpdate / SecJoin) **with the selections it drives**: S2 decrypts every equality
//!   bit and every masked candidate, selects in plaintext and answers with fresh
//!   encryptions, so a selection costs no round of its own,
//! * `EncCompare` — the encrypted comparison of \[11\], realised here as a
//!   blind-flip-and-scale protocol (see the SECURITY note below),
//! * a batched comparison against a common threshold (used by the halting check),
//! * the blinded-product exchange the SkNN baseline builds its SM protocol from.
//!
//! # Selection inside the equality round
//!
//! The paper selects in two rounds: S2 answers the equality matrix with `E2(t)` bits, S1
//! evaluates `E2(t)^{Enc(x)}` under the Damgård–Jurik layer, and `RecoverEnc`
//! (Algorithm 5) has S2 strip that layer again.  Here S1 ships each step's candidates in
//! the equality request itself, each masked by a fresh uniform `r mod N`
//! (`Enc(x_i + r_i)`, likewise a default `Enc(y + r_y)`), and describes the jobs by
//! structure: one per cell, row or column of the matrix ([`Select`]).  S2 already knows
//! every `t_i` — it decrypts the `⊖` cells — so it decrypts the masked candidates, which
//! are uniform to it, selects in plaintext and returns a fresh
//! `C = Enc(Σ t_i(x_i + r_i) + (1 − Σ t_i)(y + r_y))` per job and `Enc(t)` per cell.  S1
//! unmasks each job with one multi-exponentiation modulo `N²`, with `|N|`-bit exponents
//! and no inversion:
//!
//! ```text
//! one-of-many   C · (1+N)^{−r_y} · Π Enc(t_i)^{(r_y − r_i) mod N}
//! sum           C · Π Enc(t_i)^{N − r_i}
//! ```
//!
//! This is the masked exchange of SkNN's SM / SMIN protocols (Elmehdwi et al.): the
//! cloud holding the key sees only uniformly masked plaintexts beside the bits it is
//! allowed to see, and answers with fresh encryptions.  Neither party holds a
//! Damgård–Jurik key, and nothing on the query path computes modulo `N³`.
//!
//! # Arithmetic budget of the S1 loops
//!
//! A query is compute-bound on a LAN, and at the paper's key sizes an extended-Euclid
//! inversion costs more than an exponentiation of a short scalar.  So no loop here
//! inverts per element, pays a GCD per element or exponentiates the same ciphertext
//! twice (DESIGN.md §10): `TwoClouds::eq_diffs` and [`TwoClouds::compare_many`] negate
//! all their right-hand sides with one batch inversion per call, `eq_diffs` draws all its
//! masking scalars with one coprimality check, every `⊖` is one multi-exponentiation, a
//! mask is one pooled encryption and one product, and every job's unmasking one
//! multi-exponentiation.  A job is one *decision*, not one equality bit: where at most
//! one bit of a row or column can be set (a SecBest row, a SecUpdate column) the line is
//! one one-of-many job, and where any number can (a SecWorst row) it is one sum job.
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
use std::sync::Arc;

use crate::error::{ProtocolError, Result};
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::par::par_map;
use sectopk_ehl::EhlPlus;

use crate::context::TwoClouds;
use crate::ledger::LeakageEvent;
use crate::transport::{MaskedSet, Per, S1Request, S2Response, Select};

/// Upper bound (exclusive) for the random comparison scale α.  Keeping α small bounds
/// the blinded magnitude by `α · |2(a − b) ± 1| < 2^16 · 2^81 ≪ N/2`, so the signed
/// interpretation never wraps for the score ranges the protocols produce.
const COMPARE_SCALE_BOUND: u64 = 1 << 16;

/// One equality-matrix exchange prepared on the S1 side: the randomized `⊖` ciphertexts
/// in row-major order and the selections S2 is to make from their bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct EqPlan {
    /// Row-major `⊖` ciphertexts (`diffs.len() % cols == 0`).
    pub diffs: Vec<Ciphertext>,
    /// Number of matrix columns.
    pub cols: usize,
    /// Calling sub-protocol (ledger context).
    pub context: &'static str,
    /// Scan depth, if applicable.
    pub depth: Option<usize>,
    /// The candidate sets the selections read, *unmasked*: [`TwoClouds::run_eq_plans`]
    /// masks every candidate with a fresh `r` before it leaves S1.
    pub sets: Vec<(Per, Vec<Ciphertext>)>,
    /// The selection jobs, family by family ([`Select`] names sets by their index here).
    pub select: Vec<Select>,
    /// Ask S2 for the plaintext per-row match bits (`Qry_E`'s `UP^d`).
    pub disclose_rows: bool,
}

impl EqPlan {
    /// A plan over `diffs` that selects nothing yet.
    pub(crate) fn new(
        diffs: Vec<Ciphertext>,
        cols: usize,
        context: &'static str,
        depth: Option<usize>,
    ) -> Self {
        EqPlan { diffs, cols, context, depth, ..Self::default() }
    }

    /// Add a candidate set laid out `per` cell, row or column; returns its index.
    pub(crate) fn candidates(&mut self, per: Per, values: Vec<Ciphertext>) -> usize {
        self.sets.push((per, values));
        self.sets.len() - 1
    }

    /// Add a family of jobs, one per `per` line: a sum over set `from`, or a one-of-many
    /// selection with set `otherwise` as the default of each line.
    pub(crate) fn select(&mut self, per: Per, from: usize, otherwise: Option<usize>) {
        self.select.push(Select(per, from, otherwise));
    }
}

/// The outcome of one [`EqPlan`].
#[derive(Debug, Clone)]
pub(crate) struct EqOutcome {
    /// Per family of the plan, one unmasked ciphertext per line.
    pub selected: Vec<Vec<Ciphertext>>,
    /// Fresh `Enc(t_ij)` per cell, row-major (empty when the plan selects nothing).
    pub bits: Vec<Ciphertext>,
    /// Plaintext `∨_j t_ij` per row if the plan asked for it, else empty.
    pub row_matched: Vec<bool>,
}

/// One job's unmasking, `masked · Π t^e · (1+N)^shift`: the `(c, e_c)` terms, `c`
/// indexing the bits `Enc(t_c)`, take the candidates' masks out, the shift a default's.
struct Unmask {
    masked: Ciphertext,
    terms: Vec<(usize, BigUint)>,
    shift: Option<BigUint>,
}

/// What S1 keeps of a shipped plan to unmask its reply.
struct Shipped {
    rows: usize,
    cols: usize,
    select: Vec<Select>,
    disclose_rows: bool,
    /// Each set's masks `r`, in candidate order.
    masks: Vec<(Per, Vec<BigUint>)>,
}

/// The error raised when S2 answers with the wrong response kind (shared by every
/// request site in the crate).
pub(crate) fn unexpected(response: &S2Response, expected: &str) -> ProtocolError {
    ProtocolError::transport(format!("expected {expected} response, got {response:?}"))
}

impl TwoClouds {
    /// Run any number of independent equality-matrix exchanges — of one sub-protocol or
    /// of several (SecWorst and SecBest share a depth's exchange) — with the selections
    /// they drive, in plan order, all in a single round trip ([`S1Request::Batch`]): the
    /// one round of a step's budget.
    ///
    /// Every candidate is masked as `x ⊞ Enc(r)`: `r` from S1's RNG and `Enc(r)` from its
    /// pool, drawn serially in plan, set and candidate order, so the fresh nonce also
    /// unlinks the candidate from every other use of `x`.  The unmasking runs
    /// data-parallel, one multi-exponentiation per job.
    pub(crate) fn run_eq_plans(&mut self, plans: Vec<EqPlan>) -> Result<Vec<EqOutcome>> {
        let pk = self.s1.keys.paillier_public.clone();
        let mut requests = Vec::with_capacity(plans.len());
        let mut shipped = Vec::with_capacity(plans.len());
        for plan in plans.into_iter().filter(|p| !p.diffs.is_empty()) {
            let mut sets = Vec::with_capacity(plan.sets.len());
            let mut masks = Vec::with_capacity(plan.sets.len());
            for (per, values) in plan.sets {
                let (rs, enc_rs) = self.draw_masks(values.len())?;
                sets.push(MaskedSet(
                    per,
                    values.iter().zip(&enc_rs).map(|(x, r)| pk.add(x, r)).collect(),
                ));
                masks.push((per, rs));
            }
            shipped.push(Shipped {
                rows: plan.diffs.len() / plan.cols,
                cols: plan.cols,
                select: plan.select.clone(),
                disclose_rows: plan.disclose_rows,
                masks,
            });
            requests.push(S1Request::EqMatrix {
                diffs: plan.diffs,
                cols: plan.cols,
                context: plan.context.to_string(),
                depth: plan.depth,
                sets,
                select: plan.select,
                disclose_rows: plan.disclose_rows,
            });
        }
        let responses: Vec<S2Response> = match requests.len() {
            0 => return Ok(Vec::new()),
            1 => vec![self.round(requests.pop().expect("one request"))?],
            _ => match self.round(S1Request::Batch(requests))? {
                S2Response::Batch(responses) if responses.len() == shipped.len() => responses,
                other => return Err(unexpected(&other, "Batch")),
            },
        };
        responses.into_iter().zip(&shipped).map(|(r, plan)| self.unmask(r, plan)).collect()
    }

    /// Check one `EqBits` reply against what was shipped and unmask its selections.
    fn unmask(&self, response: S2Response, plan: &Shipped) -> Result<EqOutcome> {
        let S2Response::EqBits { bits, selected, row_matched } = response else {
            return Err(unexpected(&response, "EqBits"));
        };
        let (rows, cols) = (plan.rows, plan.cols);
        let lines: Vec<usize> =
            plan.select.iter().map(|&Select(per, ..)| per.len(rows, cols)).collect();
        let want_bits = if plan.select.is_empty() { 0 } else { rows * cols };
        let want_rows = if plan.disclose_rows { rows } else { 0 };
        if (bits.len(), selected.len(), row_matched.len())
            != (want_bits, lines.iter().sum(), want_rows)
        {
            return Err(ProtocolError::transport("equality reply arity mismatch"));
        }

        // One job per line: `C · Π Enc(t_c)^{e_c}`, then `· (1+N)^{−r_y}` for a default.
        let n = self.s1.keys.paillier_public.n();
        let minus = |r: &BigUint| (n - r) % n;
        let mut jobs: Vec<Unmask> = Vec::with_capacity(selected.len());
        let mut selected = selected.into_iter();
        for &Select(per, from, otherwise) in &plan.select {
            let (from_per, r) = &plan.masks[from];
            for line in 0..per.len(rows, cols) {
                let r_y = otherwise.map(|y| &plan.masks[y].1[line]);
                let terms = per
                    .cells(rows, cols, line)
                    .into_iter()
                    .map(|c| {
                        let r_c = &r[from_per.index(cols, c / cols, c % cols)];
                        let e = r_y.map_or_else(|| minus(r_c), |r_y| (r_y + minus(r_c)) % n);
                        (c, e)
                    })
                    .collect();
                let masked = selected.next().expect("arity checked above");
                jobs.push(Unmask { masked, terms, shift: r_y.map(minus) });
            }
        }
        let pk = self.s1.keys.paillier_public.clone();
        let bits = Arc::new(bits);
        let shared = Arc::clone(&bits);
        let mut unmasked = par_map(self.intra_workers(), jobs, move |job| {
            let terms: Vec<(&Ciphertext, &BigUint)> =
                job.terms.iter().map(|(c, e)| (&shared[*c], e)).collect();
            let c = pk.add(&job.masked, &pk.weighted_sum(&terms));
            match &job.shift {
                Some(shift) => pk.add_plain(&c, shift),
                None => c,
            }
        })
        .into_iter();
        let selected = lines.iter().map(|&l| unmasked.by_ref().take(l).collect()).collect();
        Ok(EqOutcome { selected, bits: Arc::unwrap_or_clone(bits), row_matched })
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
    /// The masking scalars, one per pair, are drawn serially in pair order (exactly the
    /// order the one-pair-at-a-time path consumes S1's RNG in), by one
    /// [`sectopk_crypto::bigint::random_invertible_many`]: one coprimality check per
    /// call.  The distinct right-hand operands of the call are then negated together —
    /// one modular inversion per call, however many pairs — and the pure `⊖`
    /// arithmetic, one exponentiation per pair, runs data-parallel over
    /// [`TwoClouds::intra_workers`] threads.  The ciphertexts are byte-identical to
    /// [`EhlPlus::eq_test`] per pair with the same scalars, for every worker count.
    pub(crate) fn eq_diffs(&mut self, pairs: &[(&EhlPlus, &EhlPlus)]) -> Vec<Ciphertext> {
        let pk = self.s1.keys.paillier_public.clone();
        let scalars =
            sectopk_crypto::bigint::random_invertible_many(&mut self.s1.rng, pk.n(), pairs.len());

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
        let negated = Arc::new(EhlPlus::negate_many(&distinct, &pk));

        let jobs: Vec<(EhlPlus, usize, BigUint)> = pairs
            .iter()
            .zip(slots)
            .zip(scalars)
            .map(|((&(a, _), slot), r)| (a.clone(), slot, r))
            .collect();
        par_map(self.intra_workers(), jobs, move |(a, slot, r)| {
            a.eq_test_negated(&negated[*slot], &pk, r)
        })
    }

    /// Draw `count` candidate masks `(r, Enc(r))`: `r` from S1's RNG, the encryption
    /// nonce from S1's pool, serially and in item order.
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
        let jobs: Vec<(Ciphertext, Ciphertext, BigUint, bool)> = minuends
            .into_iter()
            .zip(negated)
            .zip(alphas)
            .zip(&flips)
            .map(|(((minuend, neg), alpha), &flip)| (minuend.clone(), neg, alpha, flip))
            .collect();
        let blinded = par_map(self.intra_workers(), jobs, move |(minuend, neg, alpha, flip)| {
            let one = if *flip { &plus_one } else { &minus_one };
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
    use rand::{Rng, SeedableRng};
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

    fn decrypt(master: &MasterKeys, cs: &[Ciphertext]) -> Vec<u64> {
        cs.iter().map(|c| master.paillier_secret.decrypt_u64(c).unwrap()).collect()
    }

    /// One equality round over `pairs` (a single-row matrix) with one job per cell:
    /// `Enc(t_i·x_i)`, or `Enc(t_i·x_i + (1 − t_i)·y_i)` with defaults.
    fn select_per_cell(
        clouds: &mut TwoClouds,
        pairs: &[(&EhlPlus, &EhlPlus)],
        values: &[Ciphertext],
        defaults: Option<&[Ciphertext]>,
    ) -> EqOutcome {
        let diffs = clouds.eq_diffs(pairs);
        let mut plan = EqPlan::new(diffs, pairs.len(), "test", Some(0));
        let from = plan.candidates(Per::Cell, values.to_vec());
        let otherwise = defaults.map(|y| plan.candidates(Per::Cell, y.to_vec()));
        plan.select(Per::Cell, from, otherwise);
        clouds.run_eq_plans(vec![plan]).unwrap().pop().unwrap()
    }

    #[test]
    fn eq_batch_detects_equality_and_inequality() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a1 = encoder.encode(b"a", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"a", pk, &mut rng).unwrap();
        let b = encoder.encode(b"b", pk, &mut rng).unwrap();

        let ones = vec![pk.encrypt_u64(1, &mut rng).unwrap(); 2];
        let outcome = select_per_cell(&mut clouds, &[(&a1, &a2), (&a1, &b)], &ones, None);
        // The `Enc(t)` bits and `t · 1` decrypt to 1 / 0 (only the key holder can check
        // this; S1 cannot).
        assert_eq!(decrypt(&master, &outcome.bits), [1, 0]);
        assert_eq!(decrypt(&master, &outcome.selected[0]), [1, 0]);
        // Channel and ledger were updated.
        assert!(clouds.channel().bytes > 0);
        assert_eq!(clouds.s2_ledger().count_kind("equality_bit"), 2);
        let masked = LeakageEvent::MaskedValues { context: "test".into(), count: 2 };
        assert_eq!(clouds.s2_ledger().events().last(), Some(&masked));
        assert_eq!(clouds.channel().rounds, 1);
    }

    #[test]
    fn select_scores_keeps_or_zeroes() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let same_a = encoder.encode(b"x", pk, &mut rng).unwrap();
        let same_b = encoder.encode(b"x", pk, &mut rng).unwrap();
        let other = encoder.encode(b"y", pk, &mut rng).unwrap();
        let scores =
            vec![pk.encrypt_u64(111, &mut rng).unwrap(), pk.encrypt_u64(222, &mut rng).unwrap()];
        let pairs = [(&same_a, &same_b), (&same_a, &other)];
        let selected = select_per_cell(&mut clouds, &pairs, &scores, None).selected;
        assert_eq!(decrypt(&master, &selected[0]), [111, 0]);
    }

    #[test]
    fn select_between_chooses_correct_branch() {
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a = encoder.encode(b"p", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"p", pk, &mut rng).unwrap();
        let b = encoder.encode(b"q", pk, &mut rng).unwrap();
        let if_true =
            vec![pk.encrypt_u64(10, &mut rng).unwrap(), pk.encrypt_u64(10, &mut rng).unwrap()];
        let if_false =
            vec![pk.encrypt_u64(77, &mut rng).unwrap(), pk.encrypt_u64(77, &mut rng).unwrap()];
        let pairs = [(&a, &a2), (&a, &b)];
        let chosen = select_per_cell(&mut clouds, &pairs, &if_true, Some(&if_false)).selected;
        assert_eq!(decrypt(&master, &chosen[0]), [10, 77]);
    }

    #[test]
    fn select_many_mixes_both_job_kinds_in_one_round() {
        // One row `(p, p), (p, q)`: per-cell sums, per-cell defaults and the row as one
        // one-of-many job, all answered by the equality round itself.
        let (master, mut clouds, encoder, mut rng) = setup();
        let pk = &master.paillier_public;
        let a = encoder.encode(b"p", pk, &mut rng).unwrap();
        let a2 = encoder.encode(b"p", pk, &mut rng).unwrap();
        let b = encoder.encode(b"q", pk, &mut rng).unwrap();
        let x = vec![pk.encrypt_u64(10, &mut rng).unwrap(), pk.encrypt_u64(20, &mut rng).unwrap()];
        let y = vec![pk.encrypt_u64(77, &mut rng).unwrap(), pk.encrypt_u64(88, &mut rng).unwrap()];
        let bottom = vec![pk.encrypt_u64(5, &mut rng).unwrap()];

        let diffs = clouds.eq_diffs(&[(&a, &a2), (&a, &b)]);
        let mut plan = EqPlan::new(diffs, 2, "test", None);
        let (xs, ys, row) = (
            plan.candidates(Per::Cell, x),
            plan.candidates(Per::Cell, y),
            plan.candidates(Per::Row, bottom),
        );
        plan.select(Per::Cell, xs, None);
        plan.select(Per::Cell, xs, Some(ys));
        plan.select(Per::Row, xs, Some(row));
        plan.select(Per::Row, ys, None);
        let outcome = clouds.run_eq_plans(vec![plan]).unwrap().pop().unwrap();
        assert_eq!(clouds.channel().rounds, 1, "one equality round for all jobs");
        let selected: Vec<Vec<u64>> =
            outcome.selected.iter().map(|s| decrypt(&master, s)).collect();
        assert_eq!(selected, [vec![10, 0], vec![10, 88], vec![10], vec![77]]);
        assert!(clouds.run_eq_plans(Vec::new()).unwrap().is_empty());
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
        let expected: Vec<Ciphertext> =
            pairs.iter().map(|(a, b)| a.eq_test(b, pk, &mut reference.s1.rng)).collect();
        let diffs = clouds.eq_diffs(&pairs);
        assert_eq!(diffs, expected);
        let zero: Vec<bool> =
            diffs.iter().map(|d| master.paillier_secret.is_zero(d).unwrap()).collect();
        let t = true;
        assert_eq!(zero, [false, false, t, false, t, false, false, t, false, false, false, false]);
        assert!(clouds.eq_diffs(&[]).is_empty());
    }

    /// Every job shape over random matrices — sum rows with several bits set, one-of-many
    /// lines with no bit set, keep-length gates (row lines over per-row candidates with
    /// per-row defaults), several values per bit (the join), and candidates 0 and
    /// `N − 1` — against the same selections in plaintext, and byte for byte the same
    /// at one and four workers.
    #[test]
    fn fused_selection_matches_a_plaintext_reference_at_one_and_four_workers() {
        let (master, _, encoder, mut rng) = setup();
        let pk = master.paillier_public.clone();
        let n = pk.n().clone();
        let mut runs: Vec<Vec<Vec<Ciphertext>>> = Vec::new();
        for workers in [1, 4] {
            let mut clouds = TwoClouds::new(&master, 99).unwrap();
            clouds.set_intra_workers(workers);
            let mut shapes = StdRng::seed_from_u64(0x5e1ec7);
            let mut outputs = Vec::new();
            for _ in 0..6 {
                let (rows, cols) = (shapes.gen_range(1..4usize), shapes.gen_range(1..5usize));
                // Objects from a small alphabet, so rows and columns match 0, 1 or more times.
                let left: Vec<u8> = (0..rows).map(|_| shapes.gen_range(0..3)).collect();
                let right: Vec<u8> = (0..cols).map(|_| shapes.gen_range(0..3)).collect();
                let ehl = |o: &u8, rng: &mut StdRng| encoder.encode(&[*o], &pk, rng).unwrap();
                let (l, r): (Vec<EhlPlus>, Vec<EhlPlus>) = (
                    left.iter().map(|o| ehl(o, &mut rng)).collect(),
                    right.iter().map(|o| ehl(o, &mut rng)).collect(),
                );
                let t: Vec<bool> =
                    left.iter().flat_map(|a| right.iter().map(move |b| a == b)).collect();
                let pairs: Vec<(&EhlPlus, &EhlPlus)> =
                    l.iter().flat_map(|a| r.iter().map(move |b| (a, b))).collect();
                let mut plan = EqPlan::new(clouds.eq_diffs(&pairs), cols, "test", None);

                // Candidate plaintexts, with 0 and N − 1 among them.
                let mut value = |i: usize| match (i + rows) % 5 {
                    0 => BigUint::zero(),
                    1 => &n - BigUint::from(1u32),
                    _ => BigUint::from(shapes.gen_range(0..1000u32)),
                };
                let layouts = [Per::Cell, Per::Row, Per::Column];
                let plain: Vec<Vec<BigUint>> = layouts
                    .iter()
                    .flat_map(|&per| [per; 2])
                    .map(|per| (0..per.len(rows, cols)).map(&mut value).collect())
                    .collect();
                for (set, values) in (0..).zip(&plain) {
                    let per = layouts[set / 2];
                    let cts = values.iter().map(|v| pk.encrypt(v, &mut rng).unwrap()).collect();
                    assert_eq!(plan.candidates(per, cts), set);
                }
                // Every line layout, as a sum and with a default laid out like it, reading
                // each candidate layout; the two cell-wise sets are the join's two values.
                let mut families = Vec::new();
                for (line, &per) in layouts.iter().enumerate() {
                    for from in [0, 2, 4] {
                        families.push((per, from, None));
                        families.push((per, from + 1, Some(2 * line)));
                    }
                }
                for &(per, from, otherwise) in &families {
                    plan.select(per, from, otherwise);
                }
                let outcome = clouds.run_eq_plans(vec![plan]).unwrap().pop().unwrap();

                let (t, plain, n) = (&t, &plain, &n);
                let reference = families.iter().map(|&(per, from, otherwise)| {
                    let from_per = layouts[from / 2];
                    (0..per.len(rows, cols))
                        .map(move |line| {
                            let cells = per.cells(rows, cols, line);
                            let set: Vec<usize> = cells.into_iter().filter(|&c| t[c]).collect();
                            let x: BigUint = set
                                .iter()
                                .map(|&c| &plain[from][from_per.index(cols, c / cols, c % cols)])
                                .sum();
                            let y = otherwise.map_or(BigUint::zero(), |y| {
                                let one_minus =
                                    (n + BigUint::from(1u32) - BigUint::from(set.len())) % n;
                                &plain[y][line] * one_minus
                            });
                            (x + y) % n
                        })
                        .collect::<Vec<_>>()
                });
                for (got, want) in outcome.selected.iter().zip(reference) {
                    let got: Vec<BigUint> =
                        got.iter().map(|c| master.paillier_secret.decrypt(c).unwrap()).collect();
                    assert_eq!(got, want, "{rows} × {cols}: {t:?}");
                }
                assert_eq!(outcome.selected.len(), families.len());
                outputs.push(outcome.selected.concat());
            }
            runs.push(outputs);
        }
        assert_eq!(runs[0], runs[1], "one and four workers ship and return the same bytes");
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
        assert!(clouds
            .run_eq_plans(vec![EqPlan::new(Vec::new(), 1, "t", None)])
            .unwrap()
            .is_empty());
        assert!(clouds.compare_many(&[], "t").unwrap().is_empty());
        assert!(clouds.mul_blinded(Vec::new()).unwrap().is_empty());
        assert_eq!(clouds.channel(), crate::ChannelMetrics::default());
    }
}
