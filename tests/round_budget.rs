//! The per-depth round budget, as a test.
//!
//! With round-trip batching every step of a depth costs one round — its equality round,
//! in which S2 also makes the step's selections — so a depth's S1↔S2 round trips are a
//! function of the list lengths alone:
//!
//! ```text
//! bounds 1 + dedup 1                      (m > 1)
//! + update 1                              (the list it merges into is non-empty)
//! + on a check depth: [Qry_Ba merge 1] + sort_plan(|T|, link).rounds
//!                     + halting 1         (|T| ≥ k)
//! ```
//!
//! On a real link a query is round-bound, so an extra round is a latency regression
//! even when no timing test can see it; these tests make it fail here instead.  The
//! second half checks that the planner's RTT term predicts the same numbers, over the
//! 20 ms link it declares.
//!
//! Beside it, the **selection budget**: how many selections S2 returns in a step's
//! equality round.  A SecWorst row is one sum, and SecBest rows and SecUpdate columns
//! hold at most one match, so each is one one-of-many selection whatever its length —
//!
//! ```text
//! bounds  m SecWorst rows + m(m−1) SecBest rows
//! update  2·|T|                            (+ 2f keep-length gates)
//! ```
//!
//! — and a step that falls back to one selection per cell costs compute, not rounds:
//! it fails here, not in a timing run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_core::planner::estimated_rounds;
use sectopk_core::{
    DataOwner, DirectSession, LinkProfile, Query, QueryConfig, QueryVariant, Session, VariantChoice,
};
use sectopk_datasets::fig3_relation;
use sectopk_protocols::sort::sort_plan;
use sectopk_protocols::transport::MaskedSet;
use sectopk_protocols::{
    ChannelMetrics, InProcessTransport, LeakageLedger, S1Request, S2Response, ScoredItem,
    SessionId, Traffic, Transport, TransportKind, TwoClouds, UpdateMode,
};
use sectopk_server::QueryServer;
use sectopk_storage::{EncryptedItem, ObjectId, Relation, Row, TopKQuery};
use sectopk_tests::{
    assert_valid_top_k, harness, run_built_query, run_query, TEST_EHL_KEYS, TEST_MODULUS_BITS,
};

/// Distinct objects the sorted lists `attrs` of `relation` show at depths `from..to`.
fn distinct(relation: &Relation, attrs: &[usize], from: usize, to: usize) -> usize {
    let sorted = relation.sorted_lists();
    let seen: BTreeSet<ObjectId> = attrs
        .iter()
        .flat_map(|&a| sorted.list(a)[from..to].iter().map(|item| item.object))
        .collect();
    seen.len()
}

/// The budget of (0-based) depth `d` over `link`, from the plaintext shape of the scan.
fn budget(
    relation: &Relation,
    attrs: &[usize],
    k: usize,
    variant: QueryVariant,
    link: LinkProfile,
    d: usize,
) -> u64 {
    let m = attrs.len();
    // (length of the list the per-depth update merges into, check-depth merge target,
    //  |T| after the depth, is this a check depth)
    let (update_into, merge_into, tracked, check) = match variant {
        QueryVariant::Full => (m * d, 0, m * (d + 1), true),
        QueryVariant::DupElim => {
            (distinct(relation, attrs, 0, d), 0, distinct(relation, attrs, 0, d + 1), true)
        }
        QueryVariant::Batched { p } => {
            let batch_start = d / p * p;
            (
                distinct(relation, attrs, batch_start, d),
                distinct(relation, attrs, 0, batch_start),
                distinct(relation, attrs, 0, d + 1),
                (d + 1).is_multiple_of(p) || d + 1 == relation.len(),
            )
        }
    };
    let mut rounds = if m > 1 { 1 + 1 } else { 0 };
    rounds += if update_into > 0 { 1 } else { 0 };
    if check {
        rounds += if merge_into > 0 { 1 } else { 0 };
        rounds += sort_plan(tracked, link).rounds + usize::from(tracked >= k);
    }
    rounds as u64
}

#[test]
fn every_depth_of_fig3_costs_exactly_the_budget() {
    let relation = fig3_relation();
    let attrs = [0, 1, 2];
    let k = 2;
    let mut h = harness(relation.clone(), 0xB0D6);
    for config in [QueryConfig::full(), QueryConfig::dup_elim(), QueryConfig::batched(2)] {
        let (ids, outcome) = run_query(&mut h, &TopKQuery::sum(attrs.to_vec(), k), &config);
        let name = config.variant.name();
        assert_valid_top_k(&relation, &attrs, &[], k, &ids, name);
        let stats = &outcome.stats;
        assert!(stats.halted && stats.depths_scanned > 1, "{name}: {stats:?}");
        for (d, channel) in stats.per_depth_channel.iter().enumerate() {
            let expected = budget(&relation, &attrs, k, config.variant, h.session.link(), d);
            assert_eq!(channel.rounds, expected, "{name}, depth {d}");
        }
        let total: u64 = stats.per_depth_channel.iter().map(|c| c.rounds).sum();
        assert_eq!(stats.channel.rounds, total, "{name}: a halted query has no trailing rounds");
    }
}

#[test]
fn single_list_queries_skip_bounds_and_dedup() {
    let relation = fig3_relation();
    let mut h = harness(relation.clone(), 0xB0D7);
    let (_, outcome) = run_query(&mut h, &TopKQuery::sum(vec![1], 2), &QueryConfig::full());
    let link = h.session.link();
    for (d, channel) in outcome.stats.per_depth_channel.iter().enumerate() {
        let expected = budget(&relation, &[1], 2, QueryVariant::Full, link, d);
        assert_eq!(channel.rounds, expected, "depth {d}");
    }
}

/// 32 rows × 3 attributes, mildly correlated so NRA halts before the end.
fn relation_32() -> Relation {
    let mut rng = StdRng::seed_from_u64(0x32);
    let rows = (0..32u64)
        .map(|id| Row {
            id: ObjectId(id),
            values: (0..3).map(|_| 2 * (32 - id) + rng.gen_range(0..64)).collect(),
        })
        .collect();
    Relation::new((0..3).map(|a| format!("a{a}")).collect(), rows)
}

#[test]
fn a_capped_scan_spends_no_round_after_its_last_depth() {
    // The cap makes depth 3 a check depth: the batch is merged and T sorted inside it,
    // so nothing is left to do — or to pay a sort for — once the loop ends.
    let relation = relation_32();
    let (attrs, k, cap) = (vec![0, 1, 2], 3, 3);
    // The plaintext bookkeeping after `cap` depths: W(o) = the scores of o seen so far.
    let sorted = relation.sorted_lists();
    let mut worst: BTreeMap<ObjectId, u64> = BTreeMap::new();
    for &a in &attrs {
        for item in &sorted.list(a)[..cap] {
            *worst.entry(item.object).or_default() += item.score;
        }
    }
    let mut expected: Vec<u64> = worst.values().copied().collect();
    expected.sort_unstable_by(|a, b| b.cmp(a));
    expected.truncate(k);

    let mut h = harness(relation.clone(), 0xB0DA);
    for variant in [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 2 }] {
        let name = variant.name();
        let query = Query::from_spec(TopKQuery::sum(attrs.clone(), k))
            .with_variant(VariantChoice::Fixed(variant))
            .with_max_depth(cap);
        let resolved = run_built_query(&mut h, &query);
        let stats = resolved.stats();
        assert!(!stats.halted && stats.depths_scanned == cap, "{name}: {stats:?}");
        let total: u64 = stats.per_depth_channel.iter().map(|c| c.rounds).sum();
        assert_eq!(stats.channel.rounds, total, "{name}: rounds outside any depth");

        // The answer is the current estimate: the k largest worst scores, best first.
        let returned: Vec<u64> = resolved.results.iter().map(|r| r.worst as u64).collect();
        assert_eq!(returned, expected, "{name}");
        for result in &resolved.results {
            let object = result.object.expect("the top of T holds real objects");
            assert_eq!(worst[&object], result.worst as u64, "{name}: {object}");
        }
    }
}

/// What one equality round put on the wire, summed over its matrices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct EqTraffic {
    /// `⊖` cells out.
    cells: usize,
    /// Masked candidates out.
    candidates: usize,
    /// `Enc(t)` bits back.
    bits: usize,
    /// Selections back.
    selected: usize,
}

/// A transport that records, per round, what its equality matrices carried.
#[derive(Debug)]
struct EqTap {
    inner: InProcessTransport,
    rounds: Arc<Mutex<Vec<EqTraffic>>>,
}

impl Transport for EqTap {
    fn round_trip(
        &mut self,
        request: S1Request,
    ) -> sectopk_protocols::Result<(S2Response, Traffic)> {
        let mut seen = EqTraffic::default();
        let requests = match &request {
            S1Request::Batch(items) => items.as_slice(),
            single => std::slice::from_ref(single),
        };
        for item in requests {
            if let S1Request::EqMatrix { diffs, sets, .. } = item {
                seen.cells += diffs.len();
                seen.candidates +=
                    sets.iter().map(|MaskedSet(_, masked)| masked.len()).sum::<usize>();
            }
        }
        let (response, traffic) = self.inner.round_trip(request)?;
        let replies = match &response {
            S2Response::Batch(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for reply in replies {
            if let S2Response::EqBits { bits, selected, .. } = reply {
                (seen.bits, seen.selected) =
                    (seen.bits + bits.len(), seen.selected + selected.len());
            }
        }
        self.rounds.lock().expect("tap lock").push(seen);
        Ok((response, traffic))
    }
    fn s2_ledger(&self) -> LeakageLedger {
        self.inner.s2_ledger()
    }
    fn reset_s2(&mut self) {
        self.inner.reset_s2();
    }
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

#[test]
fn every_step_strips_one_ciphertext_per_fused_row_not_per_cell() {
    // The steps of `sec_query`'s depth loop, driven by hand so each one's equality round
    // can be read off the channel: a cell is one `⊖` out and one `Enc(t)` back, a
    // candidate one masked ciphertext out, a job one selection back.
    let relation = fig3_relation();
    let (m, s) = (relation.num_attributes(), TEST_EHL_KEYS);
    let mut rng = StdRng::seed_from_u64(0xB0DB);
    let owner = DataOwner::new(TEST_MODULUS_BITS, s, &mut rng).expect("keygen");
    let (er, _) = owner.encrypt(&relation, &mut rng).expect("encryption");
    for mode in [UpdateMode::KeepLength, UpdateMode::Eliminate] {
        let keep = usize::from(mode == UpdateMode::KeepLength);
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&rounds);
        let mut clouds = TwoClouds::over_transport(owner.keys(), 0xB0DC, move |provision| {
            Ok(Box::new(EqTap { inner: InProcessTransport::new(provision.build()), rounds: tap }))
        })
        .expect("cloud setup");
        // The one round a step took, checked against the channel's own count.
        let step = |clouds: &TwoClouds, before: ChannelMetrics, what: String| {
            let channel = clouds.channel().since(&before);
            let mut rounds = rounds.lock().expect("tap lock");
            assert_eq!((channel.rounds, rounds.len()), (1, 1), "{what}: one round");
            let seen = rounds.pop().expect("one round");
            let on_wire = seen.cells + seen.candidates + seen.bits + seen.selected;
            assert_eq!(channel.ciphertexts as usize, on_wire, "{what}: nothing else");
            seen
        };
        let mut seen: Vec<Vec<EncryptedItem>> = vec![Vec::new(); m];
        let mut tracked: Vec<ScoredItem> = Vec::new();
        for d in 0..relation.len() {
            let depth_items: Vec<EncryptedItem> =
                (0..m).map(|l| er.list(l).item(d).expect("n items per list").clone()).collect();
            for (prefix, item) in seen.iter_mut().zip(&depth_items) {
                prefix.push(item.clone());
            }

            let before = clouds.channel();
            let (worsts, bests) = clouds.sec_bounds_depth(&depth_items, &seen, d).expect("bounds");
            // m SecWorst rows of m − 1 cells; m(m − 1) SecBest rows of d + 1 cells, each
            // with its bottom score as one more candidate.
            let (worst_rows, best_rows) = (m, m * (m - 1));
            let cells = worst_rows * (m - 1) + best_rows * (d + 1);
            let expected = EqTraffic {
                cells,
                candidates: cells + best_rows,
                bits: cells,
                selected: worst_rows + best_rows,
            };
            assert_eq!(step(&clouds, before, format!("{mode:?}, bounds {d}")), expected);

            let gamma: Vec<ScoredItem> = depth_items
                .iter()
                .zip(worsts.into_iter().zip(bests))
                .map(|(item, (worst, best))| ScoredItem { ehl: item.ehl.clone(), worst, best })
                .collect();
            let gamma = match mode {
                UpdateMode::KeepLength => clouds.sec_dedup(gamma, d),
                UpdateMode::Eliminate => clouds.sec_dup_elim(gamma, d),
            }
            .expect("dedup");
            rounds.lock().expect("tap lock").clear();

            let (f, t) = (gamma.len(), tracked.len());
            let before = clouds.channel();
            tracked = clouds.sec_update(tracked, &gamma, d, mode).expect("update");
            if t > 0 {
                // The fresh items' worst and best once per row, shared by every column, the
                // tracked bests per column, and keep-length's sentinel per row; per column
                // two jobs, and keep-length's two gates per row.
                let expected = EqTraffic {
                    cells: f * t,
                    candidates: 2 * f + t + keep * f,
                    bits: f * t,
                    selected: 2 * t + keep * 2 * f,
                };
                let what = format!("{mode:?}, update {d}: |T| = {t}, f = {f}");
                assert_eq!(step(&clouds, before, what), expected);
            }
        }
    }
}

/// A transport that records the packed blindings of every item a `Dedup` request sends
/// and its reply returns.
#[derive(Debug)]
struct DedupTap {
    inner: InProcessTransport,
    items: Arc<Mutex<Vec<usize>>>,
}

impl Transport for DedupTap {
    fn round_trip(
        &mut self,
        request: S1Request,
    ) -> sectopk_protocols::Result<(S2Response, Traffic)> {
        let mut seen = Vec::new();
        let requests = match &request {
            S1Request::Batch(items) => items.as_slice(),
            single => std::slice::from_ref(single),
        };
        for item in requests {
            if let S1Request::Dedup(dedup) = item {
                seen.extend(dedup.blindings.iter().map(|blinding| blinding.packed.len()));
            }
        }
        let (response, traffic) = self.inner.round_trip(request)?;
        let replies = match &response {
            S2Response::Batch(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for reply in replies {
            if let S2Response::Dedup { blindings, .. } = reply {
                seen.extend(blindings.iter().map(|blinding| blinding.packed.len()));
            }
        }
        self.items.lock().expect("tap lock").extend(seen);
        Ok((response, traffic))
    }
    fn s2_ledger(&self) -> LeakageLedger {
        self.inner.s2_ledger()
    }
    fn reset_s2(&mut self) {
        self.inner.reset_s2();
    }
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

#[test]
fn s2_is_sent_one_ehl_block_per_dedup_item() {
    // An EHL+ is one block, whatever `s` is, so every item SecDedup / SecDupElim ships —
    // and every item S2 returns, garbage included — carries its three masks in two `pk'`
    // ciphertexts.
    let relation = fig3_relation();
    let (attrs, k) = (vec![0, 1, 2], 2);
    let mut rng = StdRng::seed_from_u64(0xB0DD);
    let owner = DataOwner::new(TEST_MODULUS_BITS, TEST_EHL_KEYS, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    for variant in [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 2 }] {
        let name = variant.name();
        let items = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&items);
        let clouds = TwoClouds::over_transport(owner.keys(), 0xB0DE, move |provision| {
            Ok(Box::new(DedupTap { inner: InProcessTransport::new(provision.build()), items: tap }))
        })
        .expect("cloud setup");
        let keys = owner.keys().clone();
        let mut session = DirectSession::new(clouds, outsourced.clone(), keys, 0xB0DE);
        let query = Query::from_spec(TopKQuery::sum(attrs.clone(), k))
            .with_variant(VariantChoice::Fixed(variant));
        let resolved = session.execute(&query).expect("secure query succeeds");
        assert_valid_top_k(&relation, &attrs, &[], k, &resolved.object_ids(), name);
        let items = items.lock().expect("tap lock");
        assert!(!items.is_empty(), "{name}: the fig3 query deduplicates");
        assert!(items.iter().all(|&packed| packed == 2), "{name}: {items:?}");
    }
}

#[test]
fn planner_round_term_is_within_15_percent_of_the_measured_rounds() {
    // The query runs over the 20 ms link its plan declares, so this checks the WAN plan:
    // a session on a pool with that RTT, every sort one counting round.
    let relation = relation_32();
    let (attrs, k) = (vec![0, 1, 2], 3);
    let h = harness(relation.clone(), 0xB0D8);
    let server = QueryServer::new(h.owner.keys(), h.outsourced.clone(), 1);
    let mut session = server
        .open_session(SessionId(1), 0xB0D9, true, LinkProfile::with_rtt_ms(20))
        .expect("a session over a 20 ms link");
    for variant in [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 4 }] {
        let name = variant.name();
        let query = Query::from_spec(TopKQuery::sum(attrs.clone(), k))
            .with_variant(VariantChoice::Fixed(variant));
        let resolved = session.execute(&query).expect("secure query succeeds");
        assert_valid_top_k(&relation, &attrs, &[], k, &resolved.object_ids(), name);
        let stats = resolved.stats();
        assert!(stats.halted && stats.depths_scanned >= 4, "{name}: {stats:?}");

        let plan = stats.plan.as_ref().expect("the session records its plan");
        assert_eq!(plan.inputs.rtt_ms, 20.0, "{name}: the plan declares the session's link");
        let measured = stats.channel.rounds as f64;
        let predicted = estimated_rounds(&plan.inputs, variant, stats.depths_scanned);
        let error = (predicted - measured).abs() / measured;
        assert!(
            error <= 0.15,
            "{name}: predicted {predicted} rounds over {} depths, measured {measured}",
            stats.depths_scanned
        );
        // What the session recorded is the same model at the planner's own depth guess.
        let at_guess = estimated_rounds(&plan.inputs, variant, plan.estimated_depths);
        assert_eq!(plan.estimated_rounds, at_guess, "{name}");
    }
}
