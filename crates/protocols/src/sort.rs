//! `EncSort` — sorting a list of encrypted scored items by their (encrypted) worst score.
//!
//! The paper uses the sorting protocol of Baldimtsi–Ohrimenko \[7\] as a black box.  This
//! reproduction realises the same functionality as **one comparison network with a dial**,
//! a block size `2^b`:
//!
//! * **rank step** — every block of `2^b` wires is ranked by counting: all pairs of every
//!   block travel in one [`crate::transport::S1Request::Compare`] round, in a fresh order
//!   drawn from S1's RNG (so S2 receives a multiset), and S1 computes the ranks locally;
//! * **merge step** — the stages of Batcher's odd–even merge sort above the block size,
//!   one `Compare` round per stage (the gates of a stage are independent).
//!
//! `b = 0` is the full Batcher network: `x·(x+1)/2` rounds over the list padded to `2^x`
//! wires with sentinel (−1) entries and `O(t·log² t)` comparisons, the complexity the
//! paper quotes for EncSort (§10.3).  `2^b ≥ t` is pure rank-by-counting: one round,
//! `t(t−1)/2` comparisons, no padding.  [`sort_plan`] turns the dial from `t` and the
//! declared link alone: on a 20 ms link every list the benchmark produces sorts in one
//! round, on an ideal link the schedule that costs the least compute wins.
//!
//! Every comparison asks about one strict total order — larger worst score first, earlier
//! input position first among equals — so every block size returns the same sorted list,
//! and what S1 learns (`ComparisonBit`) is a function of that order alone: the rank order
//! of anonymous, freshly re-randomized items, which the functionality hands S1 anyway.
//! S2 sees blinded ±1 signs (DESIGN.md §5); a larger block only gives it more of them.
//! See DESIGN.md §6 for the discussion of this substitution.

use std::iter::successors;

use crate::error::Result;
use sectopk_crypto::paillier::Ciphertext;
use sectopk_crypto::prp::RandomPermutation;

use crate::context::TwoClouds;
use crate::items::{rerandomize_item_pooled, ScoredItem};
use crate::multiplex::LinkProfile;

/// How many cost units one millisecond of link RTT is worth — the planner's unit (one
/// unit ≈ one comparison ≈ one short exponentiation at S1 plus one decryption at S2,
/// ≈ 40 µs at the benchmark's 256-bit `N`), so a millisecond is ≈ 25 of them.
pub const RTT_UNITS_PER_MS: f64 = 25.0;

/// What one round costs on an ideal link, in the same units.  Measured at 256-bit `N`,
/// `s` = 5, in process on the 2-core host: `transport.inproc_round_us` ≈ 26–32 µs for a
/// one-ciphertext `Compare` (≈ 20 µs of it the decryption it carries), a further
/// comparison ≈ 41–49 µs across both clouds (blinding at S1, signed decryption at S2),
/// and the fixed part of a `compare_many` call — the transport round plus the one batch
/// inversion per call — ≈ 90–105 µs: about two comparisons.
const IDEAL_ROUND_UNITS: f64 = 2.0;

/// The schedule of one [`TwoClouds::enc_sort_by_worst_desc`] over `t` items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortPlan {
    /// The block size `2^b` ranked by counting: 1 is the plain Batcher network, `≥ t`
    /// pure rank-by-counting.
    pub block: usize,
    /// `Compare` rounds the sort costs.
    pub rounds: usize,
    /// Comparisons it ships.
    pub comparisons: usize,
}

impl SortPlan {
    /// The network over `t` wires that ranks blocks of `block` (a power of two).
    fn with_block(t: usize, block: usize) -> Self {
        if t <= 1 {
            return SortPlan { block, rounds: 0, comparisons: 0 };
        }
        if block >= t {
            return SortPlan { block, rounds: 1, comparisons: t * (t - 1) / 2 };
        }
        let n = t.next_power_of_two();
        let mut plan =
            SortPlan { block, rounds: usize::from(block > 1), comparisons: n * (block - 1) / 2 };
        // Merging two sorted runs of p = 2^j wires takes j + 1 stages and j·p + 1 gates.
        for p in successors(Some(block), |&p| Some(2 * p)).take_while(|&p| p < n) {
            let j = p.trailing_zeros() as usize;
            plan.rounds += j + 1;
            plan.comparisons += n / (2 * p) * (j * p + 1);
        }
        plan
    }
}

/// The schedule for sorting `t` items over `link`: the block size whose comparisons plus
/// rounds × (`IDEAL_ROUND_UNITS` + RTT × [`RTT_UNITS_PER_MS`]) cost least, the smallest
/// block among equals.  The sort, the planner's round and operation terms and
/// `tests/round_budget.rs` all read it.
pub fn sort_plan(t: usize, link: LinkProfile) -> SortPlan {
    let round_units = IDEAL_ROUND_UNITS + link.rtt.as_secs_f64() * 1e3 * RTT_UNITS_PER_MS;
    let cost = |plan: &SortPlan| plan.comparisons as f64 + plan.rounds as f64 * round_units;
    let widest = t.max(1).next_power_of_two();
    successors(Some(1usize), |&block| (block < widest).then_some(2 * block))
        .map(|block| SortPlan::with_block(t, block))
        .min_by(|a, b| cost(a).total_cmp(&cost(b)))
        .unwrap_or(SortPlan { block: 1, rounds: 0, comparisons: 0 })
}

/// The compare-exchange gates of the Batcher odd–even merge sort over `n = 2^x` wires
/// that merge sorted runs of `from` wires and up, grouped into stages of mutually
/// independent gates (`from = 1`: the whole network).
fn batcher_stages(n: usize, from: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(n.is_power_of_two(), "network is generated for power-of-two sizes");
    let mut stages = Vec::new();
    let mut p = from;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut stage = Vec::new();
            let mut j = k % p;
            while j + k < n {
                for i in 0..k {
                    let lo = i + j;
                    let hi = i + j + k;
                    if hi < n && (lo / (p * 2)) == (hi / (p * 2)) {
                        stage.push((lo, hi));
                    }
                }
                j += 2 * k;
            }
            if !stage.is_empty() {
                stages.push(stage);
            }
            k /= 2;
        }
        p *= 2;
    }
    stages
}

/// Run the network that ranks blocks of `block` over `t` inputs and return the inputs'
/// indices in sorted order.  Wires `t..` (present when `block < t`) are pads that sort
/// last.  `precede(pairs, any_order)` is one round: for every pair `(a, b)` of wires,
/// `a < b`, does `a` go first?  `any_order` marks the rank step, whose pairs may be shipped
/// in any order; a merge stage's may not.
fn network_order<E>(
    t: usize,
    block: usize,
    mut precede: impl FnMut(&[(usize, usize)], bool) -> std::result::Result<Vec<bool>, E>,
) -> std::result::Result<Vec<usize>, E> {
    if t <= 1 {
        return Ok((0..t).collect());
    }
    let n = if block >= t { t } else { t.next_power_of_two() };
    let block = block.min(n);
    let mut wires: Vec<usize> = (0..n).collect();

    if block > 1 {
        let pairs: Vec<(usize, usize)> = (0..n)
            .step_by(block)
            .flat_map(|start| {
                (start..start + block)
                    .flat_map(move |a| (a + 1..start + block).map(move |b| (a, b)))
            })
            .collect();
        // A wire's rank inside its block is the number of wires that go before it.
        let mut rank = vec![0; n];
        for (&(a, b), a_first) in pairs.iter().zip(precede(&pairs, true)?) {
            rank[if a_first { b } else { a }] += 1;
        }
        for (wire, r) in rank.into_iter().enumerate() {
            wires[wire / block * block + r] = wire;
        }
    }
    if block < n {
        for stage in batcher_stages(n, block) {
            let pairs: Vec<(usize, usize)> = stage
                .iter()
                .map(|&(lo, hi)| (wires[lo].min(wires[hi]), wires[lo].max(wires[hi])))
                .collect();
            for (&(lo, hi), a_first) in stage.iter().zip(precede(&pairs, false)?) {
                // `lo` keeps its wire exactly when that wire goes first.
                if (wires[lo] < wires[hi]) != a_first {
                    wires.swap(lo, hi);
                }
            }
        }
    }
    wires.retain(|&wire| wire < t);
    Ok(wires)
}

impl TwoClouds {
    /// Rank encrypted `keys` in **descending** order, ties by input position: the input
    /// indices, best first.  One network of [`sort_plan`]`(keys.len(), link)`, every
    /// comparison recorded under `context` — the ranking behind
    /// [`Self::enc_sort_by_worst_desc`] and the top-k join's final selection.
    pub fn enc_rank_desc(&mut self, keys: Vec<Ciphertext>, context: &str) -> Result<Vec<usize>> {
        let block = sort_plan(keys.len(), self.link_profile()).block;
        self.enc_rank_with_block(keys, block, context)
    }

    /// [`Self::enc_rank_desc`] with the block size fixed.
    fn enc_rank_with_block(
        &mut self,
        mut keys: Vec<Ciphertext>,
        block: usize,
        context: &str,
    ) -> Result<Vec<usize>> {
        let t = keys.len();
        if block < t {
            // Pads carry the minimal score Z = −1 and, being the last wires, lose every
            // tie; S1 knows which wires they are and drops them without interaction.
            let z = self.s1.keys.paillier_public.sentinel_z();
            for _ in t..t.next_power_of_two() {
                keys.push(self.s1.pool.encrypt(&z)?);
            }
        }
        network_order(t, block, |pairs, any_order| {
            // `a` goes first ⇔ key_b ≤ key_a (a < b, so `a` wins a tie).
            let asked: Vec<(Ciphertext, Ciphertext)> =
                pairs.iter().map(|&(a, b)| (keys[b].clone(), keys[a].clone())).collect();
            if !any_order {
                return self.compare_many(&asked, context);
            }
            let shuffle = RandomPermutation::sample(asked.len(), &mut self.s1.rng);
            let answers = self.compare_many(&shuffle.permute(&asked), context)?;
            Ok(shuffle.unpermute(&answers))
        })
    }

    /// Sort `items` in **descending** order of their worst score (the order SecQuery
    /// needs to pick the current top-k, Algorithm 3 line 9), ties in input order.
    /// Returns the sorted list; every returned ciphertext is freshly re-randomized.
    pub fn enc_sort_by_worst_desc(&mut self, items: Vec<ScoredItem>) -> Result<Vec<ScoredItem>> {
        if items.len() <= 1 {
            return Ok(items);
        }
        let worsts = items.iter().map(|item| item.worst.clone()).collect();
        let order = self.enc_rank_desc(worsts, "enc_sort")?;
        // Re-randomize so the output ciphertexts are unlinkable to the inputs.
        Ok(order
            .into_iter()
            .map(|i| rerandomize_item_pooled(&items[i], &mut self.s1.pool))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LeakageEvent;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::bigint::symmetric_i64;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::MIN_MODULUS_BITS;
    use sectopk_ehl::EhlEncoder;

    /// Every block size a list of `t` can be given: 1, 2, 4, … up to the first ≥ `t`.
    fn block_sizes(t: usize) -> impl Iterator<Item = usize> {
        let widest = t.max(1).next_power_of_two();
        successors(Some(1usize), move |&block| (block < widest).then_some(2 * block))
    }

    /// The network run in plaintext over `values` (pads are −1): the sorted input
    /// indices, plus every round's answers.
    fn plain_order(values: &[i64], block: usize) -> (Vec<usize>, Vec<Vec<bool>>) {
        let mut rounds = Vec::new();
        let key = |w: usize| values.get(w).copied().unwrap_or(-1);
        let order = network_order(values.len(), block, |pairs, _| {
            rounds.push(pairs.iter().map(|&(a, b)| key(b) <= key(a)).collect::<Vec<_>>());
            Ok::<_, ()>(rounds[rounds.len() - 1].clone())
        })
        .unwrap();
        (order, rounds)
    }

    /// Descending by value, ties by input index.
    fn expected_order(values: &[i64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[b].cmp(&values[a]).then(a.cmp(&b)));
        order
    }

    proptest! {
        #[test]
        fn every_block_size_sorts_descending_with_ties_in_input_order(
            values in proptest::collection::vec(-3i64..6, 0..=40)
        ) {
            // A range of a few values makes ties, −1 sentinels and negatives common.
            for block in block_sizes(values.len()) {
                prop_assert_eq!(plain_order(&values, block).0, expected_order(&values));
            }
        }
    }

    #[test]
    fn every_block_size_sorts_all_permutations_of_eight() {
        // Exhaustive over the 8! orders of eight distinct values, for every block from the
        // full network (1) to pure counting (8), and patterns with ties against the pads
        // (t = 5, 6, 7 pad to 8).
        let mut values: Vec<i64> = (0..8).collect();
        let mut count = 0;
        permute(&mut values, 0, &mut |perm| {
            count += 1;
            for block in block_sizes(8) {
                assert_eq!(plain_order(perm, block).0, expected_order(perm), "{perm:?} / {block}");
            }
        });
        assert_eq!(count, 40_320);
        for tied in [vec![-1, -1, 5, -1, 5], vec![0, -1, 0, -1, 0, -1], vec![2, 2, 2, 2, 2, 2, 2]] {
            for block in block_sizes(tied.len()) {
                assert_eq!(plain_order(&tied, block).0, expected_order(&tied), "{tied:?}");
            }
        }
    }

    fn permute(v: &mut Vec<i64>, k: usize, f: &mut impl FnMut(&[i64])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn a_plan_counts_what_its_network_asks() {
        // For every length and block, the closed forms of `with_block` are the rounds and
        // comparisons the network actually ships — so `sort_plan` prices what the sort
        // pays.
        for t in 0..=70usize {
            for block in block_sizes(t) {
                let (_, rounds) = plain_order(&vec![0; t], block);
                let comparisons = rounds.iter().map(Vec::len).sum();
                assert_eq!(
                    SortPlan::with_block(t, block),
                    SortPlan { block, rounds: rounds.len(), comparisons },
                    "t = {t}"
                );
            }
        }
        // The two ends: block 1 is the Batcher network (x(x+1)/2 stages, 543 gates on
        // 64 wires), block ≥ t pure counting.
        assert_eq!(
            SortPlan::with_block(48, 1),
            SortPlan { block: 1, rounds: 21, comparisons: 543 }
        );
        assert_eq!(
            SortPlan::with_block(48, 64),
            SortPlan { block: 64, rounds: 1, comparisons: 1128 }
        );
        assert_eq!(batcher_stages(8, 1).iter().map(Vec::len).sum::<usize>(), 19);
    }

    #[test]
    fn sort_plan_choices_are_pinned() {
        // What the dial picks for every list length the test and benchmark relations
        // produce.  20 ms: one round for every t ≤ 64 (t = 2 is a single gate either
        // way).  Ideal link: pure counting while t(t−1)/2 undercuts the padded network
        // plus two units per round, Batcher (block 1) where padding is cheap, and once a
        // block of 4 (t = 8: 21 comparisons in 4 rounds instead of 19 in 6).
        let wan = LinkProfile::with_rtt_ms(20);
        for t in 2..=64usize {
            let plan = sort_plan(t, wan);
            assert_eq!((plan.rounds, plan.comparisons), (1, t * (t - 1) / 2), "t = {t}, 20 ms");
        }
        let expected_block = |t: usize| match t {
            2 | 14..=16 | 22..=32 | 35.. => 1,
            8 => 4,
            _ => t.next_power_of_two(),
        };
        for t in 2..=64usize {
            assert_eq!(sort_plan(t, LinkProfile::ideal()).block, expected_block(t), "t = {t}");
        }
        assert_eq!(sort_plan(0, wan), SortPlan { block: 1, rounds: 0, comparisons: 0 });
        assert_eq!(sort_plan(1, wan), SortPlan { block: 1, rounds: 0, comparisons: 0 });
    }

    fn items(master: &MasterKeys, worsts: &[i64], rng: &mut StdRng) -> Vec<ScoredItem> {
        let encoder = EhlEncoder::new(&master.ehl_keys);
        let pk = &master.paillier_public;
        worsts
            .iter()
            .enumerate()
            .map(|(i, &w)| ScoredItem {
                ehl: encoder.encode(format!("obj{i}").as_bytes(), pk, rng).unwrap(),
                worst: pk.encrypt_i64(w, rng).unwrap(),
                best: pk.encrypt_i64(w + 10, rng).unwrap(),
            })
            .collect()
    }

    #[test]
    fn enc_sort_orders_descending_and_preserves_items() {
        let mut rng = StdRng::seed_from_u64(123);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 3, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 5).unwrap();
        let (sk, n) = (&master.paillier_secret, master.paillier_public.n());

        let worsts: Vec<i64> = vec![5, -1, 42, 17, 17, 3, 0];
        let sorted = clouds.enc_sort_by_worst_desc(items(&master, &worsts, &mut rng)).unwrap();
        assert_eq!(sorted.len(), worsts.len());
        let decrypted: Vec<i64> = sorted
            .iter()
            .map(|it| symmetric_i64(&sk.decrypt(&it.worst).unwrap(), n).unwrap())
            .collect();
        let mut expected = worsts.clone();
        expected.sort_by(|a, b| b.cmp(a));
        assert_eq!(decrypted, expected);

        // The (worst, best) pairing must be preserved: best = worst + 10 for every item.
        for it in &sorted {
            let w = symmetric_i64(&sk.decrypt(&it.worst).unwrap(), n).unwrap();
            let b = symmetric_i64(&sk.decrypt(&it.best).unwrap(), n).unwrap();
            assert_eq!(b, w + 10);
        }
    }

    #[test]
    fn every_block_size_ranks_ciphertexts_as_the_plaintext_network() {
        // The encrypted comparator against the plaintext one, on ties, −1 and negatives,
        // at every block size: same order, one round per network round, and the bits S1
        // records agree with the plaintext order of the list — round by round, as a
        // multiset where the counting step shipped its pairs shuffled.
        let mut rng = StdRng::seed_from_u64(124);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let pk = &master.paillier_public;
        for values in [vec![3, -1, 3, 0, -2, 7, -1, 3, 0, 5, -1], vec![4, -1, 4, -1, 4]] {
            let keys: Vec<Ciphertext> =
                values.iter().map(|&v| pk.encrypt_i64(v, &mut rng).unwrap()).collect();
            for block in block_sizes(values.len()) {
                let mut clouds = TwoClouds::new(&master, 6).unwrap();
                let order = clouds.enc_rank_with_block(keys.clone(), block, "enc_sort").unwrap();
                let (expected, plain_rounds) = plain_order(&values, block);
                assert_eq!(order, expected, "{values:?} / {block}");
                assert_eq!(order, expected_order(&values), "{values:?} / {block}");
                assert_eq!(clouds.channel().rounds, plain_rounds.len() as u64, "block {block}");
                let mut bits = clouds.s1_ledger().iter().map(|event| match event {
                    LeakageEvent::ComparisonBit { less_or_equal, .. } => less_or_equal,
                    other => panic!("S1 saw {other:?}"),
                });
                for plain in plain_rounds {
                    let mut seen: Vec<bool> = bits.by_ref().take(plain.len()).collect();
                    let mut plain = plain;
                    seen.sort_unstable();
                    plain.sort_unstable();
                    assert_eq!(seen, plain, "{values:?} / {block}");
                }
                assert!(bits.next().is_none(), "S1 saw more bits than the network asked");
            }
        }
    }

    #[test]
    fn sorting_zero_or_one_items_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(9);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let mut clouds = TwoClouds::new(&master, 1).unwrap();
        assert!(clouds.enc_sort_by_worst_desc(Vec::new()).unwrap().is_empty());

        let single = items(&master, &[3], &mut rng);
        assert_eq!(clouds.enc_sort_by_worst_desc(single.clone()).unwrap(), single);
        assert_eq!(clouds.channel(), crate::ChannelMetrics::default());
    }

    #[test]
    fn a_sort_pays_the_rounds_of_its_plan() {
        // The session's link picks the plan and the channel shows exactly its rounds — on
        // an ideal link 8 items take a block of 4 and its merge, 20 one counting round,
        // 24 the Batcher network's 15.
        let mut rng = StdRng::seed_from_u64(77);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        for (t, rounds) in [(8usize, 4u64), (20, 1), (24, 15)] {
            let mut clouds = TwoClouds::new(&master, 2).unwrap();
            let worsts: Vec<i64> = (0..t as i64).map(|i| i * 7 % 5).collect();
            let _ = clouds.enc_sort_by_worst_desc(items(&master, &worsts, &mut rng)).unwrap();
            let plan = sort_plan(t, clouds.link_profile());
            assert_eq!((clouds.channel().rounds, plan.rounds as u64), (rounds, rounds), "t = {t}");
        }
    }
}
