//! The four workloads: their shapes, the seeded generators for relation and query
//! list, and the plaintext oracle every answer is checked against.
//!
//! The program under test only ever sees the generated inputs; the workload name never
//! reaches it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use sectopk_core::{nra_top_k, Query, QueryVariant, ResolvedTopK, VariantChoice};
use sectopk_storage::{ObjectId, Relation, Row};

/// Paillier modulus size the paper quotes for its measurements.
pub const MODULUS_BITS: usize = 256;
/// EHL+ hash keys (`s` in the paper).
pub const EHL_KEYS: usize = 5;
/// Untimed warm-up queries per session.
pub const WARMUP_QUERIES: usize = 2;

/// How S1 reaches S2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// A spawned `sectopk-s2d` process over loopback TCP (`DataOwner::connect_remote`).
    Daemon { workers: usize },
    /// An in-process `QueryServer` whose sessions run over a simulated link.
    Server { workers: usize, rtt_ms: u64 },
    /// `TransportKind::InProcess`: a direct call, no wire and no socket.
    InProcess,
}

/// Which relation generator the workload uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Data {
    /// Benchmark-owned correlated relation: heavy-tailed base quality per row plus
    /// uniform per-attribute noise, so NRA halts after a handful of depths.
    Correlated,
    /// Benchmark-owned anti-correlated relation: a row that leads one attribute of a
    /// pair trails the other, so NRA cannot halt before it has scanned (nearly) every
    /// row.
    AntiCorrelated,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    pub data: Data,
    pub rows: usize,
    pub sessions: usize,
    /// Queries of each session's list that are always executed, whatever the time
    /// budget; the count metrics are taken over exactly these, so they repeat.
    pub counted: usize,
}

pub const NAMES: [&str; 4] = ["lan-mixed", "wan-rtt20", "serve-2x", "deep-scan"];

const CORRELATED_ATTRIBUTES: usize = 6;

impl Spec {
    /// The workload called `name`; `quick` shrinks it to smoke-test size.
    pub fn named(name: &str, quick: bool) -> Option<Spec> {
        let spec = match name {
            "lan-mixed" => Spec {
                name: "lan-mixed",
                why: "deployed shape on an ideal link (driver + sectopk-s2d over loopback TCP): \
                      compute-bound, S1 arithmetic and owner-side resolve dominate",
                deployment: Deployment::Daemon { workers: 2 },
                data: Data::Correlated,
                rows: if quick { 16 } else { 128 },
                sessions: 1,
                counted: if quick { 2 } else { 12 },
            },
            "wan-rtt20" => Spec {
                name: "wan-rtt20",
                why: "in-process QueryServer over a 20 ms link: round-bound, so fewer round \
                      trips show here and faster arithmetic barely does",
                deployment: Deployment::Server { workers: 1, rtt_ms: 20 },
                data: Data::Correlated,
                rows: if quick { 16 } else { 64 },
                sessions: 1,
                counted: if quick { 1 } else { 8 },
            },
            "serve-2x" => Spec {
                name: "serve-2x",
                why: "two concurrent sessions on the lan-mixed daemon: queueing, session \
                      slots, lock contention and S1/S2 overlap",
                deployment: Deployment::Daemon { workers: 2 },
                data: Data::Correlated,
                rows: if quick { 16 } else { 128 },
                sessions: 2,
                counted: if quick { 2 } else { 12 },
            },
            "deep-scan" => Spec {
                name: "deep-scan",
                why: "in-process transport on anti-correlated rows: NRA scans all of them, so \
                      EncSort, SecUpdate and S2 decrypt dominate and transport is bypassed",
                deployment: Deployment::InProcess,
                data: Data::AntiCorrelated,
                rows: if quick { 5 } else { 12 },
                sessions: 1,
                counted: if quick { 3 } else { 6 },
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The link round-trip time the sessions run over, in milliseconds.
    pub fn rtt_ms(&self) -> u64 {
        match self.deployment {
            Deployment::Server { rtt_ms, .. } => rtt_ms,
            _ => 0,
        }
    }
}

/// The workload's relation, a pure function of `seed`.
pub fn relation(spec: &Spec, seed: u64) -> Relation {
    match spec.data {
        Data::Correlated => correlated(spec.rows, CORRELATED_ATTRIBUTES, seed),
        Data::AntiCorrelated => anti_correlated(spec.rows, seed),
    }
}

/// `rows × attributes` scores where the row of quality rank `r` has base quality
/// `6000 / (r + 1)^0.7` in every attribute plus uniform noise below 120 per attribute.
/// The base qualities are the quantiles of a heavy-tailed distribution rather than
/// draws from it, and the noise is smaller than the gap between any two of the first
/// seven, so every seed has the same clear leaders in every list and a top-k query
/// (k ≤ 5) does the same amount of work under every seed.  The seed decides which
/// object id gets which rank, the exact scores, and (in [`query_list`]) the attributes.
fn correlated(rows: usize, attributes: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0AA_E1A7_ED00_0001);
    let mut ids: Vec<u64> = (1..=rows as u64).collect();
    ids.shuffle(&mut rng);
    let rows = ids
        .into_iter()
        .enumerate()
        .map(|(rank, id)| {
            let base = 6000.0 / ((rank + 1) as f64).powf(0.7);
            let values = (0..attributes).map(|_| (base + rng.gen_range(0.0..120.0)) as u64);
            Row { id: ObjectId(id), values: values.collect() }
        })
        .collect();
    let names = (0..attributes).map(|a| format!("quality_{a}")).collect();
    Relation::new(names, rows)
}

/// `rows × 4` scores in two anti-correlated attribute pairs (0, 1) and (2, 3): the row
/// of rank `r` in a pair's first attribute scores about `100·(rows − r)` there and
/// `100·r` in the second, plus noise below 40.  The two sums of a pair differ only by
/// the noise, and the leader of either list is the straggler of the other, so its
/// upper bound stays above every lower bound until the scan reaches the bottom: the
/// tracked list grows to every row, under every seed.
fn anti_correlated(rows: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA271_C022_E1A7_ED01);
    let mut ranks: [Vec<usize>; 2] = [(0..rows).collect(), (0..rows).collect()];
    ranks.iter_mut().for_each(|r| r.shuffle(&mut rng));
    let rows = (0..rows)
        .map(|i| {
            let mut values = Vec::with_capacity(4);
            for pair in &ranks {
                let r = pair[i];
                values.push((100 * (rows - r)) as u64 + rng.gen_range(0..40u64));
                values.push((100 * r) as u64 + rng.gen_range(0..40u64));
            }
            Row { id: ObjectId(i as u64 + 1), values }
        })
        .collect();
    Relation::new((0..4).map(|a| format!("opposed_{a}")).collect(), rows)
}

/// One generated query, before it is handed to the program as a `Query`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    pub attributes: Vec<usize>,
    pub k: usize,
    pub variant: VariantChoice,
}

impl QuerySpec {
    pub fn build(&self) -> Query {
        Query::top_k(self.k)
            .attribute_indices(self.attributes.iter().copied())
            .variant(self.variant)
            .build()
            .expect("generated queries name at least one attribute and k >= 1")
    }
}

/// Session `session`'s query list, a pure function of `seed`.  A session replays it
/// cyclically for as long as the run lasts.
///
/// The shapes (m, k, variant) of the mixed list are the same for every seed — all 48
/// combinations of m ∈ {2,3,4}, k ∈ {2..5} and Auto / Qry_F / Qry_E / Qry_Ba(p = k),
/// ordered so that every stretch of 12 holds each (m, variant) pair once and each k
/// three times — and the seed picks the attributes.  Latency then differs between
/// seeds because the data does, not because one seed drew more four-attribute queries.
pub fn query_list(spec: &Spec, relation: &Relation, seed: u64, session: usize) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15 ^ ((session as u64) << 32));
    let num_attributes = relation.num_attributes();
    match spec.data {
        Data::Correlated => (0..48)
            .map(|i| {
                let k = 2 + (i + i / 12) % 4;
                let variant = match i % 4 {
                    0 => VariantChoice::Auto,
                    1 => VariantChoice::Fixed(QueryVariant::Full),
                    2 => VariantChoice::Fixed(QueryVariant::DupElim),
                    _ => VariantChoice::Fixed(QueryVariant::Batched { p: k }),
                };
                let mut attributes: Vec<usize> = (0..num_attributes).collect();
                attributes.shuffle(&mut rng);
                attributes.truncate(2 + i % 3);
                QuerySpec { attributes, k, variant }
            })
            .collect(),
        // The paper's time-per-depth shape: m = 2, k = 3 over the two anti-correlated
        // attribute pairs, each under Qry_F, Qry_E and Qry_Ba(p = 3).
        Data::AntiCorrelated => {
            let mut pairs = [vec![0, 1], vec![2, 3]];
            pairs.shuffle(&mut rng);
            pairs.iter_mut().for_each(|pair| pair.shuffle(&mut rng));
            let variants =
                [QueryVariant::Full, QueryVariant::DupElim, QueryVariant::Batched { p: 3 }];
            pairs
                .iter()
                .flat_map(|pair| {
                    variants.iter().map(|&v| QuerySpec {
                        attributes: pair.clone(),
                        k: 3,
                        variant: VariantChoice::Fixed(v),
                    })
                })
                .collect()
        }
    }
}

/// The plaintext answer to `query`: the true aggregate scores of the top-k, best first.
/// Scores rather than ids, so that ties at the k-th place cannot fail a correct answer.
/// Computed by a full sort and cross-checked against plaintext NRA.
pub fn oracle(relation: &Relation, query: &QuerySpec) -> Result<Vec<u128>, String> {
    let exact: Vec<u128> = relation
        .plaintext_top_k(&query.attributes, &[], query.k)
        .into_iter()
        .map(|(_, score)| score)
        .collect();
    let nra = nra_top_k(relation, &query.attributes, &[], query.k);
    let mut nra_scores =
        true_scores(relation, &query.attributes, nra.top_k.iter().map(|(id, _)| *id))?;
    nra_scores.sort_unstable_by(|a, b| b.cmp(a));
    if nra_scores != exact {
        return Err(format!("oracles disagree: NRA {nra_scores:?} vs full sort {exact:?}"));
    }
    Ok(exact)
}

fn true_scores(
    relation: &Relation,
    attributes: &[usize],
    ids: impl Iterator<Item = ObjectId>,
) -> Result<Vec<u128>, String> {
    ids.map(|id| {
        relation.aggregate_score(id, attributes, &[]).ok_or_else(|| format!("unknown object {id}"))
    })
    .collect()
}

/// Check one resolved answer against the oracle's scores: the query halted, every
/// result names an object, and the multiset of true scores is the plaintext top-k's.
pub fn check_answer(
    relation: &Relation,
    query: &QuerySpec,
    expected: &[u128],
    answer: &ResolvedTopK,
) -> Result<(), String> {
    if !answer.stats().halted {
        return Err(format!("did not halt within {} depths", answer.stats().depths_scanned));
    }
    let mut got = true_scores(relation, &query.attributes, answer.object_ids().into_iter())?;
    got.sort_unstable_by(|a, b| b.cmp(a));
    if got != expected {
        return Err(format!("scores {got:?}, plaintext top-{} is {expected:?}", query.k));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let spec = Spec::named("lan-mixed", true).unwrap();
        let (a, b, c) = (relation(&spec, 7), relation(&spec, 7), relation(&spec, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(query_list(&spec, &a, 7, 0), query_list(&spec, &b, 7, 0));
        assert_ne!(query_list(&spec, &a, 7, 0), query_list(&spec, &a, 8, 0));
        assert_ne!(query_list(&spec, &a, 7, 0), query_list(&spec, &a, 7, 1));
    }

    #[test]
    fn every_stretch_of_twelve_is_balanced() {
        let spec = Spec::named("lan-mixed", false).unwrap();
        let rel = relation(&spec, 1);
        let list = query_list(&spec, &rel, 1, 0);
        let mut shapes = std::collections::BTreeSet::new();
        for block in list.chunks(12) {
            for k in 2..=5 {
                assert_eq!(block.iter().filter(|q| q.k == k).count(), 3);
            }
            for m in 2..=4 {
                assert_eq!(block.iter().filter(|q| q.attributes.len() == m).count(), 4);
            }
        }
        for q in &list {
            shapes.insert((q.attributes.len(), q.k, format!("{:?}", q.variant)));
        }
        assert_eq!(shapes.len(), 48);
    }

    #[test]
    fn oracle_agrees_with_itself_on_every_workload() {
        for name in NAMES {
            let spec = Spec::named(name, true).unwrap();
            let rel = relation(&spec, 3);
            for q in query_list(&spec, &rel, 3, 0) {
                assert_eq!(oracle(&rel, &q).unwrap().len(), q.k);
            }
        }
    }
}
