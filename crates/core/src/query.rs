//! `SecQuery` — the secure top-k query processing loop of Algorithm 3, in its three
//! evaluated flavours:
//!
//! * [`QueryVariant::Full`]   — `Qry_F`: full privacy; the per-depth duplicates are
//!   neutralised in place (SecDedup) and the global list `T` grows by `m` items per
//!   depth, so S1 never learns how many distinct objects it has seen.
//! * [`QueryVariant::DupElim`] — `Qry_E` (§10.1): duplicates are eliminated (SecDupElim),
//!   keeping `T` at the number of distinct objects at the cost of revealing the per-depth
//!   uniqueness pattern to S1.
//! * [`QueryVariant::Batched`] — `Qry_Ba` (§10.2): the expensive de-duplication, sorting
//!   and halting checks run only every `p` depths.
//!
//! The loop follows the paper: sorted access to the `m` token lists depth by depth,
//! `SecWorst` / `SecBest` for the per-depth bounds, `SecDedup`/`SecDupElim`, `SecUpdate`
//! into the global list, `EncSort` by worst score and an encrypted halting check.  Every
//! step costs one round — S2 makes a step's selections inside its equality round — so a
//! depth's wire pattern is bounds 1, dedup 1, update 1, the rounds of the sort's plan and
//! halting 1 (the budget `tests/round_budget.rs` pins and the planner's RTT term models).  The
//! halting check follows Algorithm 1's semantics (every object outside the current top-k
//! — seen or unseen — must be dominated), which is slightly stronger than the
//! `W_k ≥ B_{k+1}` shortcut written in Algorithm 3; see DESIGN.md.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use sectopk_crypto::paillier::Ciphertext;
use sectopk_protocols::{ChannelMetrics, LeakageEvent, ScoredItem, TwoClouds, UpdateMode};
use sectopk_storage::{EncryptedItem, EncryptedRelation, QueryToken};

use crate::error::{Result, SecTopKError};
use crate::planner::PlanDecision;

/// Which processing variant to run (§11.2.1 names them Qry_F, Qry_E and Qry_Ba).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryVariant {
    /// `Qry_F`: full privacy, no optimisation.
    Full,
    /// `Qry_E`: eliminate duplicates with SecDupElim at every depth.
    DupElim,
    /// `Qry_Ba`: batch the de-duplication / sorting / halting check every `p` depths.
    Batched {
        /// The batching parameter `p` (the paper suggests `p ≥ k`).
        p: usize,
    },
}

impl QueryVariant {
    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            QueryVariant::Full => "Qry_F",
            QueryVariant::DupElim => "Qry_E",
            QueryVariant::Batched { .. } => "Qry_Ba",
        }
    }
}

/// Configuration of one secure query execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Processing variant.
    pub variant: QueryVariant,
    /// Optional hard cap on the number of depths scanned (used by the benchmark harness
    /// to measure time-per-depth without running a large relation to completion).  The
    /// query still returns its current top-k estimate when the cap is hit.
    pub max_depth: Option<usize>,
}

impl QueryConfig {
    /// Full-privacy configuration.
    pub fn full() -> Self {
        QueryConfig { variant: QueryVariant::Full, max_depth: None }
    }

    /// SecDupElim-optimised configuration.
    pub fn dup_elim() -> Self {
        QueryConfig { variant: QueryVariant::DupElim, max_depth: None }
    }

    /// Batched configuration with parameter `p`.
    pub fn batched(p: usize) -> Self {
        assert!(p >= 1, "batching parameter must be at least 1");
        QueryConfig { variant: QueryVariant::Batched { p }, max_depth: None }
    }

    /// Limit the scan to at most `depths` depths.
    pub fn with_max_depth(mut self, depths: usize) -> Self {
        self.max_depth = Some(depths);
        self
    }
}

/// Statistics of one query execution (feeds Figs. 9–13 and Table 3).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct QueryStats {
    /// Number of depths scanned (= halting depth unless the scan was capped).
    pub depths_scanned: usize,
    /// Whether the NRA halting condition was reached (false if the depth cap stopped us
    /// or the whole relation was scanned without the condition holding).
    pub halted: bool,
    /// Wall-clock seconds per scanned depth.
    pub per_depth_seconds: Vec<f64>,
    /// Channel traffic attributed to each scanned depth.
    pub per_depth_channel: Vec<ChannelMetrics>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Total channel traffic of the query.
    pub channel: ChannelMetrics,
    /// Number of halting checks executed.
    pub halting_checks: usize,
    /// Size of the tracked list `T` when the query finished.
    pub final_tracked_len: usize,
    /// The variant decision this execution ran under (set by the `Session` facade:
    /// `auto: true` when the planner chose, `auto: false` when the caller fixed the
    /// variant).  `None` for direct `sec_query` calls.
    pub plan: Option<PlanDecision>,
}

impl QueryStats {
    /// Average wall-clock seconds per depth (the paper's headline metric, §11.2.1).
    pub fn seconds_per_depth(&self) -> f64 {
        if self.depths_scanned == 0 {
            0.0
        } else {
            self.total_seconds / self.depths_scanned as f64
        }
    }

    /// Average bytes exchanged per depth (Fig. 13a).
    pub fn bytes_per_depth(&self) -> f64 {
        if self.depths_scanned == 0 {
            0.0
        } else {
            self.channel.bytes as f64 / self.depths_scanned as f64
        }
    }
}

/// The result of a secure top-k query: the encrypted top-k items (object encodings plus
/// their encrypted bounds) and the execution statistics.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The (at most) k encrypted result items, ordered by decreasing worst score.
    pub top_k: Vec<ScoredItem>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Execute a secure top-k query over the encrypted relation `er` with `token`.
///
/// The call drives both clouds of `clouds`; the communication and leakage they accrue is
/// recorded in `clouds.channel` and the per-party ledgers (the caller may want to
/// [`TwoClouds::reset_accounting`] first; [`QueryStats::channel`] is this query's either way).
#[expect(
    clippy::disallowed_methods,
    reason = "QueryStats wall-time diagnostics only: elapsed seconds are reported to the caller \
              and excluded from the byte-identity and ledger-golden comparisons"
)]
pub fn sec_query(
    clouds: &mut TwoClouds,
    er: &EncryptedRelation,
    token: &QueryToken,
    config: &QueryConfig,
) -> Result<QueryOutcome> {
    let started = Instant::now();
    let channel_at_start = clouds.channel();
    let m = token.num_attributes();
    let k = token.k.max(1);
    let n = er.num_objects();
    if m == 0 {
        return Err(SecTopKError::malformed("token must name at least one list"));
    }
    if let Some(&bad) = token.permuted_lists.iter().find(|&&l| l >= er.num_attributes()) {
        return Err(SecTopKError::malformed(format!(
            "token names list {bad}, but the encrypted relation has only {} lists \
             (was the token minted for a different relation?)",
            er.num_attributes()
        )));
    }

    // The query pattern leakage: S1 learns that (and which) token was issued.
    let fingerprint = token_fingerprint(token);
    clouds.s1.ledger.record(LeakageEvent::QueryIssued { token_fingerprint: fingerprint });

    let (update_mode, check_every) = match config.variant {
        QueryVariant::Full => (UpdateMode::KeepLength, 1usize),
        QueryVariant::DupElim => (UpdateMode::Eliminate, 1usize),
        QueryVariant::Batched { p } => (UpdateMode::Eliminate, p.max(1)),
    };
    let max_depth = config.max_depth.unwrap_or(n).min(n);

    // Per-list state: the items seen so far (needed by SecBest) with weights applied.
    let mut seen: Vec<Vec<EncryptedItem>> = vec![Vec::new(); m];
    // The global tracked list T^d.
    let mut tracked: Vec<ScoredItem> = Vec::new();
    // In batched mode, the within-batch accumulator.
    let mut batch_tracked: Vec<ScoredItem> = Vec::new();

    let mut stats = QueryStats::default();
    let mut halted = false;

    for depth in 0..max_depth {
        let depth_started = Instant::now();
        let channel_before = clouds.channel();

        // ---- Sorted access: the item of every token list at this depth (weights applied
        //      homomorphically as §7 prescribes).  Its EHL+ is one block, so every later
        //      `⊖` is one exponentiation and every shipped item carries one block (DESIGN.md
        //      §10). -----------------------------------------------------------------------
        let mut depth_items: Vec<EncryptedItem> = Vec::with_capacity(m);
        for (j, &list_idx) in token.permuted_lists.iter().enumerate() {
            let raw = er.list(list_idx).item(depth).ok_or_else(|| {
                SecTopKError::malformed(format!(
                    "encrypted list {list_idx} is shorter than the relation size {n}"
                ))
            })?;
            let weighted_score = if token.weight(j) == 1 {
                raw.score.clone()
            } else {
                clouds.apply_weight(&raw.score, token.weight(j))
            };
            let item = EncryptedItem { ehl: raw.ehl.clone(), score: weighted_score };
            seen[j].push(item.clone());
            depth_items.push(item);
        }

        // ---- SecWorst / SecBest for the current depth (Algorithm 3 lines 5-6): neither
        //      needs the other's output, so they share one equality round. ---------------
        let (worsts, bests) = clouds.sec_bounds_depth(&depth_items, &seen, depth)?;
        let gamma: Vec<ScoredItem> = depth_items
            .iter()
            .zip(worsts.into_iter().zip(bests))
            .map(|(item, (worst, best))| ScoredItem { ehl: item.ehl.clone(), worst, best })
            .collect();

        // ---- Per-depth de-duplication (Algorithm 3 line 7). ------------------------------
        let gamma = match config.variant {
            QueryVariant::Full => clouds.sec_dedup(gamma, depth)?,
            _ => clouds.sec_dup_elim(gamma, depth)?,
        };

        // ---- SecUpdate into the global (or batch) list (Algorithm 3 line 8). -------------
        match config.variant {
            QueryVariant::Batched { .. } => {
                batch_tracked =
                    clouds.sec_update(batch_tracked, &gamma, depth, UpdateMode::Eliminate)?;
            }
            _ => {
                tracked = clouds.sec_update(tracked, &gamma, depth, update_mode)?;
            }
        }

        // ---- Halting check every `check_every` depths (Algorithm 3 lines 9-12). ----------
        let is_check_depth = (depth + 1) % check_every == 0 || depth + 1 == max_depth;
        if is_check_depth {
            if let QueryVariant::Batched { .. } = config.variant {
                if !batch_tracked.is_empty() {
                    tracked =
                        clouds.sec_update(tracked, &batch_tracked, depth, UpdateMode::Eliminate)?;
                    batch_tracked = Vec::new();
                }
            }

            tracked = clouds.enc_sort_by_worst_desc(tracked)?;
            stats.halting_checks += 1;

            if tracked.len() >= k {
                let w_k = tracked[k - 1].worst.clone();

                // Candidates that must be dominated: the best score of every tracked item
                // outside the current top-k, plus the upper bound of any still-unseen
                // object (the sum of the current bottom scores of the scanned lists).
                let mut candidate_bests: Vec<Ciphertext> =
                    tracked[k..].iter().map(|it| it.best.clone()).collect();
                let bottoms: Vec<Ciphertext> = seen
                    .iter()
                    .map(|l| l.last().expect("scanned at least one depth").score.clone())
                    .collect();
                candidate_bests.push(clouds.sum_ciphertexts(&bottoms));

                let dominated =
                    clouds.batch_compare_leq(&candidate_bests, &w_k, "halting_check")?;
                if dominated.iter().all(|&d| d) {
                    halted = true;
                }
            }
        }

        let depth_channel = clouds.channel().since(&channel_before);
        stats.per_depth_channel.push(depth_channel);
        stats.per_depth_seconds.push(depth_started.elapsed().as_secs_f64());
        stats.depths_scanned = depth + 1;

        if halted {
            clouds.s1.ledger.record(LeakageEvent::HaltingDepth(depth + 1));
            break;
        }
    }

    // The last depth of the loop is always a check depth (`depth + 1 == max_depth` is
    // one), so a scan that stopped at the cap or ran out of rows has already merged its
    // batch and sorted `tracked`: the current estimate is the answer, at no further round.
    if !halted {
        clouds.s1.ledger.record(LeakageEvent::HaltingDepth(stats.depths_scanned));
    }

    let top_k: Vec<ScoredItem> = tracked.iter().take(k).cloned().collect();

    stats.halted = halted;
    stats.final_tracked_len = tracked.len();
    stats.total_seconds = started.elapsed().as_secs_f64();
    stats.channel = clouds.channel().since(&channel_at_start);

    Ok(QueryOutcome { top_k, stats })
}

/// A stable fingerprint of a token, modelling the query-pattern leakage `QP` (S1 can
/// always tell repeated tokens apart from new ones).
fn token_fingerprint(token: &QueryToken) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    token.permuted_lists.hash(&mut h);
    token.weights.hash(&mut h);
    token.k.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert_eq!(QueryConfig::full().variant, QueryVariant::Full);
        assert_eq!(QueryConfig::dup_elim().variant, QueryVariant::DupElim);
        assert_eq!(QueryConfig::batched(5).variant, QueryVariant::Batched { p: 5 });
        let capped = QueryConfig::full().with_max_depth(7);
        assert_eq!(capped.max_depth, Some(7));
        assert_eq!(QueryVariant::Full.name(), "Qry_F");
        assert_eq!(QueryVariant::DupElim.name(), "Qry_E");
        assert_eq!(QueryVariant::Batched { p: 3 }.name(), "Qry_Ba");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batching_parameter_is_rejected() {
        let _ = QueryConfig::batched(0);
    }

    #[test]
    fn stats_averages() {
        let mut stats = QueryStats::default();
        assert_eq!(stats.seconds_per_depth(), 0.0);
        stats.depths_scanned = 4;
        stats.total_seconds = 2.0;
        stats.channel.bytes = 400;
        assert!((stats.seconds_per_depth() - 0.5).abs() < 1e-12);
        assert!((stats.bytes_per_depth() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_distinguish_tokens() {
        let a = QueryToken { permuted_lists: vec![1, 2], weights: vec![], k: 3 };
        let b = QueryToken { permuted_lists: vec![1, 2], weights: vec![], k: 4 };
        assert_eq!(token_fingerprint(&a), token_fingerprint(&a));
        assert_ne!(token_fingerprint(&a), token_fingerprint(&b));
    }
}
