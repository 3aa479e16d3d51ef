//! Executable leakage profiles (§9 and §10 of the paper).
//!
//! Theorem 9.2 states that SecTopK is CQA-secure with respect to the leakage functions
//! `L_Setup = (|R|, M)`, `L¹_Query = (QP, D_q)` (query pattern and halting depth, for S1)
//! and `L²_Query = {EP^d}` (per-depth equality patterns, for S2).  The optimisations add
//! the uniqueness pattern `UP^d` for S1 (`Qry_E`, §10.1) and the paper discusses how
//! batching dilutes it (§10.2).
//!
//! This module turns those statements into checkable predicates over the
//! [`sectopk_protocols::LeakageLedger`]s that the sub-protocols populate: after a query,
//! each cloud's recorded view must contain *only* event kinds allowed by its profile.
//! (The realisations of EncSort / EncCompare additionally reveal comparison outcomes of
//! anonymous items to S1 and blinded signs to S2 — see DESIGN.md §5–§6 — so those kinds
//! are part of the allowed sets.)
//!
//! What the kind check cannot see, and what holds besides it:
//!
//! * a `ComparisonBit` is a fact about the *order* of the list being sorted, never about
//!   a value: every EncSort schedule `sort_plan` can pick asks about one strict total
//!   order (larger score first, earlier position among equals), and
//!   `tests/leakage_profiles.rs` checks that tripling every score leaves S1's bit
//!   sequence unchanged;
//! * `MaskedValues` counts the selection candidates `x + r` of one equality round, each
//!   `r` uniform modulo `N`, fresh and known only to S1: uniform to S2, never shared
//!   between two rows S1 permuted apart, and as many as the round's shape says, so they
//!   add nothing to the equality pattern they ride with;
//! * a `BlindedSign` is ±1 and never shows a tie — S1 compares odd differences, so under
//!   `Qry_F` the neutralised duplicates (`Z = −1`) are not counted by zero signs, which
//!   would be `UP^d`;
//! * the residual that stays: S2 sees the magnitude of every compared difference to
//!   within a factor `2¹⁶` (the blinding scale `α`); bit-decomposition comparison, the
//!   paper's black box, would hide it and is the recorded deviation (DESIGN.md §5).

use std::fmt;

use sectopk_protocols::{LeakageLedger, TwoClouds};

use crate::query::QueryVariant;

/// A recorded observation that falls outside the leakage profile of a variant — the
/// typed replacement for the earlier `Result<(), String>` check result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeakageViolation {
    /// Which party over-observed (`"S1"` or `"S2"`).
    pub party: &'static str,
    /// The offending event kind.
    pub kind: String,
    /// The variant whose profile was violated (paper name, e.g. `"Qry_F"`).
    pub variant: &'static str,
    /// Debug rendering of the offending event, for actionable test failures.
    pub event: String,
}

impl fmt::Display for LeakageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} observed a '{}' event, which the {} leakage profile does not allow: {}",
            self.party, self.kind, self.variant, self.event
        )
    }
}

impl std::error::Error for LeakageViolation {}

/// The event kinds each party is allowed to observe for a query variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeakageProfile {
    /// Event kinds S1's view may contain.
    pub s1_allowed: &'static [&'static str],
    /// Event kinds S2's view may contain.
    pub s2_allowed: &'static [&'static str],
}

/// S1's view under full privacy: the query pattern, the halting depth, and the
/// comparison outcomes of the (anonymous) sorting / halting comparisons.
pub const S1_FULL: &[&str] = &["query_issued", "halting_depth", "comparison_bit"];

/// S1's view under the SecDupElim / batching optimisations: additionally the per-depth
/// uniqueness pattern.
pub const S1_OPTIMIZED: &[&str] =
    &["query_issued", "halting_depth", "comparison_bit", "unique_count"];

/// S2's view: the per-depth equality patterns plus the blinded comparison signs and the
/// masked selection candidates it decrypts beside the equality bits.
pub const S2_ALL: &[&str] = &["equality_bit", "blinded_sign", "masked_values"];

/// The leakage profile of a query variant.
pub fn profile_for(variant: QueryVariant) -> LeakageProfile {
    match variant {
        QueryVariant::Full => LeakageProfile { s1_allowed: S1_FULL, s2_allowed: S2_ALL },
        QueryVariant::DupElim | QueryVariant::Batched { .. } => {
            LeakageProfile { s1_allowed: S1_OPTIMIZED, s2_allowed: S2_ALL }
        }
    }
}

/// Check both clouds' recorded views against the profile of `variant`.
///
/// Returns the first offending observation as a typed [`LeakageViolation`], which makes
/// test failures actionable.
pub fn check_leakage(clouds: &TwoClouds, variant: QueryVariant) -> Result<(), LeakageViolation> {
    check_ledgers(clouds.s1_ledger(), &clouds.s2_ledger(), variant)
}

/// Profile check over explicit ledger snapshots — what [`check_leakage`] runs, exposed
/// for the `Session` abstraction (whose implementations hand out ledger snapshots
/// rather than a `TwoClouds`).
pub fn check_ledgers(
    s1: &LeakageLedger,
    s2: &LeakageLedger,
    variant: QueryVariant,
) -> Result<(), LeakageViolation> {
    let profile = profile_for(variant);
    for event in s1.iter() {
        if !profile.s1_allowed.contains(&event.kind()) {
            return Err(LeakageViolation {
                party: "S1",
                kind: event.kind().to_string(),
                variant: variant.name(),
                event: format!("{event:?}"),
            });
        }
    }
    for event in s2.iter() {
        if !profile.s2_allowed.contains(&event.kind()) {
            return Err(LeakageViolation {
                party: "S2",
                kind: event.kind().to_string(),
                variant: variant.name(),
                event: format!("{event:?}"),
            });
        }
    }
    Ok(())
}

/// The equality-pattern summary S2 is allowed to learn at one depth: how many of the
/// pairwise tests came back equal (the paper's `EP^d` matrix up to the hidden
/// permutation).
pub fn s2_equality_pattern_summary(clouds: &TwoClouds) -> (usize, usize) {
    let ledger = clouds.s2_ledger();
    let total = ledger.count_kind("equality_bit");
    let equal = ledger
        .iter()
        .filter(|e| matches!(e, sectopk_protocols::LeakageEvent::EqualityBit { equal: true, .. }))
        .count();
    (equal, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_between_variants() {
        let full = profile_for(QueryVariant::Full);
        let opt = profile_for(QueryVariant::DupElim);
        assert!(!full.s1_allowed.contains(&"unique_count"));
        assert!(opt.s1_allowed.contains(&"unique_count"));
        assert_eq!(full.s2_allowed, opt.s2_allowed);
        assert_eq!(profile_for(QueryVariant::Batched { p: 4 }).s1_allowed, S1_OPTIMIZED);
    }
}
