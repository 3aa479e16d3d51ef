//! Leakage ledgers.
//!
//! The CQA security analysis of §9 is phrased in terms of *leakage functions*: the only
//! information each cloud may learn during a query is
//!
//! * S1: the query pattern `QP` and the halting depth `D_q` (plus, for the optimized
//!   `Qry_E`, the per-depth uniqueness pattern `UP^d`),
//! * S2: the per-depth equality pattern `EP^d` — a permuted binary matrix saying how many
//!   (anonymous) items at that depth coincide.
//!
//! Every sub-protocol in this crate records what it reveals to each party in that party's
//! [`LeakageLedger`].  The integration tests then assert that the recorded views contain
//! *nothing but* the events allowed by the corresponding leakage profile — an executable
//! rendition of Theorem 9.2.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One observation made by a cloud during protocol execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeakageEvent {
    /// The party learned an equality bit between two (permuted, anonymous) items.
    /// Part of the equality pattern `EP^d` revealed to S2.
    EqualityBit {
        /// Which sub-protocol produced the bit (e.g. "sec_worst", "sec_dedup").
        context: String,
        /// Depth of the scan when the bit was observed, if applicable.
        depth: Option<usize>,
        /// The observed bit (true ⇔ the two anonymous items hide the same object).
        equal: bool,
    },
    /// The party learned the outcome of a comparison between two blinded values
    /// (EncCompare / EncSort comparator).  Revealed to S1.
    ComparisonBit {
        /// Which sub-protocol produced the bit.
        context: String,
        /// The observed ordering bit.
        less_or_equal: bool,
    },
    /// The party learned the sign of a blinded, randomly flipped difference.
    /// Revealed to S2 by the comparison sub-protocol; the flip makes it uniform.
    BlindedSign {
        /// Which sub-protocol produced it.
        context: String,
    },
    /// The party decrypted `count` masked selection candidates `x + r`, each `r` uniform
    /// modulo `N`, fresh, and known only to S1: uniform values.  Revealed to S2 by one
    /// equality round, beside the equality bits that select from them.
    MaskedValues {
        /// Which sub-protocol produced them.
        context: String,
        /// How many candidates the round carried.
        count: usize,
    },
    /// The party learned how many distinct objects appear in a permuted item list
    /// (the uniqueness pattern `UP^d` of the `SecDupElim` optimisation, §10.1).
    UniqueCount {
        /// Depth of the scan.
        depth: usize,
        /// Number of distinct (anonymous) objects.
        count: usize,
    },
    /// The party learned the halting depth of a query (part of `L¹_Query`).
    HaltingDepth(usize),
    /// The party learned that a query with this (hashed) token was issued — the query
    /// pattern `QP`.
    QueryIssued {
        /// Opaque token fingerprint (reveals only query repetition).
        token_fingerprint: u64,
    },
    /// The party learned how many joined tuples satisfied the equi-join condition
    /// (SecJoin / SecFilter, §12.4).
    JoinMatchCount(usize),
}

impl LeakageEvent {
    /// A short machine-friendly label for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            LeakageEvent::EqualityBit { .. } => "equality_bit",
            LeakageEvent::ComparisonBit { .. } => "comparison_bit",
            LeakageEvent::BlindedSign { .. } => "blinded_sign",
            LeakageEvent::MaskedValues { .. } => "masked_values",
            LeakageEvent::UniqueCount { .. } => "unique_count",
            LeakageEvent::HaltingDepth(_) => "halting_depth",
            LeakageEvent::QueryIssued { .. } => "query_issued",
            LeakageEvent::JoinMatchCount(_) => "join_match_count",
        }
    }
}

/// One recorded event in at most 8 bytes and no heap allocation.  Only the four kinds
/// recorded per comparison, equality bit or equality round are packed: a context name is an index into
/// the owning ledger's table of distinct names, a depth is a `u32` with [`NO_DEPTH`]
/// standing for `None`.  Everything else — the once-per-depth and once-per-query kinds,
/// a depth of [`NO_DEPTH`] or more, a 65 537th distinct context — is kept whole in the
/// ledger's `wide` list instead.
#[derive(Clone, Copy)]
enum Packed {
    EqualityBit {
        context: u16,
        depth: u32,
        equal: bool,
    },
    ComparisonBit {
        context: u16,
        less_or_equal: bool,
    },
    /// `run` signs of one context in a row: a `Compare` round's are one entry.
    BlindedSign {
        context: u16,
        run: u32,
    },
    MaskedValues {
        context: u16,
        count: u32,
    },
    /// Index into `LeakageLedger::wide`.
    Wide(u32),
}

/// The packed depth of an [`LeakageEvent::EqualityBit`] without one.
const NO_DEPTH: u32 = u32::MAX;

// A ledger lives as long as its session and S2 records one event per decrypted bit, so
// the per-event footprint is what a long session's memory grows by.
const _: () = assert!(std::mem::size_of::<Packed>() <= 8);

/// The record of everything one party observed beyond its own inputs.
///
/// Events are stored packed (8 bytes each, see DESIGN.md §10; a run of blinded signs of
/// one context, as one `Compare` round records them, in one entry) and decoded on demand:
/// [`Self::iter`] and [`Self::events`] yield exactly the [`LeakageEvent`]s that were
/// recorded, in order, and the serialized form is the plain event list.
#[derive(Clone, Default)]
pub struct LeakageLedger {
    events: Vec<Packed>,
    /// Distinct context names, in order of first appearance.
    contexts: Vec<String>,
    /// The events [`Packed::Wide`] points at.
    wide: Vec<LeakageEvent>,
}

impl LeakageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation.
    pub fn record(&mut self, event: LeakageEvent) {
        if let (
            LeakageEvent::BlindedSign { context },
            Some(Packed::BlindedSign { context: c, run }),
        ) = (&event, self.events.last_mut())
        {
            if self.contexts[usize::from(*c)] == *context && *run < u32::MAX {
                *run += 1;
                return;
            }
        }
        let packed = self.pack(&event).unwrap_or_else(|| {
            let index = u32::try_from(self.wide.len()).expect("fewer than 2³² wide events");
            self.wide.push(event);
            Packed::Wide(index)
        });
        self.events.push(packed);
    }

    /// The packed form of `event`, or `None` if it needs the `wide` list.
    fn pack(&mut self, event: &LeakageEvent) -> Option<Packed> {
        Some(match event {
            LeakageEvent::EqualityBit { context, depth, equal } => Packed::EqualityBit {
                depth: match depth {
                    None => NO_DEPTH,
                    Some(depth) => u32::try_from(*depth).ok().filter(|&d| d != NO_DEPTH)?,
                },
                context: self.intern(context)?,
                equal: *equal,
            },
            LeakageEvent::ComparisonBit { context, less_or_equal } => Packed::ComparisonBit {
                context: self.intern(context)?,
                less_or_equal: *less_or_equal,
            },
            LeakageEvent::BlindedSign { context } => {
                Packed::BlindedSign { context: self.intern(context)?, run: 1 }
            }
            LeakageEvent::MaskedValues { context, count } => Packed::MaskedValues {
                count: u32::try_from(*count).ok()?,
                context: self.intern(context)?,
            },
            LeakageEvent::UniqueCount { .. }
            | LeakageEvent::HaltingDepth(_)
            | LeakageEvent::QueryIssued { .. }
            | LeakageEvent::JoinMatchCount(_) => return None,
        })
    }

    /// The table index of `context`, added on first sight (a protocol run names a
    /// handful of contexts, so the scan is short); `None` once the table is full.
    fn intern(&mut self, context: &str) -> Option<u16> {
        let index = match self.contexts.iter().position(|c| c == context) {
            Some(index) => index,
            None if self.contexts.len() <= usize::from(u16::MAX) => {
                self.contexts.push(context.to_string());
                self.contexts.len() - 1
            }
            None => return None,
        };
        u16::try_from(index).ok()
    }

    fn unpack(&self, packed: &Packed) -> LeakageEvent {
        let context = |index: &u16| self.contexts[usize::from(*index)].clone();
        match packed {
            Packed::EqualityBit { context: c, depth, equal } => LeakageEvent::EqualityBit {
                context: context(c),
                depth: (*depth != NO_DEPTH).then_some(*depth as usize),
                equal: *equal,
            },
            Packed::ComparisonBit { context: c, less_or_equal } => {
                LeakageEvent::ComparisonBit { context: context(c), less_or_equal: *less_or_equal }
            }
            Packed::BlindedSign { context: c, .. } => {
                LeakageEvent::BlindedSign { context: context(c) }
            }
            Packed::MaskedValues { context: c, count } => {
                LeakageEvent::MaskedValues { context: context(c), count: *count as usize }
            }
            Packed::Wide(index) => self.wide[*index as usize].clone(),
        }
    }

    /// [`LeakageEvent::kind`] of a packed event, without decoding it.
    fn kind_of(&self, packed: &Packed) -> &'static str {
        match packed {
            Packed::EqualityBit { .. } => "equality_bit",
            Packed::ComparisonBit { .. } => "comparison_bit",
            Packed::BlindedSign { .. } => "blinded_sign",
            Packed::MaskedValues { .. } => "masked_values",
            Packed::Wide(index) => self.wide[*index as usize].kind(),
        }
    }

    /// Each entry with the number of events it stands for.
    fn runs(&self) -> impl Iterator<Item = (&Packed, usize)> + '_ {
        self.events.iter().map(|p| match p {
            Packed::BlindedSign { run, .. } => (p, *run as usize),
            _ => (p, 1),
        })
    }

    fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.runs().flat_map(|(p, n)| std::iter::repeat_n(self.kind_of(p), n))
    }

    /// The recorded events, in order, decoded one at a time.
    pub fn iter(&self) -> impl Iterator<Item = LeakageEvent> + '_ {
        self.runs().flat_map(|(p, n)| std::iter::repeat_n(self.unpack(p), n))
    }

    /// All recorded events, in order.
    pub fn events(&self) -> Vec<LeakageEvent> {
        self.iter().collect()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.runs().map(|(_, n)| n).sum()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Histogram of event kinds (used by the leakage-profile tests).
    pub fn kind_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut hist = BTreeMap::new();
        for kind in self.kinds() {
            *hist.entry(kind).or_insert(0) += 1;
        }
        hist
    }

    /// True when every recorded event kind is in `allowed` — the executable form of
    /// "the party's view is simulatable from the leakage profile".
    pub fn only_contains(&self, allowed: &[&str]) -> bool {
        self.kinds().all(|kind| allowed.contains(&kind))
    }

    /// Count the events of one kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.kinds().filter(|k| *k == kind).count()
    }

    /// Clear the ledger (e.g. between queries).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The equality bits recorded under `context`, in order — what the sub-protocol
    /// tests slice into the rows and columns of the matrices S2 decrypted.
    #[cfg(test)]
    pub(crate) fn equality_bits(&self, context: &str) -> Vec<bool> {
        self.iter()
            .filter_map(|event| match event {
                LeakageEvent::EqualityBit { context: c, equal, .. } if c == context => Some(equal),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for LeakageLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeakageLedger").field("events", &self.events()).finish()
    }
}

// The wire and golden form is the event list itself, as the derive wrote it when the
// ledger was a `Vec<LeakageEvent>`; packing is a memory layout, not a format.
impl Serialize for LeakageLedger {
    fn to_value(&self) -> serde::Value {
        let events = self.iter().map(|e| e.to_value()).collect();
        serde::Value::Map(vec![("events".to_string(), serde::Value::Seq(events))])
    }
}

impl Deserialize for LeakageLedger {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let events = v.get("events").ok_or_else(|| serde::Error::missing_field("events"))?;
        let mut ledger = LeakageLedger::new();
        for event in Vec::<LeakageEvent>::from_value(events)? {
            ledger.record(event);
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_inspect() {
        let mut ledger = LeakageLedger::new();
        assert!(ledger.is_empty());
        ledger.record(LeakageEvent::EqualityBit {
            context: "sec_worst".into(),
            depth: Some(3),
            equal: true,
        });
        ledger.record(LeakageEvent::HaltingDepth(7));
        ledger.record(LeakageEvent::EqualityBit {
            context: "sec_dedup".into(),
            depth: Some(3),
            equal: false,
        });
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.count_kind("equality_bit"), 2);
        assert_eq!(ledger.kind_histogram()["halting_depth"], 1);
    }

    #[test]
    fn a_run_of_blinded_signs_is_one_entry_and_reads_back_whole() {
        let sign = |context: &str| LeakageEvent::BlindedSign { context: context.into() };
        let recorded: Vec<LeakageEvent> = [vec![sign("a"); 5], vec![sign("b")], vec![sign("a"); 2]]
            .concat()
            .into_iter()
            .chain([LeakageEvent::HaltingDepth(1), sign("a")])
            .collect();
        let mut ledger = LeakageLedger::new();
        for event in &recorded {
            ledger.record(event.clone());
        }
        assert_eq!(ledger.events.len(), 5, "runs a×5, b, a×2, the depth, a");
        assert_eq!((ledger.len(), ledger.events()), (recorded.len(), recorded));
        assert_eq!(ledger.count_kind("blinded_sign"), 9);
    }

    #[test]
    fn ten_thousand_events_round_trip_through_the_packed_form() {
        let too_deep = u32::MAX as usize + 1;
        let recorded: Vec<LeakageEvent> = (0..10_000usize)
            .map(|i| match i % 10 {
                0 => LeakageEvent::EqualityBit {
                    context: format!("ctx-{}", i % 7),
                    depth: Some(i),
                    equal: i % 2 == 0,
                },
                1 => LeakageEvent::EqualityBit {
                    context: "sec_join".into(),
                    depth: None,
                    equal: i % 3 == 0,
                },
                2 => LeakageEvent::ComparisonBit {
                    context: "enc_sort".into(),
                    less_or_equal: i % 4 < 2,
                },
                3 if i % 20 == 3 => {
                    LeakageEvent::MaskedValues { context: format!("ctx-{}", i % 5), count: i }
                }
                3 => LeakageEvent::BlindedSign { context: format!("ctx-{}", i % 5) },
                4 => LeakageEvent::UniqueCount { depth: i, count: i / 2 },
                5 => LeakageEvent::HaltingDepth(usize::MAX - i),
                6 => LeakageEvent::QueryIssued { token_fingerprint: u64::MAX - i as u64 },
                7 => LeakageEvent::JoinMatchCount(i),
                // Too wide for the packed fields, or the `None` sentinel: kept whole.
                8 => LeakageEvent::EqualityBit {
                    context: "sec_worst".into(),
                    depth: Some(if i % 20 == 8 { too_deep } else { NO_DEPTH as usize }),
                    equal: true,
                },
                _ => LeakageEvent::UniqueCount { depth: 3, count: too_deep + i },
            })
            .collect();
        let mut ledger = LeakageLedger::new();
        for event in &recorded {
            ledger.record(event.clone());
        }
        assert_eq!(ledger.len(), recorded.len());
        assert_eq!(ledger.events(), recorded);
        assert!(ledger.iter().eq(recorded.iter().cloned()));
        // One context entry per distinct name among the packed events, however many
        // carry it ("sec_worst" only occurs in events kept whole).
        assert_eq!(ledger.contexts.len(), 7 + 2);
        // Kinds 4–9 of every ten: the once-per-depth / per-query kinds and the misfits.
        assert_eq!(ledger.wide.len(), 6 * recorded.len() / 10);

        // Kinds are read off the packed form and agree with the events' own labels.
        let mut expected = BTreeMap::new();
        for event in &recorded {
            *expected.entry(event.kind()).or_insert(0) += 1;
        }
        assert_eq!(ledger.kind_histogram(), expected);
        assert_eq!(ledger.count_kind("unique_count"), expected["unique_count"]);

        // The wire form is the plain event list, and reads back to the same ledger.
        #[derive(Serialize)]
        struct Plain {
            events: Vec<LeakageEvent>,
        }
        let bytes = crate::wire::to_bytes(&ledger);
        assert_eq!(bytes, crate::wire::to_bytes(&Plain { events: recorded.clone() }));
        let back: LeakageLedger = crate::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.events(), recorded);
        assert_eq!(format!("{ledger:?}"), format!("LeakageLedger {{ events: {recorded:?} }}"));

        ledger.clear();
        assert!(ledger.is_empty() && ledger.contexts.is_empty() && ledger.wide.is_empty());
    }

    #[test]
    fn only_contains_enforces_profiles() {
        let mut ledger = LeakageLedger::new();
        ledger.record(LeakageEvent::ComparisonBit {
            context: "enc_sort".into(),
            less_or_equal: true,
        });
        assert!(ledger.only_contains(&["comparison_bit", "halting_depth"]));
        assert!(!ledger.only_contains(&["equality_bit"]));
    }

    #[test]
    fn clear_resets() {
        let mut ledger = LeakageLedger::new();
        ledger.record(LeakageEvent::JoinMatchCount(5));
        ledger.clear();
        assert!(ledger.is_empty());
    }

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(LeakageEvent::HaltingDepth(1).kind(), "halting_depth");
        assert_eq!(LeakageEvent::UniqueCount { depth: 1, count: 2 }.kind(), "unique_count");
        assert_eq!(LeakageEvent::QueryIssued { token_fingerprint: 9 }.kind(), "query_issued");
        assert_eq!(LeakageEvent::BlindedSign { context: "x".into() }.kind(), "blinded_sign");
    }
}
