//! # sectopk-knn
//!
//! The secure k-nearest-neighbour comparator baseline used in §11.3 of the paper.
//!
//! The paper compares SecTopK against the SkNN protocol of Elmehdwi, Samanthula and
//! Jiang (ICDE'14, reference \[21\]): a two-cloud protocol in which, **for every query**,
//! S1 and S2 jointly compute an encrypted distance for *every* record (O(n·m) secure
//! multiplications and the corresponding communication) and then select the k smallest
//! distances with secure comparisons (O(n·k)).  The point of the comparison is the cost
//! profile — the baseline touches every record on every query, whereas SecTopK only
//! scans a prefix of the sorted lists — so this crate reproduces that protocol skeleton
//! faithfully: per-pair secure multiplication round trips, per-record distance
//! accumulation, and k rounds of secure minimum selection.
//!
//! As §11.3 describes, a top-k query with scoring function `Σ x_i²` can be answered by
//! this baseline by querying a point with the maximal attribute values: the records
//! nearest to that point are the top-k records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod multiply;
pub mod sknn;

pub use multiply::{secure_multiply, secure_multiply_batch};
pub use sknn::{encrypt_for_knn, sknn_query, KnnEncryptedDatabase, KnnQueryOutcome};
