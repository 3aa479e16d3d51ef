//! # sectopk-datasets
//!
//! Paper-shaped dataset generators and query workloads for the SecTopK evaluation (§11).
//!
//! The paper evaluates on three UCI datasets (insurance, diabetes, PAMAP) and a synthetic
//! Gaussian dataset.  The raw UCI files are not bundled with this reproduction; instead
//! each generator produces a deterministic synthetic relation with the same cardinality,
//! attribute count, value ranges and distribution shape (see DESIGN.md §2 — the
//! protocols' cost depends only on those parameters, not on the actual UCI values).
//! Every generator accepts a `scale` factor so tests and laptop benches can run on
//! proportionally smaller instances while `--paper-scale` reproduces the full sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod examples;
pub mod generators;
pub mod workload;

pub use examples::{fig3_relation, patient_name, patients_relation};
pub use generators::{generate, DatasetKind, DatasetSpec};
pub use workload::{QueryWorkload, WorkloadSpec};
