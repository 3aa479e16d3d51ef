//! # sectopk-bench
//!
//! The harness that regenerates every table and figure of the paper's evaluation (§11
//! and §12.4.1): the k / m / p / n sweeps.  The measurement logic lives in [`runners`];
//! the `figures` binary prints the same rows/series the paper reports; [`scale`] holds
//! the knobs that map the paper-scale workloads onto laptop-scale ones.  How fast the
//! system is as deployed is the job of the repository's one benchmark (`benchmark/`).
//!
//! Run `cargo run --release -p sectopk-bench --bin figures -- --help` for the experiment
//! index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runners;
pub mod scale;

pub use report::Table;
pub use scale::BenchScale;
