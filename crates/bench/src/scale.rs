//! Scaling knobs for the benchmark harness.
//!
//! The paper's testbed is a 24-core Xeon with 128 GB of RAM running million-record
//! datasets under 128-bit-security Paillier keys; this reproduction has to run on
//! whatever machine executes the `figures` binary.  The *shape* of every figure (who wins, how
//! quantities scale in k, m, p, n) is preserved at much smaller operating points; the
//! [`BenchScale`] struct collects those operating points so every runner and the
//! `figures` binary agree on them, and `--paper-scale` restores the paper's numbers for
//! anyone with the patience (and hardware) to run them.

use serde::{Deserialize, Serialize};

/// The operating point used by the benchmark runners.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchScale {
    /// Paillier modulus size in bits.
    pub modulus_bits: usize,
    /// Number of EHL PRF keys (`s`).
    pub ehl_keys: usize,
    /// Number of rows per dataset used for the query-processing figures.
    pub query_rows: usize,
    /// Hard cap on the number of depths scanned per query (time-per-depth figures do not
    /// need the scan to run to completion).
    pub max_depth: usize,
    /// Number of items for the EHL-construction figure (Fig. 7) at each measured point.
    pub ehl_items: Vec<usize>,
    /// Rows per dataset for the encryption figure (Fig. 8).
    pub encryption_rows: usize,
    /// Sizes of the two relations joined in Fig. 14.
    pub join_rows: (usize, usize),
    /// Rows for the secure-kNN comparison (§11.3).
    pub knn_rows: usize,
    /// Assumed inter-cloud link speed in Mbps (Table 3 uses 50 Mbps).
    pub link_mbps: f64,
}

impl BenchScale {
    /// The laptop-scale default: every figure completes in minutes.
    pub fn laptop() -> Self {
        BenchScale {
            modulus_bits: 128,
            ehl_keys: 5,
            query_rows: 60,
            max_depth: 10,
            ehl_items: vec![100, 200, 400, 800, 1_600],
            encryption_rows: 400,
            join_rows: (40, 80),
            knn_rows: 50,
            link_mbps: 50.0,
        }
    }

    /// A minimal scale used by `figures --smoke` and the smoke tests.
    pub fn smoke() -> Self {
        BenchScale {
            modulus_bits: 128,
            ehl_keys: 3,
            query_rows: 16,
            max_depth: 3,
            ehl_items: vec![25, 50],
            encryption_rows: 40,
            join_rows: (8, 12),
            knn_rows: 12,
            link_mbps: 50.0,
        }
    }

    /// The paper's operating point (§11): full dataset sizes, 0.1M–1M items for Fig. 7,
    /// and a 256-bit modulus (the size the paper quotes for the EHL+ analysis).  Running
    /// this takes many hours — it exists so the harness documents the real workload.
    pub fn paper() -> Self {
        BenchScale {
            modulus_bits: 256,
            ehl_keys: 5,
            query_rows: 1_000_000,
            max_depth: 1_000,
            ehl_items: (1..=10).map(|i| i * 100_000).collect(),
            encryption_rows: usize::MAX, // use each dataset's native size
            join_rows: (5_000, 10_000),
            knn_rows: 2_000,
            link_mbps: 50.0,
        }
    }
}

impl Default for BenchScale {
    fn default() -> Self {
        Self::laptop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_size() {
        let smoke = BenchScale::smoke();
        let laptop = BenchScale::laptop();
        let paper = BenchScale::paper();
        assert!(smoke.query_rows < laptop.query_rows);
        assert!(laptop.query_rows < paper.query_rows);
        assert!(smoke.max_depth <= laptop.max_depth);
        assert_eq!(paper.join_rows, (5_000, 10_000));
        assert_eq!(BenchScale::default(), laptop);
    }
}
