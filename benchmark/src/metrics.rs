//! The benchmark's metric definitions — the single table `BENCHMARK.json`, the README
//! and the `compare` subcommand all follow — plus the small statistics helpers.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, on every workload, and gated by
/// `bound` — the share of the baseline by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Metrics whose value is a pure function of the seed (no clock involved): two runs
/// with one seed must report them bit for bit.
pub const COUNT_METRICS: [&str; 3] = ["rounds_per_query", "wire_kb_per_query", "enc_bytes_per_row"];

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "query_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "query_p80_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "queries_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "depths_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_s_per_query", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rounds_per_query", unit: "count", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "wire_kb_per_query", unit: "kB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "enc_bytes_per_row", unit: "B", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.2 },
];

/// The S1 → S2 request kinds a top-k query or join can issue; every protocol round is
/// one of these (`S1Request::kind_name`).
pub const ROUND_KINDS: [&str; 7] =
    ["eq_matrix", "compare", "recover", "dedup", "batch", "eq_test", "eq_aggregate"];

/// Per-layer metrics of the traced pass, `layer.metric`.  No bounds: they explain a
/// change in an end-to-end metric, they do not gate one.  The `round.K.*` rows are
/// generated from [`ROUND_KINDS`] by [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str, Better); 47] = [
    ("crypto.encrypt_us", "us", Better::Lower),
    ("crypto.decrypt_us", "us", Better::Lower),
    ("crypto.mul_plain_us", "us", Better::Lower),
    ("crypto.dj_encrypt_us", "us", Better::Lower),
    ("crypto.dj_decrypt_us", "us", Better::Lower),
    ("crypto.pool_refill_us", "us", Better::Lower),
    ("crypto.keygen_ms", "ms", Better::Lower),
    ("ehl.encode_us", "us", Better::Lower),
    ("ehl.eq_test_us", "us", Better::Lower),
    ("storage.encrypt_rows_per_s", "1/s", Better::Higher),
    ("storage.token_us", "us", Better::Lower),
    ("core.token_ms", "ms", Better::Lower),
    ("core.plan_us", "us", Better::Lower),
    ("core.sec_query_ms", "ms", Better::Lower),
    ("core.resolve_ms", "ms", Better::Lower),
    ("core.resolve_share", "share", Better::Lower),
    ("core.depths_per_query", "count", Better::Lower),
    ("core.halting_checks_per_query", "count", Better::Lower),
    ("core.tracked_len_final", "count", Better::Lower),
    ("core.depth_ms_first", "ms", Better::Lower),
    ("core.depth_ms_last", "ms", Better::Lower),
    ("core.planner_depth_ratio", "ratio", Better::Lower),
    ("protocols.s1_self_ms_per_query", "ms", Better::Lower),
    ("protocols.sec_worst_ms", "ms", Better::Lower),
    ("protocols.sec_best_ms", "ms", Better::Lower),
    ("protocols.sec_dedup_ms", "ms", Better::Lower),
    ("protocols.sec_dup_elim_ms", "ms", Better::Lower),
    ("protocols.sec_update_ms", "ms", Better::Lower),
    ("protocols.enc_sort32_ms", "ms", Better::Lower),
    ("protocols.join_12x16_ms", "ms", Better::Lower),
    ("s2.cpu_ms_per_query", "ms", Better::Lower),
    ("s2.cpu_share", "share", Better::Lower),
    ("wire.encode_mb_per_s", "MB/s", Better::Higher),
    ("wire.decode_mb_per_s", "MB/s", Better::Higher),
    ("transport.inproc_round_us", "us", Better::Lower),
    ("transport.tcp_round_us", "us", Better::Lower),
    ("transport.tcp_overhead_share", "share", Better::Lower),
    ("transport.link_wait_ms_per_query", "ms", Better::Lower),
    ("server.connect_ms", "ms", Better::Lower),
    ("server.pool_busy_share", "share", Better::Lower),
    ("server.sheds", "count", Better::Lower),
    ("server.replays", "count", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.stage_gap_pct", "%", Better::Lower),
    ("trace.spans_per_query", "count", Better::Lower),
    ("run.unattributed_share", "share", Better::Lower),
    ("run.cpu_share_driver", "share", Better::Lower),
];

/// Every per-layer metric as `(name, unit, better)`, in the order it is printed.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for kind in ROUND_KINDS {
        all.push((format!("protocols.round.{kind}.count_per_query"), "count", Better::Lower));
        all.push((format!("protocols.round.{kind}.ms_per_query"), "ms", Better::Lower));
    }
    all
}

/// One measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, Measured>;

/// Insert `value` under `name`.
pub fn put(values: &mut Values, name: &str, value: f64, unit: &'static str, samples: usize) {
    values.insert(name.to_string(), Measured { value, unit, samples });
}

/// The `q`-quantile (0–1) of `samples` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// By how much `candidate` is worse than `baseline`, as a share of `baseline`
/// (negative when it is better).
pub fn worsening(baseline: f64, candidate: f64, better: Better) -> f64 {
    if baseline == 0.0 {
        return if candidate == baseline { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline,
        Better::Higher => (baseline - candidate) / baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| ok(m.name)));
        let layers = per_layer();
        assert!(layers.iter().all(|(n, _, _)| ok(n)));
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
