//! Printing results, the result file `all --out` writes, and `compare`, which applies
//! the end-to-end bounds to two such files.

use std::process::Command;

use serde::Value;

use crate::metrics::{per_layer, worsening, Values, COUNT_METRICS, END_TO_END};
use crate::run::Outcome;
use crate::workload::NAMES;

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Print one run's metrics by name, with unit, sample count and (end to end) bound.
pub fn print_table(workload: &str, trace: bool, outcome: &Outcome) {
    let pass =
        if trace { "per-layer metrics (traced pass)" } else { "end-to-end metrics (tracing off)" };
    println!("{workload}: {pass}");
    let row = |name: &str, note: String| {
        if let Some(m) = outcome.values.get(name) {
            println!("  {name:<44} {:>14.4} {:<6} n={:<5} {note}", m.value, m.unit, m.samples);
        }
    };
    if trace {
        for (name, _, better) in per_layer() {
            row(&name, format!("{} is better", better.name()));
        }
    } else {
        for m in &END_TO_END {
            row(m.name, format!("{} is better, bound {}", m.better.name(), m.bound));
        }
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<44} {failed_share:>14.4} {:<6} n={:<5} bound 0",
        "failed_share", "share", outcome.attempted
    );
    for failure in outcome.failures.iter().take(10) {
        println!("  FAILED {failure}");
    }
    for check in &outcome.broken_checks {
        println!("  CHECK  {check}");
    }
    if let Some(path) = &outcome.trace_file {
        println!("  spans written to {}", path.display());
    }
}

fn values_json(values: &Values, with_samples: bool) -> Result<Value, String> {
    let mut entries = Vec::with_capacity(values.len());
    for (name, m) in values {
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        let mut fields = vec![("value", Value::F64(m.value)), ("unit", text(m.unit))];
        if with_samples {
            fields.push(("samples", Value::U64(m.samples as u64)));
        }
        entries.push((name.clone(), object(fields)));
    }
    Ok(Value::Map(entries))
}

/// The one-line result the benchmark contract asks for.
pub fn contract_line(outcome: &Outcome) -> Result<String, String> {
    let line = object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::U64(outcome.attempted as u64)),
        ("failed", Value::U64(outcome.failed as u64)),
        ("metrics", values_json(&outcome.values, false)?),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Where and on what the numbers were taken.
pub fn stamp(seed: u64, seconds: f64, quick: bool) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(vec![
        ("nproc", Value::U64(cores as u64)),
        ("commit", text(&command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(&command_line("rustc", &["-V"]))),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("quick", Value::Bool(quick)),
    ])
}

/// One workload's entry of the result file.
pub fn workload_json(end_to_end: &Outcome, traced: &Outcome) -> Result<Value, String> {
    Ok(object(vec![
        ("attempted", Value::U64((end_to_end.attempted + traced.attempted) as u64)),
        ("failed", Value::U64((end_to_end.failed + traced.failed) as u64)),
        ("end_to_end", values_json(&end_to_end.values, true)?),
        ("per_layer", values_json(&traced.values, true)?),
    ]))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Apply the end-to-end bounds to two result files: `candidate` may be worse than
/// `baseline` by at most each metric's bound, on every workload.  When both files were
/// recorded with one seed, the count metrics must also be identical.  Returns whether
/// every comparison held.
pub fn compare(baseline_path: &str, candidate_path: &str) -> Result<bool, String> {
    let (baseline, candidate) = (load(baseline_path)?, load(candidate_path)?);
    let seed = |file: &Value| number(file.get("stamp").and_then(|s| s.get("seed")));
    let same_seed = seed(&baseline).is_some() && seed(&baseline) == seed(&candidate);
    let metric = |file: &Value, workload: &str, name: &str| {
        number(file.get("workloads")?.get(workload)?.get("end_to_end")?.get(name)?.get("value"))
    };
    let mut all_hold = true;
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    for workload in NAMES {
        for m in &END_TO_END {
            let (Some(a), Some(b)) =
                (metric(&baseline, workload, m.name), metric(&candidate, workload, m.name))
            else {
                println!("{workload:<10} {:<18} missing from one of the files", m.name);
                all_hold &= baseline.get("workloads").and_then(|w| w.get(workload)).is_none()
                    && candidate.get("workloads").and_then(|w| w.get(workload)).is_none();
                continue;
            };
            let worse = worsening(a, b, m.better);
            let exact = same_seed && COUNT_METRICS.contains(&m.name);
            let verdict = if exact && a != b {
                "DIFFERS (a count: must repeat exactly for one seed)"
            } else if worse > m.bound {
                "REGRESSED"
            } else {
                "ok"
            };
            all_hold &= verdict == "ok";
            println!(
                "{workload:<10} {:<18} {a:>14.4} {b:>14.4} {:>8.2}% {:>6}  {verdict}",
                m.name,
                worse * 100.0,
                m.bound
            );
        }
    }
    Ok(all_hold)
}

/// Check that `BENCHMARK.json` (in the working directory) declares exactly the
/// workloads and metrics this driver reports.
pub fn check_manifest() -> Result<(), String> {
    let manifest = load("BENCHMARK.json")?;
    let names = |key: &str| -> Vec<String> {
        match manifest.get(key) {
            Some(Value::Seq(items)) => items
                .iter()
                .filter_map(|item| match item.get("name") {
                    Some(Value::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    if names("workloads") != NAMES {
        return Err(format!("BENCHMARK.json workloads {:?} != {NAMES:?}", names("workloads")));
    }
    let layers: Vec<String> = per_layer().into_iter().map(|(name, _, _)| name).collect();
    if names("per_layer") != layers {
        return Err(String::from("BENCHMARK.json per_layer differs from metrics::per_layer()"));
    }
    let Some(Value::Seq(declared)) = manifest.get("end_to_end") else {
        return Err(String::from("BENCHMARK.json has no end_to_end list"));
    };
    if declared.len() != END_TO_END.len() {
        return Err(String::from(
            "BENCHMARK.json end_to_end differs in length from metrics::END_TO_END",
        ));
    }
    for (entry, m) in declared.iter().zip(&END_TO_END) {
        let same = entry.get("name") == Some(&text(m.name))
            && entry.get("unit") == Some(&text(m.unit))
            && entry.get("better") == Some(&text(m.better.name()))
            && number(entry.get("bound")) == Some(m.bound);
        if !same {
            return Err(format!(
                "BENCHMARK.json end_to_end entry for {} differs from metrics::END_TO_END",
                m.name
            ));
        }
    }
    Ok(())
}
