//! The SecTopK benchmark driver.  See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds `sectopk-s2d` next to it first.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]   one run, one JSON line
//! run.sh all [--seed N] [--seconds S] [--quick] [--out FILE]          every workload, both passes
//! run.sh compare BASELINE.json CANDIDATE.json                         apply the bounds
//! run.sh selftest                                                     determinism of the counts
//! ```

mod calibrate;
mod metrics;
mod micro;
mod process;
mod report;
mod run;
mod trace;
mod workload;

use std::process::ExitCode;

use serde::Value;

use crate::metrics::{Values, COUNT_METRICS, ROUND_KINDS};
use crate::run::{run, Options, Outcome};
use crate::workload::{query_list, relation, Spec, NAMES};

const USAGE: &str = "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n\
                     \x20      run.sh all [--seed N] [--seconds S] [--quick] [--out FILE]\n\
                     \x20      run.sh compare BASELINE.json CANDIDATE.json\n\
                     \x20      run.sh selftest";

/// `--name value` pairs and bare flags of one invocation.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: None, seed: 1, seconds: 20.0, trace: false, quick: false, out: None };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err(String::from("--seconds must be a non-negative number"));
    }
    if parsed.quick && !seconds_given {
        parsed.seconds = 0.0;
    }
    Ok(parsed)
}

fn options(name: &str, args: &Args, trace: bool) -> Result<Options, String> {
    let spec = Spec::named(name, args.quick)
        .ok_or_else(|| format!("unknown workload {name}; the workloads are {NAMES:?}"))?;
    Ok(Options { spec, seed: args.seed, seconds: args.seconds, trace })
}

/// One run under the benchmark contract: tables, then the result as the last line.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let micro = if args.trace { micro::measure(args.quick)? } else { Values::new() };
    let Some(outcome) = run(&options(name, args, args.trace)?, &micro)? else {
        return Ok(false);
    };
    report::print_table(name, args.trace, &outcome);
    // A noisy host must not read as a wrong answer: broken measurement self-checks fail
    // `all`, where a person is looking, and are only printed here.
    println!("{}", report::contract_line(&outcome)?);
    Ok(outcome.failed == 0)
}

/// Every workload with tracing off, then every workload traced.
fn all(args: &Args) -> Result<bool, String> {
    let stamp = report::stamp(args.seed, args.seconds, args.quick);
    println!("stamp: {}", serde_json::to_string(&stamp).map_err(|e| e.to_string())?);
    let mut clean = true;
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    let micro = micro::measure(args.quick)?;
    for trace in [false, true] {
        for name in NAMES {
            // A workload this host cannot show (serve-2x on one core) is reported as
            // refused, never estimated.
            if let Some(outcome) = run(&options(name, args, trace)?, &micro)? {
                report::print_table(name, trace, &outcome);
                clean &= outcome.failed == 0 && outcome.broken_checks.is_empty();
                outcomes.push((name, outcome));
            }
        }
    }

    let passes = |name: &str| {
        let mut of_name = outcomes.iter().filter(|(n, _)| *n == name).map(|(_, o)| o);
        Some((of_name.next()?, of_name.next()?))
    };
    let qps = |name: &str| Some(passes(name)?.0.values.get("queries_per_s")?.value);
    if let (Some(one), Some(two)) = (qps("lan-mixed"), qps("serve-2x")) {
        println!("derived: server.scale_2x {:.4} ratio (serve-2x queries_per_s / lan-mixed queries_per_s)", two / one);
    }

    if let Some(path) = &args.out {
        let mut workloads = Vec::new();
        for name in NAMES {
            if let Some((end_to_end, traced)) = passes(name) {
                workloads.push((name.to_string(), report::workload_json(end_to_end, traced)?));
            }
        }
        let file = Value::Map(vec![
            (String::from("stamp"), stamp),
            (String::from("workloads"), Value::Map(workloads)),
        ]);
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(clean)
}

/// The determinism test of the count metrics, at `--quick` size: two runs with one seed
/// report identical counts in both passes, a second seed has a different query list, and
/// every answer of both seeds passes the oracle.
fn selftest() -> Result<bool, String> {
    let mut clean = true;
    let mut check = |what: String, holds: bool| {
        println!("{} {what}", if holds { "ok  " } else { "FAIL" });
        clean &= holds;
    };
    match report::check_manifest() {
        Ok(()) => {
            check(String::from("BENCHMARK.json declares this driver's workloads and metrics"), true)
        }
        Err(why) => check(why, false),
    }
    let args =
        |seed| Args { workload: None, seed, seconds: 0.0, trace: false, quick: true, out: None };
    let micro = micro::measure(true)?;
    for name in NAMES {
        let spec = Spec::named(name, true).expect("NAMES lists known workloads");
        let inputs = |seed| {
            let relation = relation(&spec, seed);
            let list = query_list(&spec, &relation, seed, 0);
            (relation, list)
        };
        check(
            format!("{name}: one seed generates the same inputs twice"),
            inputs(11) == inputs(11),
        );
        check(
            format!("{name}: seeds 11 and 12 generate different inputs"),
            inputs(11) != inputs(12),
        );
        for trace in [false, true] {
            let runs = [11, 11, 12]
                .iter()
                .map(|&seed| run(&options(name, &args(seed), trace)?, &micro))
                .collect::<Result<Option<Vec<Outcome>>, String>>()?;
            let Some(runs) = runs else { break };
            let pass = if trace { "traced" } else { "untraced" };
            for outcome in &runs {
                let sound = outcome.failed == 0 && outcome.broken_checks.is_empty();
                check(
                    format!("{name} {pass}: {} answers pass the oracle", outcome.attempted),
                    sound,
                );
                for line in outcome.failures.iter().chain(&outcome.broken_checks) {
                    println!("     {line}");
                }
            }
            let counts: Vec<String> = if trace {
                ROUND_KINDS.iter().map(|k| format!("protocols.round.{k}.count_per_query")).collect()
            } else {
                COUNT_METRICS.iter().map(|m| m.to_string()).collect()
            };
            for metric in counts {
                let value = |o: &Outcome| o.values.get(&metric).map(|m| m.value.to_bits());
                check(
                    format!("{name} {pass}: {metric} repeats exactly for one seed"),
                    value(&runs[0]).is_some() && value(&runs[0]) == value(&runs[1]),
                );
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    // Measure the defaults users get: no SECTOPK_* knob reaches the libraries, in this
    // process or in the daemon, which inherits this environment.  No other thread exists
    // yet.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("SECTOPK_"))
        .collect();
    for knob in knobs {
        std::env::remove_var(knob);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("all") => parse(&args[1..]).and_then(|a| all(&a)),
        Some("selftest") if args.len() == 1 => selftest(),
        Some("compare") if args.len() == 3 => report::compare(&args[1], &args[2]),
        Some(_) => parse(&args).and_then(|a| single(&a)),
        None => Err(String::from(USAGE)),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("sectopk-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
