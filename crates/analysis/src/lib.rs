//! `sectopk-lint` — a workspace invariant analyzer for the SecTopK reproduction.
//!
//! The paper's security argument rests on structural invariants that the runtime
//! suites (golden leakage ledgers, byte-identity transport equivalence) only check
//! dynamically.  This crate makes them static: a self-contained source-level analyzer
//! (its own lightweight Rust lexer and rule engine — the workspace is offline, so no
//! `syn`/`dylint`) that walks every `crates/*/src` file and enforces five invariants:
//!
//! 1. **Decrypt confinement** — `decrypt*` calls only inside the audited modules (the
//!    S2 engine and the crypto crate), with every engine-side reveal paired with a
//!    `LeakageLedger` record in the same function.
//! 2. **Determinism discipline** — no `thread_rng`, OS entropy, or
//!    `Instant::now`/`SystemTime` reads in protocol/crypto compute paths; wall-clock
//!    only behind `sectopk-metrics` handles or allowlisted timeout machinery.
//! 3. **Serving-path panic-freedom** — no `unwrap`/`expect`/panicking macros/raw
//!    indexing in the request/reply path (`tcp.rs`, `multiplex.rs`, `engine.rs`,
//!    `wire.rs`, `transport.rs`, `crates/server`).
//! 4. **Secret hygiene** — no `Debug`/`Display` derives or format-string captures of
//!    secret-key types outside an audited allowlist.
//! 5. **Wire exhaustiveness** — `WireError` codes are unique and exhaustively
//!    enumerable (that the S2 engine answers every `S1Request` variant is a compile
//!    error, not a lint: its matches over the request enum have no wildcard arm).
//!
//! Configuration and the per-site allowlist live in `lints.toml` at the workspace
//! root; every allowlist entry carries a mandatory justification, and entries that no
//! longer match anything fail the run.  `cargo run -p sectopk-lint --release` is the
//! CI gate.

#![deny(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::Path;

pub use config::Config;
pub use report::{Finding, Report};

use rules::SourceFile;

/// Analyze the workspace rooted at `root` under configuration `cfg`.
///
/// Walks every `.rs` file under `root/crates/*/src` (integration tests and benches
/// live outside `src` and are excluded by construction; `#[cfg(test)]` modules are
/// stripped lexically), runs the five rules, and applies the allowlist.
pub fn run(root: &Path, cfg: &Config) -> Result<Report, String> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::new(rel, &text));
    }

    let mut findings = Vec::new();
    for f in &files {
        rules::decrypt_confinement(f, cfg, &mut findings);
        rules::determinism(f, cfg, &mut findings);
        rules::panic_freedom(f, cfg, &mut findings);
        rules::secret_hygiene(f, cfg, &mut findings);
    }
    rules::wire_exhaustiveness(&files, cfg, &mut findings);

    Ok(Report::assemble(findings, &cfg.allow, files.len()))
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut children: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        if child.is_dir() {
            collect_rs(&child, out)?;
        } else if child.extension().is_some_and(|e| e == "rs") {
            out.push(child);
        }
    }
    Ok(())
}
