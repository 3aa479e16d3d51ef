//! The analyzer against a seeded fixture corpus: every rule must fire exactly where
//! the fixture plants its violation (correct rule id, file and line), the allowlist
//! must both suppress matched sites and flag stale entries, and the JSON rendering
//! must stay byte-stable (`tests/fixtures/expected.json`; regenerate with
//! `SECTOPK_BLESS=1 cargo test -p sectopk-lint --test fixture_corpus`).

use std::path::{Path, PathBuf};

use sectopk_lint::report::Report;
use sectopk_lint::{Config, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

const FIXTURE_CONFIG: &str = r#"
[decrypt_confinement]
audited = ["crates/app/src/engine.rs"]
calls = ["decrypt"]
engine_files = ["crates/app/src/engine.rs"]
ledger_markers = ["record"]

[determinism]
scopes = ["crates/app"]
banned = ["Instant::now", "thread_rng"]

[panic_freedom]
paths = ["crates/app/src/serve.rs"]

[secret_hygiene]
types = ["TestSecretKey"]
idents = ["test_secret"]
fmt_macros = ["println"]

[wire_exhaustiveness]
error_enum_file = "crates/app/src/wire_defs.rs"
error_enum = "Code"
all_const = "ALL"
name_fn = "name"
"#;

fn run_fixture() -> Report {
    let cfg = Config::parse(FIXTURE_CONFIG).expect("fixture config parses");
    sectopk_lint::run(&fixture_root(), &cfg).expect("fixture tree analyzes")
}

fn has(findings: &[Finding], rule: &str, file: &str, line: u32) -> bool {
    findings.iter().any(|f| f.rule == rule && f.file == file && f.line == line)
}

/// Every seeded violation is detected at its exact rule id, file and line — and
/// nothing else is: the clean lines around each seed stay silent.
#[test]
fn every_seeded_violation_is_found() {
    let report = run_fixture();
    let f = &report.findings;
    assert!(has(f, "decrypt-confinement", "crates/app/src/leak.rs", 5), "{f:?}");
    assert!(has(f, "decrypt-confinement", "crates/app/src/engine.rs", 12), "{f:?}");
    assert!(has(f, "determinism", "crates/app/src/clock.rs", 5), "{f:?}");
    assert!(has(f, "panic-freedom", "crates/app/src/serve.rs", 5), "{f:?}");
    assert!(has(f, "secret-hygiene", "crates/app/src/secrets.rs", 4), "{f:?}");
    assert!(has(f, "wire-exhaustiveness", "crates/app/src/wire_defs.rs", 12), "{f:?}");
    assert_eq!(f.len(), 6, "exactly the seeded violations: {f:?}");
    // The paired engine reveal, the `#[cfg(test)]` decrypt, the non-secret Debug
    // derive and the listed `Code::Alpha` / `Code::Beta` are all clean by construction.
    assert!(report.allowed.is_empty());
    assert!(report.unused_allow_entries.is_empty());
}

/// A matching allowlist entry suppresses its finding; an entry that matches nothing
/// is reported as stale, and either way a non-clean condition remains non-clean.
#[test]
fn allowlist_suppresses_and_stale_entries_fail() {
    let allow = r#"
[[allow]]
rule = "panic-freedom"
file = "crates/app/src/serve.rs"
pattern = "table.lookup(key).unwrap()"
justification = "Fixture: demonstrates a justified exemption."
"#;
    let cfg = Config::parse(&format!("{FIXTURE_CONFIG}{allow}")).expect("config parses");
    let report = sectopk_lint::run(&fixture_root(), &cfg).expect("fixture tree analyzes");
    assert_eq!(report.findings.len(), 5, "one finding suppressed: {:?}", report.findings);
    assert!(!has(&report.findings, "panic-freedom", "crates/app/src/serve.rs", 5));
    assert_eq!(report.allowed.len(), 1);
    assert!(report.unused_allow_entries.is_empty());
    assert!(!report.is_clean(), "five violations remain");

    let stale = r#"
[[allow]]
rule = "panic-freedom"
file = "crates/app/src/serve.rs"
pattern = "no such snippet anywhere"
justification = "Fixture: a stale exemption that must be flagged."
"#;
    let cfg = Config::parse(&format!("{FIXTURE_CONFIG}{stale}")).expect("config parses");
    let report = sectopk_lint::run(&fixture_root(), &cfg).expect("fixture tree analyzes");
    assert_eq!(report.findings.len(), 6, "nothing suppressed");
    assert_eq!(report.unused_allow_entries.len(), 1);
    assert!(!report.is_clean());
}

/// An allowlist entry must carry a non-empty justification — the config rejects it.
#[test]
fn allow_entry_requires_justification() {
    let missing = r#"
[[allow]]
rule = "panic-freedom"
file = "crates/app/src/serve.rs"
pattern = "unwrap"
justification = ""
"#;
    let err = Config::parse(&format!("{FIXTURE_CONFIG}{missing}")).unwrap_err();
    assert!(err.contains("justification"), "{err}");
}

/// The JSON rendering is byte-stable: findings are sorted, keys are ordered, and the
/// snapshot only changes when the fixtures or the rules deliberately change.
#[test]
fn json_snapshot_is_stable() {
    let report = run_fixture();
    let json = report.to_json();
    let path = fixture_root().join("expected.json");
    if std::env::var_os("SECTOPK_BLESS").is_some() {
        std::fs::write(&path, &json).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect(
        "tests/fixtures/expected.json missing — bless with SECTOPK_BLESS=1 cargo test \
         -p sectopk-lint --test fixture_corpus",
    );
    assert_eq!(json, expected, "JSON report drifted; re-bless if intentional");
}

/// Determinism of the analyzer itself: two runs over the same tree produce identical
/// reports (file walk order is sorted, not directory-order dependent).
#[test]
fn repeated_runs_are_identical() {
    assert_eq!(run_fixture().to_json(), run_fixture().to_json());
}
