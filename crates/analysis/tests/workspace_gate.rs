//! The analyzer against the real workspace: the tree must be clean under the
//! checked-in `lints.toml`, every allowlist entry must still be load-bearing
//! (removing any single one fails the run), and the audited rule sections must
//! stay wired to the real protocol surface.

use std::path::{Path, PathBuf};

use sectopk_lint::report::Report;
use sectopk_lint::Config;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn real_config() -> Config {
    Config::load(&workspace_root().join("lints.toml")).expect("lints.toml loads")
}

/// The CI gate in test form: zero non-allowlisted findings and zero stale allowlist
/// entries on the committed tree.
#[test]
fn workspace_is_clean() {
    let cfg = real_config();
    let report = sectopk_lint::run(&workspace_root(), &cfg).expect("workspace analyzes");
    assert!(report.is_clean(), "workspace lint is not clean:\n{}", report.render_text());
    assert!(report.files_analyzed > 50, "walked the whole workspace");
    assert!(!report.allowed.is_empty(), "the audited exemptions are exercised");
}

/// Every allowlist entry is load-bearing: removing any single one surfaces the
/// violation(s) it justified, so stale-looking entries cannot accumulate silently.
#[test]
fn removing_any_allow_entry_fails_the_run() {
    let cfg = real_config();
    // One analysis pass with an empty allowlist yields the raw findings; each
    // subset allowlist is then applied without re-lexing the tree.
    let mut bare = cfg.clone();
    bare.allow.clear();
    let raw = sectopk_lint::run(&workspace_root(), &bare).expect("workspace analyzes");
    assert!(!raw.findings.is_empty(), "the allowlist exists for a reason");
    for removed in 0..cfg.allow.len() {
        let subset: Vec<_> = cfg
            .allow
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, e)| e.clone())
            .collect();
        let report = Report::assemble(raw.findings.clone(), &subset, raw.files_analyzed);
        assert!(
            !report.findings.is_empty(),
            "allowlist entry #{removed} ({} in {}) no longer matters — remove it",
            cfg.allow[removed].rule,
            cfg.allow[removed].file,
        );
    }
}

/// The wire section of `lints.toml` points at the real protocol surface: the file
/// holding the error enum named there must exist, or the exhaustiveness rule would
/// silently check nothing.
#[test]
fn wire_rule_is_wired_to_real_files() {
    let cfg = real_config();
    let wire = cfg.wire.as_ref().expect("wire rule configured");
    let file = &wire.error_enum_file;
    assert!(workspace_root().join(file).is_file(), "lints.toml names a missing file: {file}");
}
