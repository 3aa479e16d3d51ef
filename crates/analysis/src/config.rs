//! `lints.toml` loading: a small TOML-subset parser (the workspace is offline, so no
//! `toml` crate) plus the typed [`Config`] the rules consume.
//!
//! The subset covers exactly what the config needs: `[table]` headers, `[[allow]]`
//! array-of-tables headers, and `key = value` pairs whose values are strings or
//! (possibly multi-line) arrays of strings.  Comments start with `#` outside strings.

use std::collections::BTreeMap;

/// A parsed value: a string or a list of strings.
#[derive(Clone, Debug)]
enum TomlVal {
    Str(String),
    List(Vec<String>),
}

type Table = BTreeMap<String, TomlVal>;

/// One `[[allow]]` entry: a justified exemption for findings of `rule` in `file` whose
/// source line contains `pattern`.
#[derive(Clone, Debug, serde::Serialize)]
pub struct AllowEntry {
    /// Rule id the exemption applies to (e.g. `panic-freedom`).
    pub rule: String,
    /// Workspace-relative path (forward slashes) the exemption applies to.
    pub file: String,
    /// Substring of the source line(s) being exempted.
    pub pattern: String,
    /// Why this site is allowed to violate the rule.  Mandatory and non-empty.
    pub justification: String,
}

/// Configuration for the decrypt-confinement rule.
#[derive(Clone, Debug, Default)]
pub struct DecryptRule {
    /// Paths (files or directory prefixes) where decrypt calls are permitted.
    pub audited: Vec<String>,
    /// Call-name patterns counted as reveals; a trailing `*` matches a prefix.
    pub calls: Vec<String>,
    /// Files within the audited set whose decrypting functions must also record to the
    /// leakage ledger (the S2 engine).
    pub engine_files: Vec<String>,
    /// Call names that count as a ledger record (e.g. `record`, `record_eq_bit`).
    pub ledger_markers: Vec<String>,
}

/// Configuration for the determinism rule.
#[derive(Clone, Debug, Default)]
pub struct DeterminismRule {
    /// Crate/directory prefixes the rule applies to.
    pub scopes: Vec<String>,
    /// Banned identifiers (`thread_rng`) or paths (`Instant::now`).
    pub banned: Vec<String>,
}

/// Configuration for the serving-path panic-freedom rule.
#[derive(Clone, Debug, Default)]
pub struct PanicRule {
    /// Files or directory prefixes forming the serving path.
    pub paths: Vec<String>,
}

/// Configuration for the secret-hygiene rule.
#[derive(Clone, Debug, Default)]
pub struct SecretRule {
    /// Type names holding key material: no `Debug`/`Display` without an exemption.
    pub types: Vec<String>,
    /// Identifiers that must never appear inside formatting macros.
    pub idents: Vec<String>,
    /// Formatting macro names scanned for secret identifiers.
    pub fmt_macros: Vec<String>,
}

/// Configuration for the wire-exhaustiveness rule.
#[derive(Clone, Debug, Default)]
pub struct WireRule {
    /// File defining the wire error-code enum.
    pub error_enum_file: String,
    /// Name of the error-code enum (e.g. `WireErrorCode`).
    pub error_enum: String,
    /// Name of the all-codes const (e.g. `ALL`).
    pub all_const: String,
    /// Name of the code-to-name function (e.g. `name`).
    pub name_fn: String,
}

/// The full analyzer configuration, as loaded from `lints.toml`.  A missing section
/// disables its rule (used by the fixture corpora to exercise rules in isolation).
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Decrypt-confinement settings.
    pub decrypt: DecryptRule,
    /// Determinism settings.
    pub determinism: DeterminismRule,
    /// Panic-freedom settings.
    pub panic: PanicRule,
    /// Secret-hygiene settings.
    pub secret: SecretRule,
    /// Wire-exhaustiveness settings (`None` disables the rule).
    pub wire: Option<WireRule>,
    /// Justified per-site exemptions.
    pub allow: Vec<AllowEntry>,
}

impl Config {
    /// Parse a `lints.toml` document.
    pub fn parse(text: &str) -> Result<Config, String> {
        let (tables, arrays) = parse_toml(text)?;
        let empty = Table::new();
        let get = |name: &str| tables.get(name).unwrap_or(&empty);

        let mut cfg = Config {
            decrypt: DecryptRule {
                audited: get_list(get("decrypt_confinement"), "audited"),
                calls: get_list(get("decrypt_confinement"), "calls"),
                engine_files: get_list(get("decrypt_confinement"), "engine_files"),
                ledger_markers: get_list(get("decrypt_confinement"), "ledger_markers"),
            },
            determinism: DeterminismRule {
                scopes: get_list(get("determinism"), "scopes"),
                banned: get_list(get("determinism"), "banned"),
            },
            panic: PanicRule { paths: get_list(get("panic_freedom"), "paths") },
            secret: SecretRule {
                types: get_list(get("secret_hygiene"), "types"),
                idents: get_list(get("secret_hygiene"), "idents"),
                fmt_macros: get_list(get("secret_hygiene"), "fmt_macros"),
            },
            wire: None,
            allow: Vec::new(),
        };
        if let Some(w) = tables.get("wire_exhaustiveness") {
            cfg.wire = Some(WireRule {
                error_enum_file: get_str(w, "error_enum_file")?,
                error_enum: get_str(w, "error_enum")?,
                all_const: get_str(w, "all_const")?,
                name_fn: get_str(w, "name_fn")?,
            });
        }
        for (idx, t) in arrays.get("allow").map(Vec::as_slice).unwrap_or(&[]).iter().enumerate() {
            let entry = AllowEntry {
                rule: get_str(t, "rule").map_err(|e| format!("[[allow]] #{}: {e}", idx + 1))?,
                file: get_str(t, "file").map_err(|e| format!("[[allow]] #{}: {e}", idx + 1))?,
                pattern: get_str(t, "pattern")
                    .map_err(|e| format!("[[allow]] #{}: {e}", idx + 1))?,
                justification: get_str(t, "justification")
                    .map_err(|e| format!("[[allow]] #{}: {e}", idx + 1))?,
            };
            if entry.justification.trim().is_empty() {
                return Err(format!(
                    "[[allow]] #{} ({} in {}): empty justification — every exemption must say why",
                    idx + 1,
                    entry.rule,
                    entry.file
                ));
            }
            cfg.allow.push(entry);
        }
        Ok(cfg)
    }

    /// Load and parse the config file at `path`.
    pub fn load(path: &std::path::Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn get_list(table: &Table, key: &str) -> Vec<String> {
    match table.get(key) {
        Some(TomlVal::List(v)) => v.clone(),
        Some(TomlVal::Str(s)) => vec![s.clone()],
        None => Vec::new(),
    }
}

fn get_str(table: &Table, key: &str) -> Result<String, String> {
    match table.get(key) {
        Some(TomlVal::Str(s)) => Ok(s.clone()),
        Some(TomlVal::List(_)) => Err(format!("key `{key}` must be a string, not an array")),
        None => Err(format!("missing key `{key}`")),
    }
}

/// Parse the TOML subset into plain tables and arrays-of-tables.
#[allow(clippy::type_complexity)]
fn parse_toml(
    text: &str,
) -> Result<(BTreeMap<String, Table>, BTreeMap<String, Vec<Table>>), String> {
    let mut tables: BTreeMap<String, Table> = BTreeMap::new();
    let mut arrays: BTreeMap<String, Vec<Table>> = BTreeMap::new();
    // (is_array, name) of the section currently being filled.
    let mut current: Option<(bool, String)> = None;

    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            let name = name.trim().to_string();
            arrays.entry(name.clone()).or_default().push(Table::new());
            current = Some((true, name));
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            let name = name.trim().to_string();
            tables.entry(name.clone()).or_default();
            current = Some((false, name));
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("line {}: expected `key = value`", lineno + 1));
        };
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Arrays may span lines: accumulate until brackets balance outside strings.
        while value.starts_with('[') && !brackets_balanced(&value) {
            let Some((_, next)) = lines.next() else {
                return Err(format!("line {}: unterminated array", lineno + 1));
            };
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let parsed = parse_value(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let table = match &current {
            Some((true, name)) => arrays
                .get_mut(name)
                .and_then(|v| v.last_mut())
                .ok_or_else(|| format!("line {}: key outside any section", lineno + 1))?,
            Some((false, name)) => tables
                .get_mut(name)
                .ok_or_else(|| format!("line {}: key outside any section", lineno + 1))?,
            None => return Err(format!("line {}: key outside any section", lineno + 1)),
        };
        table.insert(key, parsed);
    }
    Ok((tables, arrays))
}

/// Remove a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

/// True when `[` and `]` balance outside strings.
fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parse a value: `"string"` or `[ "a", "b" ]`.
fn parse_value(v: &str) -> Result<TomlVal, String> {
    let v = v.trim();
    if let Some(inner) = v.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or("unterminated array")?;
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (s, after) = parse_string(rest)?;
            items.push(s);
            rest = after.trim();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim();
            } else if !rest.is_empty() {
                return Err(format!("expected `,` in array near `{rest}`"));
            }
        }
        return Ok(TomlVal::List(items));
    }
    if v.starts_with('"') {
        let (s, rest) = parse_string(v)?;
        if !rest.trim().is_empty() {
            return Err(format!("trailing content after string: `{rest}`"));
        }
        return Ok(TomlVal::Str(s));
    }
    Err(format!("unsupported value `{v}` (only strings and string arrays)"))
}

/// Parse one leading double-quoted string; returns (contents, remainder).
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let rest = s.strip_prefix('"').ok_or_else(|| format!("expected string near `{s}`"))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((idx, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => out.push(other),
                None => return Err("dangling escape in string".into()),
            },
            '"' => return Ok((out, &rest[idx + c.len_utf8()..])),
            _ => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_allow_entries() {
        let cfg = Config::parse(
            r#"
# comment
[determinism]
scopes = ["crates/a", "crates/b"] # trailing comment
banned = [
    "thread_rng",
    "Instant::now",
]

[[allow]]
rule = "determinism"
file = "crates/a/src/x.rs"
pattern = "Instant::now"
justification = "timeout machinery"
"#,
        )
        .unwrap();
        assert_eq!(cfg.determinism.scopes, vec!["crates/a", "crates/b"]);
        assert_eq!(cfg.determinism.banned, vec!["thread_rng", "Instant::now"]);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].pattern, "Instant::now");
    }

    #[test]
    fn empty_justification_is_rejected() {
        let err = Config::parse(
            "[[allow]]\nrule = \"x\"\nfile = \"f\"\npattern = \"p\"\njustification = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }
}
