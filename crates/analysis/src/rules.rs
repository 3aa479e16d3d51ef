//! The five invariant rules.
//!
//! Each rule walks the test-stripped token stream of one source file and emits
//! [`Finding`]s.  Rules are purely
//! lexical — see the module docs on [`crate::lexer`] for why — and every finding
//! carries the rule id, file, line, source snippet and a human-readable message, so
//! the allowlist can pin exemptions to specific sites.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::lexer::{fn_spans, innermost_fn, FnSpan, Tok, TokKind};
use crate::report::Finding;

/// A lexed source file, ready for the rules.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Test-stripped token stream.
    pub toks: Vec<Tok>,
    /// Raw source lines (1-based indexing via `line - 1`), for snippets.
    pub lines: Vec<String>,
    /// Function-body extents over `toks`.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Build a [`SourceFile`] from raw text.
    pub fn new(rel: String, text: &str) -> SourceFile {
        let toks = crate::lexer::strip_test_code(&crate::lexer::lex(text));
        let fns = fn_spans(&toks);
        SourceFile { rel, toks, lines: text.lines().map(str::to_string).collect(), fns }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: self.rel.clone(),
            line,
            snippet: self.snippet(line),
            message,
        }
    }
}

/// True when `rel` matches one of the configured paths: exact match for `.rs` entries,
/// directory-prefix match otherwise.
fn path_matches(rel: &str, entries: &[String]) -> bool {
    entries.iter().any(|e| {
        if e.ends_with(".rs") {
            rel == e
        } else {
            rel.strip_prefix(e.as_str()).is_some_and(|r| r.starts_with('/')) || rel == *e
        }
    })
}

/// True when identifier `name` matches the call pattern (trailing `*` = prefix match).
fn call_matches(name: &str, pattern: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

/// Rule 1 — decrypt confinement: `decrypt*` calls only inside the audited modules, and
/// every decrypting function in the S2 engine must record to the leakage ledger.
pub fn decrypt_confinement(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.decrypt.calls.is_empty() {
        return;
    }
    let audited = path_matches(&f.rel, &cfg.decrypt.audited);
    let is_engine = path_matches(&f.rel, &cfg.decrypt.engine_files);
    for i in 0..f.toks.len() {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident || !cfg.decrypt.calls.iter().any(|p| call_matches(&t.text, p)) {
            continue;
        }
        if !f.toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue; // not a call
        }
        if i > 0 && f.toks[i - 1].is_ident("fn") {
            continue; // a definition, not a call
        }
        if !audited {
            out.push(f.finding(
                "decrypt-confinement",
                t.line,
                format!(
                    "`{}` call outside the audited decrypt modules — plaintext must only \
                     appear in the S2 engine or the crypto crate",
                    t.text
                ),
            ));
        } else if is_engine {
            let paired = innermost_fn(&f.fns, i).is_some_and(|span| {
                (span.start..=span.end).any(|k| {
                    f.toks[k].kind == TokKind::Ident
                        && cfg.decrypt.ledger_markers.contains(&f.toks[k].text)
                        && f.toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                })
            });
            if !paired {
                let fn_name = innermost_fn(&f.fns, i)
                    .map(|s| s.name.clone())
                    .unwrap_or_else(|| "<top level>".into());
                out.push(f.finding(
                    "decrypt-confinement",
                    t.line,
                    format!(
                        "engine-side reveal `{}` in fn `{fn_name}` has no LeakageLedger \
                         record in the same function",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Rule 2 — determinism discipline: no ambient randomness or wall-clock reads in the
/// protocol/crypto compute paths.
pub fn determinism(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(&f.rel, &cfg.determinism.scopes) {
        return;
    }
    for banned in &cfg.determinism.banned {
        let segs: Vec<&str> = banned.split("::").collect();
        for i in 0..f.toks.len() {
            if !f.toks[i].is_ident(segs[0]) {
                continue;
            }
            // Multi-segment paths must be followed by `::seg` for each further segment.
            let mut j = i;
            let mut matched = true;
            for seg in &segs[1..] {
                if f.toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && f.toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    && f.toks.get(j + 3).is_some_and(|t| t.is_ident(seg))
                {
                    j += 3;
                } else {
                    matched = false;
                    break;
                }
            }
            if !matched || (i > 0 && f.toks[i - 1].is_ident("fn")) {
                continue;
            }
            out.push(f.finding(
                "determinism",
                f.toks[i].line,
                format!(
                    "`{banned}` in a deterministic compute path — randomness must come from \
                     seeded session RNGs and clock reads must stay behind sectopk-metrics \
                     handles"
                ),
            ));
        }
    }
}

/// Rule 3 — serving-path panic-freedom: no `unwrap`/`expect`/panicking macros/raw
/// indexing in the request/reply path.
pub fn panic_freedom(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(&f.rel, &cfg.panic.paths) {
        return;
    }
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for i in 0..f.toks.len() {
        let t = &f.toks[i];
        // `.unwrap()` / `.expect(` method calls.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && f.toks[i - 1].is_punct('.')
            && f.toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(f.finding(
                "panic-freedom",
                t.line,
                format!(
                    "`.{}()` on the serving path — return a typed ProtocolError/WireError \
                     instead; the session must survive",
                    t.text
                ),
            ));
            continue;
        }
        // panic!/unreachable!/todo!/unimplemented! macros.
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && f.toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(f.finding(
                "panic-freedom",
                t.line,
                format!("`{}!` on the serving path — the session must survive", t.text),
            ));
            continue;
        }
        // Raw index expressions: `[` directly after an expression-ending token.
        if t.is_punct('[') && i > 0 {
            let prev = &f.toks[i - 1];
            let indexes_expr = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                || prev.kind == TokKind::Number
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.is_punct('?');
            if indexes_expr {
                out.push(
                    f.finding(
                        "panic-freedom",
                        t.line,
                        "raw index expression on the serving path — use `.get(..)` and return \
                     a typed error on out-of-range"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Keywords that can directly precede `[` without forming an index expression
/// (e.g. `return [a, b]`, `in [1, 2]`).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "in"
            | "break"
            | "match"
            | "if"
            | "else"
            | "while"
            | "loop"
            | "move"
            | "mut"
            | "ref"
            | "box"
            | "as"
            | "const"
            | "static"
            | "use"
            | "crate"
    )
}

/// Rule 4 — secret hygiene: no `Debug`/`Display` derives or impls on key-material
/// types, and no secret identifiers inside formatting macros.
pub fn secret_hygiene(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.secret.types.is_empty() && cfg.secret.idents.is_empty() {
        return;
    }
    derive_on_secret_types(f, cfg, out);
    impl_on_secret_types(f, cfg, out);
    secret_in_format_macros(f, cfg, out);
}

fn derive_on_secret_types(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        let t = &f.toks[i];
        if !(t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union")) {
            continue;
        }
        let Some(name) = f.toks.get(i + 1) else { continue };
        if name.kind != TokKind::Ident || !cfg.secret.types.contains(&name.text) {
            continue;
        }
        // Walk backward over visibility modifiers and attributes, inspecting each
        // `#[derive(..)]` for Debug/Display.
        let mut j = i as isize - 1;
        while j >= 0 {
            let tok = &f.toks[j as usize];
            if tok.is_punct(']') {
                // Find the opening `[` and the `#` before it.
                let close = j as usize;
                let mut depth = 0i32;
                let mut open = close;
                for k in (0..=close).rev() {
                    if f.toks[k].is_punct(']') {
                        depth += 1;
                    } else if f.toks[k].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            open = k;
                            break;
                        }
                    }
                }
                let attr = &f.toks[open + 1..close];
                if attr.first().is_some_and(|a| a.is_ident("derive")) {
                    for d in attr {
                        if d.is_ident("Debug") || d.is_ident("Display") {
                            out.push(f.finding(
                                "secret-hygiene",
                                f.toks[open].line,
                                format!(
                                    "secret-key type `{}` derives `{}` — key material \
                                     must never be formatted; implement a redacted \
                                     formatter instead",
                                    name.text, d.text
                                ),
                            ));
                        }
                    }
                }
                j = open as isize - 2; // past the `#`
            } else if tok.kind == TokKind::Ident
                && matches!(tok.text.as_str(), "pub" | "crate" | "super" | "in" | "self")
                || tok.is_punct('(')
                || tok.is_punct(')')
            {
                j -= 1;
            } else {
                break;
            }
        }
    }
}

fn impl_on_secret_types(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    for i in 0..f.toks.len() {
        if !f.toks[i].is_ident("impl") {
            continue;
        }
        // Scan the impl header: `impl<..> Trait for Type {`.
        let mut for_pos = None;
        let mut body = None;
        for (k, t) in f.toks.iter().enumerate().skip(i + 1).take(64) {
            if t.is_ident("for") && for_pos.is_none() {
                for_pos = Some(k);
            }
            if t.is_punct('{') || t.is_punct(';') {
                body = Some(k);
                break;
            }
        }
        let (Some(for_pos), Some(body)) = (for_pos, body) else { continue };
        let trait_part = &f.toks[i + 1..for_pos];
        let type_part = &f.toks[for_pos + 1..body];
        let fmt_trait = trait_part.iter().find(|t| t.is_ident("Debug") || t.is_ident("Display"));
        let secret = type_part
            .iter()
            .find(|t| t.kind == TokKind::Ident && cfg.secret.types.contains(&t.text));
        if let (Some(tr), Some(ty)) = (fmt_trait, secret) {
            out.push(f.finding(
                "secret-hygiene",
                f.toks[i].line,
                format!(
                    "manual `{}` impl for secret-key type `{}` — must be allowlisted as an \
                     audited redacted formatter",
                    tr.text, ty.text
                ),
            ));
        }
    }
}

fn secret_in_format_macros(f: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.secret.idents.is_empty() {
        return;
    }
    for i in 0..f.toks.len() {
        let t = &f.toks[i];
        if t.kind != TokKind::Ident
            || !cfg.secret.fmt_macros.contains(&t.text)
            || !f.toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            continue;
        }
        if !f.toks.get(i + 2).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Scan the macro's argument span.
        let mut depth = 0i32;
        for k in i + 2..f.toks.len() {
            let a = &f.toks[k];
            if a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if a.kind == TokKind::Ident && cfg.secret.idents.contains(&a.text) {
                out.push(f.finding(
                    "secret-hygiene",
                    a.line,
                    format!(
                        "secret `{}` passed to `{}!` — never format key material",
                        a.text, t.text
                    ),
                ));
            }
            if a.kind == TokKind::Str {
                for ident in &cfg.secret.idents {
                    if a.text.contains(&format!("{{{ident}}}"))
                        || a.text.contains(&format!("{{{ident}:"))
                    {
                        out.push(f.finding(
                            "secret-hygiene",
                            a.line,
                            format!(
                                "format-string capture of secret `{ident}` in `{}!` — never \
                                 format key material",
                                t.text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Rule 5 — wire exhaustiveness: the error-code `ALL` const covers each code exactly
/// once, and code names are unique.  (That the engine answers every request variant is
/// the compiler's job: its two matches over the request enum have no wildcard arm.)
pub fn wire_exhaustiveness(files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
    let Some(wire) = &cfg.wire else { return };
    let Some(err) = files.iter().find(|f| f.rel == wire.error_enum_file) else { return };
    let variants = enum_variants(err, &wire.error_enum);
    let all = const_array_refs(err, &wire.all_const, &wire.error_enum);
    if let Some((all_line, entries)) = all {
        let mut seen = BTreeSet::new();
        for (entry, line) in &entries {
            if !seen.insert(entry.clone()) {
                out.push(err.finding(
                    "wire-exhaustiveness",
                    *line,
                    format!(
                        "duplicate `{}::{entry}` in `{}` — wire error codes must be unique",
                        wire.error_enum, wire.all_const
                    ),
                ));
            }
        }
        for (variant, _) in &variants {
            if !entries.iter().any(|(e, _)| e == variant) {
                out.push(err.finding(
                    "wire-exhaustiveness",
                    all_line,
                    format!(
                        "`{}::{variant}` is missing from `{}` — exhaustive tests and log \
                         tooling iterate it",
                        wire.error_enum, wire.all_const
                    ),
                ));
            }
        }
    }
    // Stable names must be pairwise distinct.
    let mut seen = BTreeSet::new();
    for (name, line) in fn_string_literals(err, &wire.name_fn) {
        if !seen.insert(name.clone()) {
            out.push(err.finding(
                "wire-exhaustiveness",
                line,
                format!("duplicate wire error name `{name}` in `fn {}`", wire.name_fn),
            ));
        }
    }
}

/// Collect `(variant, line)` for each variant of `enum name { .. }` in `f`.
fn enum_variants(f: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let mut variants = Vec::new();
    let Some(pos) = (0..f.toks.len()).find(|&i| {
        f.toks[i].is_ident("enum") && f.toks.get(i + 1).is_some_and(|t| t.is_ident(name))
    }) else {
        return variants;
    };
    let Some(open) = (pos..f.toks.len()).find(|&i| f.toks[i].is_punct('{')) else {
        return variants;
    };
    let mut depth = 0i32;
    let mut expecting = true;
    let mut k = open;
    while k < f.toks.len() {
        let t = &f.toks[k];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 && t.is_punct('}') {
                break;
            }
        } else if depth == 1 {
            if t.is_punct('#') {
                // Skip the attribute span.
                let mut d = 0i32;
                k += 1;
                while k < f.toks.len() {
                    if f.toks[k].is_punct('[') {
                        d += 1;
                    } else if f.toks[k].is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
            } else if expecting && t.kind == TokKind::Ident {
                variants.push((t.text.clone(), t.line));
                expecting = false;
            } else if t.is_punct(',') {
                expecting = true;
            }
        }
        k += 1;
    }
    variants
}

/// Parse `const NAME: .. = [ Enum::A, Enum::B, .. ]`, returning the const's line and
/// each `(variant, line)` entry in order (duplicates preserved).
fn const_array_refs(
    f: &SourceFile,
    const_name: &str,
    enum_name: &str,
) -> Option<(u32, Vec<(String, u32)>)> {
    let pos = (0..f.toks.len()).find(|&i| f.toks[i].is_ident(const_name))?;
    let open = (pos..f.toks.len()).find(|&i| f.toks[i].is_punct('['))?;
    // The first `[` after the const name may be the type's `[T; N]` — find the `[`
    // that comes after the `=`.
    let eq = (pos..f.toks.len()).find(|&i| f.toks[i].is_punct('='))?;
    let open = (eq.max(open)..f.toks.len()).find(|&i| i > eq && f.toks[i].is_punct('['))?;
    let mut entries = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k < f.toks.len() {
        let t = &f.toks[k];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.is_ident(enum_name)
            && f.toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
            && f.toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(v) = f.toks.get(k + 3).filter(|n| n.kind == TokKind::Ident) {
                entries.push((v.text.clone(), v.line));
                k += 3;
            }
        }
        k += 1;
    }
    Some((f.toks[pos].line, entries))
}

/// Collect `(string, line)` for every string literal inside `fn name`'s body.
fn fn_string_literals(f: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let Some(span) = f.fns.iter().find(|s| s.name == name) else { return Vec::new() };
    f.toks[span.start..=span.end]
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| (t.text.clone(), t.line))
        .collect()
}
