//! Public-API surface snapshot for the `sectopk-core` facade.
//!
//! The `Session` / `QueryBuilder` / `SecTopKError` surface is the contract every test,
//! bench, example and downstream consumer builds against, together with the session
//! doors of `TwoClouds`, the transports and request kinds beneath them, the session pool
//! and its listener, the serving doors of `QueryServer`, and the Paillier keys and
//! residue helpers of `sectopk-crypto`.  This test extracts the public item and field declarations of those source files, and
//! the variants of their public enums, and compares them against a committed snapshot, so
//! any change to the surface — a removed method or field, a renamed variant, a
//! signature change — fails loudly in review instead of slipping in silently.
//!
//! To re-bless after an *intentional* surface change:
//!
//! ```text
//! SECTOPK_BLESS=1 cargo test --test api_surface
//! ```
//!
//! and audit the diff of `tests/golden/api_surface.txt` like any other contract change.

use std::fmt::Write as _;
use std::path::Path;

/// The facade source files whose public declarations form the tracked surface.
const FACADE_FILES: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/core/src/builder.rs",
    "crates/core/src/error.rs",
    "crates/core/src/planner.rs",
    "crates/core/src/session.rs",
    "crates/core/src/scheme.rs",
    "crates/core/src/query.rs",
    "crates/core/src/results.rs",
    "crates/core/src/leakage.rs",
    "crates/core/src/join.rs",
    "crates/protocols/src/context.rs",
    "crates/protocols/src/transport.rs",
    "crates/protocols/src/multiplex.rs",
    "crates/protocols/src/tcp.rs",
    "crates/protocols/src/channel.rs",
    "crates/protocols/src/wire.rs",
    "crates/server/src/lib.rs",
    "crates/crypto/src/paillier.rs",
    "crates/crypto/src/bigint.rs",
];

/// True when `line` (already trimmed) is a public struct field: `pub name: Type,`.
fn is_public_field(line: &str) -> bool {
    line.strip_prefix("pub ")
        .and_then(|rest| rest.split_once(':'))
        .is_some_and(|(name, _)| name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()))
}

/// True when `line` (already trimmed) declares a public item or field we track.
fn is_public_declaration(line: &str) -> bool {
    if is_public_field(line) {
        return true;
    }
    for prefix in [
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub use ",
        "pub mod ",
        "pub const ",
    ] {
        if line.starts_with(prefix) {
            return true;
        }
    }
    false
}

/// True when `line` (already trimmed) of a `pub enum` body is a variant or a field of
/// one — not a comment, an attribute or a closing brace.
fn is_variant_line(line: &str) -> bool {
    !(line.is_empty() || line.starts_with("//") || line.starts_with('#') || line.starts_with('}'))
}

/// Extract the tracked declarations of one file: one line per item, signatures joined
/// until their opening brace / semicolon so multi-line `fn` signatures stay one entry.
/// The variant lines of a `pub enum` body follow its declaration, one entry each.
fn extract_surface(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lines = source.lines().peekable();
    let mut in_test_module = false;
    let mut brace_depth: i64 = 0;
    // Brace depth inside the body of the `pub enum` being read; 0 outside one.
    let mut enum_depth: i64 = 0;
    while let Some(raw) = lines.next() {
        let line = raw.trim();
        if enum_depth > 0 {
            if is_variant_line(line) {
                let variant = line.split('{').next().unwrap_or(line).trim();
                out.push(variant.split_whitespace().collect::<Vec<_>>().join(" "));
            }
            enum_depth += line.matches('{').count() as i64;
            enum_depth -= line.matches('}').count() as i64;
            continue;
        }
        if line.starts_with("#[cfg(test)]") {
            in_test_module = true;
            brace_depth = 0;
        }
        if in_test_module {
            brace_depth += line.matches('{').count() as i64;
            brace_depth -= line.matches('}').count() as i64;
            if brace_depth <= 0 && line.contains('}') {
                in_test_module = false;
            }
            continue;
        }
        if !is_public_declaration(line) {
            continue;
        }
        // Join continuation lines until the declaration closes.  `pub use` braces are
        // item lists (part of the surface), so those run to their semicolon; a field runs
        // to its comma; other declarations stop at the body opener.
        let is_use = line.starts_with("pub use ");
        let is_field = is_public_field(line);
        let mut declaration = line.to_string();
        let closed = |d: &str| {
            if is_use {
                d.contains(';')
            } else if is_field {
                d.ends_with(',')
            } else {
                d.contains('{') || d.contains(';') || d.ends_with(')')
            }
        };
        while !closed(&declaration) {
            match lines.next() {
                Some(next) => {
                    declaration.push(' ');
                    declaration.push_str(next.trim());
                }
                None => break,
            }
        }
        if line.starts_with("pub enum ") {
            enum_depth = declaration.matches('{').count() as i64;
            enum_depth -= declaration.matches('}').count() as i64;
        }
        // Normalise: cut the body opener (except for `pub use` item lists) and collapse
        // whitespace.
        let declaration = if is_use {
            declaration.trim().to_string()
        } else {
            declaration.split('{').next().unwrap_or(&declaration).trim().to_string()
        };
        let declaration = declaration.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push(declaration);
    }
    out
}

fn render_surface() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut rendered = String::from(
        "# Public API surface of the sectopk-core facade.\n\
         # Regenerate with: SECTOPK_BLESS=1 cargo test --test api_surface\n",
    );
    for file in FACADE_FILES {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("facade file {file} must exist: {e}"));
        writeln!(rendered, "\n[{file}]").unwrap();
        for item in extract_surface(&source) {
            writeln!(rendered, "{item}").unwrap();
        }
    }
    rendered
}

#[test]
fn facade_surface_matches_the_committed_snapshot() {
    let rendered = render_surface();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/api_surface.txt");
    if std::env::var("SECTOPK_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write surface snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing API surface snapshot {} ({e}); run with SECTOPK_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        committed, rendered,
        "the sectopk-core public API surface changed — if this is intentional, re-bless \
         with SECTOPK_BLESS=1 and audit the diff of tests/golden/api_surface.txt"
    );
}

#[test]
fn the_facade_exports_the_one_front_door() {
    // Compile-time spot checks that the contract items exist with the expected shapes
    // (the snapshot catches renames; this catches accidental re-export removal).
    use sectopk_core::{DataOwner, Query, Session};

    fn assert_session_object_safe(_: &mut dyn Session) {}
    let _ = assert_session_object_safe;

    let _builder_entry: fn(usize) -> sectopk_core::QueryBuilder = Query::top_k;
    let _connect = DataOwner::connect;
    let _outsource = DataOwner::outsource::<rand::rngs::StdRng>;
    let _execute_engine = sectopk_core::execute_with_clouds::<rand::rngs::StdRng>;
    let _plan: fn(&sectopk_core::PlannerInputs) -> sectopk_core::PlanDecision = sectopk_core::plan;
}

#[test]
fn the_frozen_surface_keeps_the_signatures_the_benchmark_calls() {
    // `benchmark/` is a workspace of its own (DESIGN.md §13), built only by its own CI
    // job; these are the six flagged items it calls and the Damgård–Jurik calls of its
    // micro metrics, each with the exact signature it calls it with, so a break fails
    // `cargo test` here too.
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use sectopk_core::{DataOwner, DirectSession, LinkProfile, Outsourced, PlanDecision, Query};
    use sectopk_crypto::damgard_jurik::{DjPublicKey, DjSecretKey, LayeredCiphertext};
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::{PaillierPublicKey, PaillierSecretKey, RandomnessPool};
    use sectopk_protocols::{MultiplexServer, SessionId, TransportKind, TwoClouds};
    use sectopk_server::QueryServer;
    type Clouds = sectopk_protocols::Result<TwoClouds>;

    let _with_transport: fn(&MasterKeys, u64, TransportKind, bool) -> Clouds =
        TwoClouds::with_transport;
    let _connect: fn(&MasterKeys, u64, bool, &MultiplexServer, SessionId, LinkProfile) -> Clouds =
        TwoClouds::connect;
    let _connect_with: fn(
        &DataOwner,
        &Outsourced,
        u64,
        TransportKind,
        bool,
    ) -> sectopk_core::Result<DirectSession> = DataOwner::connect_with;
    let _open_session: fn(
        &QueryServer,
        SessionId,
        u64,
        bool,
        LinkProfile,
    ) -> sectopk_core::Result<DirectSession> = QueryServer::open_session;
    let _plan_for: fn(&Query, usize, LinkProfile, bool) -> PlanDecision = sectopk_core::plan_for;
    let _batching: fn(&TwoClouds) -> bool = TwoClouds::batching;

    type Layered = sectopk_crypto::Result<LayeredCiphertext>;
    let _dj_public: fn(&PaillierPublicKey) -> DjPublicKey = DjPublicKey::from_paillier;
    let _dj_encrypt: fn(&DjPublicKey, u64, &mut StdRng) -> Layered =
        DjPublicKey::encrypt_u64::<StdRng>;
    let _dj_secret: fn(&PaillierSecretKey) -> DjSecretKey = DjSecretKey::from_paillier;
    let _dj_decrypt: fn(&DjSecretKey, &LayeredCiphertext) -> sectopk_crypto::Result<BigUint> =
        DjSecretKey::decrypt;
    let _with_dj: fn(&PaillierPublicKey, &DjPublicKey, u64) -> RandomnessPool =
        RandomnessPool::with_dj;
    let _refill: fn(&mut RandomnessPool, usize, usize) = RandomnessPool::refill;
}

#[test]
fn the_four_session_doors_refuse_an_unbatched_session() {
    use rand::SeedableRng;
    use sectopk_core::{DataOwner, LinkProfile, SecTopKError, TransportKind};
    use sectopk_protocols::TwoClouds;
    use sectopk_protocols::{MultiplexServer, ProtocolError, SessionId, TransportErrorKind};
    use sectopk_server::QueryServer;

    let rejected = |e: &ProtocolError| matches!(e, ProtocolError::Transport(t) if t.kind == TransportErrorKind::Rejected);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA7C);
    let owner = DataOwner::new(128, 2, &mut rng).expect("keygen");
    let (outsourced, _) = owner.outsource(&sectopk_datasets::fig3_relation(), &mut rng).unwrap();
    let keys = owner.keys();

    let err = TwoClouds::with_transport(keys, 1, TransportKind::InProcess, false).unwrap_err();
    assert!(rejected(&err), "with_transport: {err:?}");
    let pool = MultiplexServer::new(1);
    let err = TwoClouds::connect(keys, 1, false, &pool, SessionId(1), LinkProfile::ideal());
    assert!(rejected(&err.unwrap_err()), "connect");
    let err = owner.connect_with(&outsourced, 1, TransportKind::InProcess, false).unwrap_err();
    assert!(matches!(&err, SecTopKError::Protocol(e) if rejected(e)), "connect_with: {err:?}");
    let server = QueryServer::new(keys, outsourced, 1);
    let err = server.open_session(SessionId(1), 1, false, LinkProfile::ideal()).unwrap_err();
    assert!(matches!(&err, SecTopKError::Protocol(e) if rejected(e)), "open_session: {err:?}");
    assert_eq!(pool.active_sessions(), 0, "nobody was seated");
}
