//! `sectopk-cli` — the S1 / data-owner side of the two-binary deployment (the S2 side
//! is `sectopk-s2d`, the only S2 listener).
//!
//! Subcommands:
//!
//! * `outsource` — generate keys and a synthetic relation deterministically from a
//!   seed and encrypt it, reporting the `Enc(λ, R)` setup cost.  Pure local work; the
//!   crypto cloud never sees plaintext data.
//! * `query` — run a top-k query end to end against a remote `sectopk-s2d` process:
//!   re-derive keys and relation from the seed, outsource, open a session over TCP
//!   (`DataOwner::connect_remote`), execute, and print the resolved results plus
//!   channel metrics.
//!
//! ```text
//! sectopk-s2d --listen 127.0.0.1:7171 &
//! sectopk-cli query --server 127.0.0.1:7171 --seed 7 --rows 8 --k 2
//! ```

// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{DataOwner, Query, QueryVariant, Session, VariantChoice};
use sectopk_datasets::{generate, DatasetKind, DatasetSpec};

const USAGE: &str = "usage: sectopk-cli <outsource|query> [options]\n\
    \n\
    outsource  --seed N [--rows N] [--attributes N] [--modulus-bits N] [--ehl-keys N]\n\
    query      --server HOST:PORT --seed N [--rows N] [--attributes N] [--k N]\n\
    \x20          [--query-attrs i,j,…] [--variant full|dupelim|auto]\n\
    \x20          [--modulus-bits N] [--ehl-keys N]\n\
    \n\
    Keys and data re-derive deterministically from --seed, so a query run is\n\
    reproducible and the S2 daemon needs no out-of-band key distribution.";

/// What the flags say.  The first five are the owner flags — the deterministic
/// owner-side world derived from one seed — which `outsource` and `query` share; the
/// rest belong to `query` alone.
#[derive(Debug, PartialEq)]
struct Flags {
    seed: u64,
    rows: usize,
    attributes: usize,
    modulus_bits: usize,
    ehl_keys: usize,
    server: String,
    k: usize,
    query_attrs: Option<Vec<usize>>,
    variant: VariantChoice,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: cannot read {value:?}"))
}

/// The one flag parser: every flag takes one value; `command` decides whether the
/// query-only flags are known.
fn parse_flags(command: &str, args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        seed: 7,
        rows: 8,
        attributes: 3,
        modulus_bits: 128,
        ehl_keys: 3,
        server: String::new(),
        k: 2,
        query_attrs: None,
        variant: VariantChoice::Fixed(QueryVariant::Full),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match (flag.as_str(), command) {
            ("--seed", _) => flags.seed = number(flag, value()?)?,
            ("--rows", _) => flags.rows = number(flag, value()?)?,
            ("--attributes", _) => flags.attributes = number(flag, value()?)?,
            ("--modulus-bits", _) => flags.modulus_bits = number(flag, value()?)?,
            ("--ehl-keys", _) => flags.ehl_keys = number(flag, value()?)?,
            ("--server", "query") => flags.server = value()?.clone(),
            ("--k", "query") => flags.k = number(flag, value()?)?,
            ("--query-attrs", "query") => {
                let attrs = value()?.split(',').map(|v| number(flag, v.trim()));
                flags.query_attrs = Some(attrs.collect::<Result<_, _>>()?);
            }
            ("--variant", "query") => {
                flags.variant = match value()?.as_str() {
                    "full" => VariantChoice::Fixed(QueryVariant::Full),
                    "dupelim" => VariantChoice::Fixed(QueryVariant::DupElim),
                    "auto" => VariantChoice::Auto,
                    other => return Err(format!("--variant: unknown variant {other:?}")),
                }
            }
            _ => return Err(format!("{command}: unknown flag {flag}")),
        }
    }
    if command == "query" && flags.server.is_empty() {
        return Err("query: --server HOST:PORT is required".into());
    }
    Ok(flags)
}

type World = (DataOwner, sectopk_core::Outsourced, sectopk_storage::EncryptionStats);

/// Derive owner keys, generate the synthetic relation, and outsource it — all
/// deterministic in the seed, so the `query` subcommand can re-create the exact
/// world the `outsource` subcommand described.
fn build_world(flags: &Flags) -> sectopk_core::Result<World> {
    let mut rng = StdRng::seed_from_u64(flags.seed);
    let owner = DataOwner::new(flags.modulus_bits, flags.ehl_keys, &mut rng)?;
    let spec = DatasetSpec {
        kind: DatasetKind::Synthetic,
        rows: flags.rows,
        attributes: flags.attributes,
    };
    let relation = generate(&spec, flags.seed);
    let (outsourced, stats) = owner.outsource(&relation, &mut rng)?;
    Ok((owner, outsourced, stats))
}

fn cmd_outsource(flags: &Flags) -> sectopk_core::Result<()> {
    let (_, _, stats) = build_world(flags)?;
    println!(
        "outsourced: objects={} attributes={} paillier_encryptions={} encrypted_bytes={}",
        stats.num_objects, stats.num_attributes, stats.paillier_encryptions, stats.encrypted_bytes
    );
    Ok(())
}

fn cmd_query(flags: &Flags) -> sectopk_core::Result<()> {
    let (owner, outsourced, _) = build_world(flags)?;
    eprintln!("connecting to S2 at {} …", flags.server);
    let mut session = owner.connect_remote(&outsourced, &flags.server, flags.seed)?;
    let attrs = flags
        .query_attrs
        .clone()
        .unwrap_or_else(|| (0..outsourced.num_attributes().min(3)).collect());
    let k = flags.k;
    let query = Query::top_k(k).attribute_indices(attrs.clone()).variant(flags.variant).build()?;
    let plan = session.plan(&query);
    eprintln!("executing top-{k} over attributes {attrs:?} as {} …", plan.variant_name());
    let resolved = session.execute(&query)?;
    for (rank, result) in resolved.results.iter().enumerate() {
        match result.object {
            Some(id) => {
                println!(
                    "#{rank}: object {} (score bounds [{}, {}])",
                    id.0, result.worst, result.best
                )
            }
            None => println!("#{rank}: neutralised placeholder"),
        }
    }
    let metrics = session.metrics();
    println!(
        "plan={} rounds={} bytes={} s2_ledger_events={}",
        resolved.plan().map_or("?", |p| p.variant_name()),
        metrics.rounds,
        metrics.bytes,
        session.s2_ledger().len()
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run: fn(&Flags) -> sectopk_core::Result<()> = match command.as_str() {
        "outsource" => cmd_outsource,
        "query" => cmd_query,
        "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let flags = match parse_flags(command, rest) {
        Ok(flags) => flags,
        Err(why) => {
            eprintln!("sectopk-cli {why}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sectopk-cli {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, line: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_flags(command, &args)
    }

    #[test]
    fn outsource_and_query_read_the_same_owner_flags() {
        let owner = "--seed 11 --rows 20 --attributes 4 --modulus-bits 256 --ehl-keys 5";
        let outsource = parse("outsource", owner).unwrap();
        let query = parse("query", &format!("{owner} --server 127.0.0.1:1")).unwrap();
        assert_eq!(
            (outsource.seed, outsource.rows, outsource.attributes),
            (11, 20, 4),
            "the flags were read, not defaulted"
        );
        assert_eq!((outsource.modulus_bits, outsource.ehl_keys), (256, 5));
        // Same world on both sides: the two differ in nothing but the server address.
        assert_eq!(Flags { server: String::new(), ..query }, outsource);
    }

    #[test]
    fn query_flags_are_parsed_and_belong_to_query_alone() {
        let line = "--server h:1 --k 3 --query-attrs 0,2 --variant auto";
        let flags = parse("query", line).unwrap();
        assert_eq!((flags.server.as_str(), flags.k), ("h:1", 3));
        assert_eq!(flags.query_attrs, Some(vec![0, 2]));
        assert_eq!(flags.variant, VariantChoice::Auto);
        for flag in ["--server h:1", "--k 3", "--query-attrs 0", "--variant auto"] {
            let err = parse("outsource", flag).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn a_modulus_too_wide_for_s1s_own_key_is_refused_at_outsource() {
        // Every query over a 993-bit N would need a 2050-bit own key for S1: refused at
        // key generation, before any prime search, instead of at every later query.
        let flags = parse("outsource", "--modulus-bits 993").unwrap();
        let Err(err) = build_world(&flags) else { panic!("a 993-bit modulus was accepted") };
        assert!(
            err.to_string().contains("993 bits is above the supported maximum of 992 bits"),
            "{err}"
        );
    }

    #[test]
    fn bad_command_lines_are_refused_with_the_reason() {
        let err = parse("outsource", "--frobnicate 1").unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        // Listener flags are `sectopk-s2d`'s, not this binary's.
        assert!(parse("query", "--server h:1 --listen 0.0.0.0:1").is_err());
        let err = parse("outsource", "--seed").unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
        let err = parse("query", "--server h:1 --rows many").unwrap_err();
        assert!(err.contains("--rows: cannot read"), "{err}");
        assert!(parse("query", "--server h:1 --query-attrs 0,x").is_err());
        assert!(parse("query", "--server h:1 --variant fastest").is_err());
        let err = parse("query", "--seed 3").unwrap_err();
        assert!(err.contains("--server HOST:PORT is required"), "{err}");
    }
}
