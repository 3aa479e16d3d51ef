//! `sectopk-cli` — the S1 / data-owner side of the two-binary deployment.
//!
//! Subcommands:
//!
//! * `outsource` — generate keys and a synthetic relation deterministically from a
//!   seed and encrypt it, reporting the `Enc(λ, R)` setup cost.  Pure local work; the
//!   crypto cloud never sees plaintext data.
//! * `query` — run a top-k query end to end against a remote `sectopk-s2d` process:
//!   re-derive keys and relation from the seed, outsource, open a
//!   [`sectopk_core::RemoteSession`] over TCP, execute, and print the resolved
//!   results plus channel metrics.
//! * `serve` — stand up the S2 listener in-process (same engine as `sectopk-s2d`),
//!   for single-binary deployments.
//!
//! ```text
//! sectopk-s2d --listen 127.0.0.1:7171 &
//! sectopk-cli query --server 127.0.0.1:7171 --seed 7 --rows 8 --k 2
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{DataOwner, Query, QueryVariant, Session, VariantChoice};
use sectopk_datasets::{generate, DatasetKind, DatasetSpec};
use sectopk_protocols::{MultiplexServer, PoolLimits, TcpCloudServer, TcpServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sectopk-cli <outsource|query|serve> [options]\n\
         \n\
         outsource  --seed N [--rows N] [--attributes N] [--modulus-bits N] [--ehl-keys N]\n\
         query      --server HOST:PORT --seed N [--rows N] [--attributes N] [--k N]\n\
         \x20          [--query-attrs i,j,…] [--variant full|dupelim|auto]\n\
         \x20          [--modulus-bits N] [--ehl-keys N]\n\
         serve      [--listen ADDR] [--workers N] [--max-sessions N]\n\
         \n\
         Keys and data re-derive deterministically from --seed, so a query run is\n\
         reproducible and the S2 daemon needs no out-of-band key distribution."
    );
    ExitCode::FAILURE
}

/// Everything the `outsource` and `query` subcommands share: the deterministic
/// owner-side world derived from one seed.
struct OwnerArgs {
    seed: u64,
    rows: usize,
    attributes: usize,
    modulus_bits: usize,
    ehl_keys: usize,
}

impl OwnerArgs {
    fn defaults() -> Self {
        OwnerArgs { seed: 7, rows: 8, attributes: 3, modulus_bits: 128, ehl_keys: 3 }
    }
}

fn parse_u64(args: &[String], i: usize) -> Option<u64> {
    args.get(i).and_then(|v| v.parse().ok())
}

fn parse_usize(args: &[String], i: usize) -> Option<usize> {
    args.get(i).and_then(|v| v.parse().ok())
}

fn cmd_outsource(args: &[String]) -> ExitCode {
    let mut owner_args = OwnerArgs::defaults();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--seed" => match parse_u64(args, i + 1) {
                Some(v) => {
                    owner_args.seed = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--rows" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.rows = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--attributes" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.attributes = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--modulus-bits" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.modulus_bits = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--ehl-keys" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.ehl_keys = v;
                    i += 2;
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (_, _, stats) = match build_world(&owner_args) {
        Ok(world) => world,
        Err(e) => {
            eprintln!("sectopk-cli outsource: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "outsourced: objects={} attributes={} paillier_encryptions={} encrypted_bytes={}",
        stats.num_objects, stats.num_attributes, stats.paillier_encryptions, stats.encrypted_bytes
    );
    ExitCode::SUCCESS
}

type World = (DataOwner, sectopk_core::Outsourced, sectopk_storage::EncryptionStats);

/// Derive owner keys, generate the synthetic relation, and outsource it — all
/// deterministic in the seed, so the `query` subcommand can re-create the exact
/// world the `outsource` subcommand described.
fn build_world(args: &OwnerArgs) -> sectopk_core::Result<World> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let owner = DataOwner::new(args.modulus_bits, args.ehl_keys, &mut rng)?;
    let spec =
        DatasetSpec { kind: DatasetKind::Synthetic, rows: args.rows, attributes: args.attributes };
    let relation = generate(&spec, args.seed);
    let (outsourced, stats) = owner.outsource(&relation, &mut rng)?;
    Ok((owner, outsourced, stats))
}

#[allow(clippy::too_many_lines)]
fn cmd_query(args: &[String]) -> ExitCode {
    let mut owner_args = OwnerArgs::defaults();
    let mut server = String::new();
    let mut k = 2usize;
    let mut query_attrs: Option<Vec<usize>> = None;
    let mut variant = VariantChoice::Fixed(QueryVariant::Full);
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--server" => match args.get(i + 1) {
                Some(v) => {
                    server = v.clone();
                    i += 2;
                }
                None => return usage(),
            },
            "--seed" => match parse_u64(args, i + 1) {
                Some(v) => {
                    owner_args.seed = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--rows" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.rows = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--attributes" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.attributes = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--modulus-bits" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.modulus_bits = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--ehl-keys" => match parse_usize(args, i + 1) {
                Some(v) => {
                    owner_args.ehl_keys = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--k" => match parse_usize(args, i + 1) {
                Some(v) => {
                    k = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--query-attrs" => match args.get(i + 1) {
                Some(list) => {
                    let parsed: Option<Vec<usize>> =
                        list.split(',').map(|v| v.trim().parse().ok()).collect();
                    let Some(parsed) = parsed else { return usage() };
                    query_attrs = Some(parsed);
                    i += 2;
                }
                None => return usage(),
            },
            "--variant" => match args.get(i + 1).map(String::as_str) {
                Some("full") => {
                    variant = VariantChoice::Fixed(QueryVariant::Full);
                    i += 2;
                }
                Some("dupelim") => {
                    variant = VariantChoice::Fixed(QueryVariant::DupElim);
                    i += 2;
                }
                Some("auto") => {
                    variant = VariantChoice::Auto;
                    i += 2;
                }
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    if server.is_empty() {
        eprintln!("sectopk-cli query: --server HOST:PORT is required");
        return usage();
    }

    let run = || -> sectopk_core::Result<()> {
        let (owner, outsourced, _) = build_world(&owner_args)?;
        eprintln!("connecting to S2 at {server} …");
        let mut session = owner.connect_remote(&outsourced, &server, owner_args.seed)?;
        let attrs =
            query_attrs.unwrap_or_else(|| (0..outsourced.num_attributes().min(3)).collect());
        let query = Query::top_k(k).attribute_indices(attrs.clone()).variant(variant).build()?;
        let plan = session.plan(&query);
        eprintln!("executing top-{k} over attributes {attrs:?} as {} …", plan.variant_name());
        let resolved = session.execute(&query)?;
        for (rank, result) in resolved.results.iter().enumerate() {
            match result.object {
                Some(id) => println!(
                    "#{rank}: object {} (score bounds [{}, {}])",
                    id.0, result.worst, result.best
                ),
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
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sectopk-cli query: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut listen = String::from("127.0.0.1:7171");
    let mut workers = 4usize;
    let mut max_sessions = 1024usize;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--listen" => match args.get(i + 1) {
                Some(v) => {
                    listen = v.clone();
                    i += 2;
                }
                None => return usage(),
            },
            "--workers" => match parse_usize(args, i + 1) {
                Some(v) => {
                    workers = v;
                    i += 2;
                }
                None => return usage(),
            },
            "--max-sessions" => match parse_usize(args, i + 1) {
                Some(v) => {
                    max_sessions = v;
                    i += 2;
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let limits = PoolLimits { max_sessions, ..PoolLimits::default() };
    let pool = Arc::new(MultiplexServer::with_limits(workers, limits));
    let server = match TcpCloudServer::serve_pool(&listen, pool, TcpServerConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sectopk-cli serve: binding {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("sectopk-cli serving S2 on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else { return usage() };
    match command.as_str() {
        "outsource" => cmd_outsource(rest),
        "query" => cmd_query(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
