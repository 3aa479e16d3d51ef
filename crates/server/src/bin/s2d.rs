//! `sectopk-s2d` — the crypto cloud S2 as a standalone network daemon.
//!
//! Holds **no keys and no data** at startup: every accepted connection provisions its
//! own session engine over the handshake (the S2 key view travels from the client, as
//! the owner's setup hands S2 its decryption keys in Figure 1 of the paper), and all
//! sessions share one `MultiplexServer`: its session table and its `--workers` compute
//! permits.  A request runs on its connection's own thread, under one permit.
//!
//! ```text
//! sectopk-s2d --listen 127.0.0.1:7171 --workers 4
//! ```
//!
//! The bound address is printed on stdout (`listening on ADDR`) so scripts can grep
//! the resolved port when binding `:0`.
//!
//! A session whose connection drops is *parked* for `--park-ttl` seconds so the client
//! can resume it transparently (see `sectopk_protocols::tcp`); `--park-ttl 0` reaps
//! dropped sessions immediately.  No timer reaps an expired one: the next read of the
//! session table does (a hello, a resume or any session's request), so on an idle
//! daemon its engine is freed by the next connection, and `--max-sessions` bounds what
//! expired sessions can hold until then.
//!
//! With `--drain-on-stdin`, the daemon stops accepting connections when its stdin
//! reaches end-of-file, lets in-flight sessions finish (bounded by `--drain-grace`,
//! returning as soon as the last one has), and exits — the shape an orchestrator uses
//! for graceful rollouts.
//!
//! With `--metrics-period SECS`, the daemon enables the `sectopk-metrics` registry on
//! its pool and dumps a human-readable rendering of every counter and histogram to
//! stderr each period — request mix, replays, accepts/rejects/resumes, how long each
//! compute permit was held.  Metrics are off (zero-cost no-op handles) without the flag.

// Workspace invariants 1 + 2 (DESIGN.md §15): clippy.toml's reveals, clocks and ambient randomness.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Workspace invariant 3 (DESIGN.md §15): the request/reply path returns typed errors, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sectopk_metrics::Registry;
use sectopk_protocols::{MultiplexServer, PoolLimits, TcpCloudServer, DEFAULT_PARK_TTL};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sectopk-s2d [--listen ADDR] [--workers N] [--max-sessions N]\n\
         \x20                  [--park-ttl SECS] [--drain-on-stdin] [--drain-grace SECS]\n\
         \x20                  [--metrics-period SECS]\n\
         \n\
         --listen ADDR        address to bind (default 127.0.0.1:7171; port 0 = ephemeral)\n\
         --workers N          S2 requests that may execute at once (default 4)\n\
         --max-sessions N     admission cap on concurrent sessions, active + parked (default 1024)\n\
         --park-ttl SECS      how long a dropped session stays resumable (default 30; 0 = reap immediately)\n\
         --drain-on-stdin     stop accepting, finish in-flight sessions and exit when stdin hits EOF\n\
         --drain-grace SECS   how long --drain-on-stdin waits for live sessions (default 5)\n\
         --metrics-period SECS  enable metrics and dump the registry to stderr every SECS seconds"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut listen = String::from("127.0.0.1:7171");
    let mut workers = 4usize;
    let mut max_sessions = 1024usize;
    let mut park_ttl = DEFAULT_PARK_TTL.as_secs();
    let mut drain_on_stdin = false;
    let mut drain_grace = 5u64;
    let mut metrics_period = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                let Some(v) = args.next() else { return usage() };
                listen = v;
            }
            "--workers" => {
                let Some(Ok(n)) = args.next().map(|v| v.parse()) else { return usage() };
                workers = n;
            }
            "--max-sessions" => {
                let Some(Ok(n)) = args.next().map(|v| v.parse()) else { return usage() };
                max_sessions = n;
            }
            "--park-ttl" => {
                let Some(Ok(n)) = args.next().map(|v| v.parse()) else { return usage() };
                park_ttl = n;
            }
            "--drain-on-stdin" => drain_on_stdin = true,
            "--drain-grace" => {
                let Some(Ok(n)) = args.next().map(|v| v.parse()) else { return usage() };
                drain_grace = n;
            }
            "--metrics-period" => {
                let Some(Ok(n)) = args.next().map(|v| v.parse()) else { return usage() };
                metrics_period = n;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let registry = if metrics_period > 0 { Registry::enabled() } else { Registry::disabled() };
    let pool = Arc::new(MultiplexServer::with_limits_and_metrics(
        workers,
        PoolLimits { max_sessions },
        registry.clone(),
    ));
    if metrics_period > 0 {
        // Periodic observability dump: render every counter and histogram to stderr so
        // the daemon's stdout stays reserved for the scriptable `listening on` lines.
        let registry = registry.clone();
        let spawned = std::thread::Builder::new().name(String::from("sectopk-s2d-metrics")).spawn(
            move || loop {
                std::thread::sleep(Duration::from_secs(metrics_period));
                eprintln!("{}", registry.render());
            },
        );
        if let Err(e) = spawned {
            eprintln!("sectopk-s2d: cannot spawn metrics reporter: {e}");
            return ExitCode::FAILURE;
        }
    }
    let server = match TcpCloudServer::serve_pool(&listen, pool, Duration::from_secs(park_ttl)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("sectopk-s2d: binding {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("sectopk-s2d listening on {}", server.local_addr());
    // What runs, not what was asked: the pool clamps `--workers 0` / `--max-sessions 0` to 1.
    let (workers, max_sessions) = (server.pool().workers(), server.pool().limits().max_sessions);
    println!("workers={workers} max-sessions={max_sessions} park-ttl={park_ttl}s");
    let _ = std::io::stdout().flush();

    if drain_on_stdin {
        // Swallow stdin until the orchestrator closes it, then drain: new hellos are
        // answered with a typed retryable `Draining` reject, parked sessions are
        // reaped, and live sessions get `drain_grace` to finish before being severed.
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        println!("sectopk-s2d draining (grace {drain_grace}s)");
        let _ = std::io::stdout().flush();
        server.drain(Duration::from_secs(drain_grace));
        return ExitCode::SUCCESS;
    }

    // Serve until killed; all work happens on the accept and connection threads.
    loop {
        std::thread::park();
    }
}
