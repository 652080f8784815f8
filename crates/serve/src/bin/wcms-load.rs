//! `wcms-load` — open-loop load generator and protocol probe for
//! `wcms-serve`.
//!
//! Load mode (default): offer a fixed arrival rate for a fixed
//! duration, then print the `BENCH_serve.json` document (and write it
//! with `--out`). The run fails if the daemon is unreachable; shed and
//! errored calls are counted in the report, not fatal.
//!
//! Probe mode: `--probe '<request json>'` sends exactly one request and
//! prints the raw response payload to stdout — the chaos harness uses
//! this for byte-identity comparisons across daemon restarts.
//!
//! Scrape mode: `--scrape` asks the daemon for its metrics frame and
//! prints the Prometheus text rendering to stdout.
//!
//! The two probe modes read only `--addr` and `--deadline-ms`; any
//! other flag with them is refused before the first connection.
//!
//! Usage: `wcms-load --addr <host:port> [--rps <r>] [--duration-s <s>] [--connections <n>]
//!                   [--distinct <k>] [--w <w>] [--e <e>] [--b <b>] [--n <len>]
//!                   [--deadline-ms <ms>] [--seed <s>] [--out <path>] [--probe <json>] [--scrape]`

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::WcmsError;
use wcms_obs::MetricsRegistry;
use wcms_serve::load::{run_load, scrape_metrics, Client, LoadOptions};
use wcms_serve::wire::Tuning;

const CLI: Cli = Cli {
    name: "wcms-load",
    flags: &[&[
        Flag::value("--addr", "host:port").required(),
        Flag::value("--rps", "r"),
        Flag::value("--duration-s", "s"),
        Flag::value("--connections", "n"),
        Flag::value("--distinct", "k"),
        Flag::value("--w", "w"),
        Flag::value("--e", "e"),
        Flag::value("--b", "b"),
        Flag::value("--n", "len"),
        Flag::value("--deadline-ms", "ms"),
        Flag::value("--seed", "s"),
        Flag::value("--out", "path"),
        Flag::value("--probe", "json"),
        Flag::switch("--scrape"),
    ]],
};

fn main() -> ExitCode {
    cli::main(&CLI, run)
}

fn run(args: &Args) -> Result<(), WcmsError> {
    if let Some(mode) = ["--probe", "--scrape"].into_iter().find(|mode| args.has(mode)) {
        args.only(mode, &["--addr", "--deadline-ms"])?;
    }
    let addr = args.value("--addr").unwrap_or_default();
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| e.to_string())
        .and_then(|mut found| found.next().ok_or_else(|| "resolves to nothing".to_string()));
    let addr: SocketAddr =
        resolved.map_err(|why| WcmsError::Usage { reason: format!("--addr {addr}: {why}") })?;
    // Every value is checked before the first call.
    let deadline = Duration::from_millis(args.get_or("--deadline-ms", 10_000)?);
    let defaults = LoadOptions::default();
    let w = args.get_or("--w", defaults.tuning.w)?;
    let e = args.get_or("--e", defaults.tuning.e)?;
    let b = args.get_or("--b", defaults.tuning.b)?;
    let opts = LoadOptions {
        rate_rps: args.get_or("--rps", defaults.rate_rps)?,
        duration: Duration::try_from_secs_f64(args.get_or("--duration-s", 5.0)?)
            .map_err(|e| WcmsError::Usage { reason: format!("--duration-s: {e}") })?,
        connections: args.get_or("--connections", defaults.connections)?,
        distinct: args.get_or("--distinct", defaults.distinct)?,
        tuning: Tuning { w, e, b },
        n: args.get_or("--n", b * e * 2)?,
        call_deadline: deadline,
        run_seed: args.get_or("--seed", defaults.run_seed)?,
    };

    if let Some(request) = args.value("--probe") {
        let mut client = Client::connect(addr, deadline)?;
        println!("{}", client.call_text(request)?);
        return Ok(());
    }
    if args.has("--scrape") {
        print!("{}", scrape_metrics(addr, deadline)?);
        return Ok(());
    }

    let metrics = MetricsRegistry::new();
    let report = run_load(addr, &opts, &metrics)?;
    let json = report.to_json();
    println!("{json}");
    eprintln!(
        "# {} ok / {} sent at {:.1} jobs/s; p50 {:.2} ms, p99 {:.2} ms; \
         cache cold {:.2} ms vs warm {:.2} ms ({:.0}x)",
        report.ok,
        report.sent,
        report.achieved_rps,
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.cold_ms,
        report.warm_ms,
        report.cache_speedup,
    );
    if let Some(path) = args.value("--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    Ok(())
}
