//! The `wcms-serve` daemon: a crash-only adversarial-input service.
//!
//! Binds a TCP listener, recovers the job journal left by the previous
//! incarnation, then serves `generate`/`measure`/`grid`/`status`/
//! `health` until killed. There is deliberately no shutdown handling:
//! SIGKILL is the supported stop, and the journal + result cache are
//! the only state the next start trusts. Metrics surface through the
//! `status` request (a crash-only process has no exit hook to flush a
//! file from).
//!
//! Usage: `wcms-serve [--addr <host:port>] [--workers <n>] [--conn-workers <n>] [--queue-cap <n>]
//!                    [--conn-backlog <n>] [--cache-dir <dir>] [--journal-dir <dir>]
//!                    [--max-budget-ms <ms>] [--read-deadline-ms <ms>] [--write-deadline-ms <ms>]
//!                    [--est-job-ms <ms>] [--trace <journal.jsonl>]`
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the daemon prints
//! `listening on <resolved addr>` on stdout so scripts can scrape it.
//!
//! `--trace` appends span records to a JSONL journal *incrementally*
//! (a flusher thread drains the ring every 200 ms) — a crash-only
//! process has no exit hook, so whatever was flushed before SIGKILL is
//! the journal, and `wcms-trace join` reads it as-is.

use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::{CancelToken, WcmsError};
use wcms_obs::{journal_jsonl, Clock, Obs, RingCollector};
use wcms_serve::server::{serve, ServerConfig};

const CLI: Cli = Cli {
    name: "wcms-serve",
    flags: &[&[
        Flag::value("--addr", "host:port"),
        Flag::value("--workers", "n"),
        Flag::value("--conn-workers", "n"),
        Flag::value("--queue-cap", "n"),
        Flag::value("--conn-backlog", "n"),
        Flag::value("--cache-dir", "dir"),
        Flag::value("--journal-dir", "dir"),
        Flag::value("--max-budget-ms", "ms"),
        Flag::value("--read-deadline-ms", "ms"),
        Flag::value("--write-deadline-ms", "ms"),
        Flag::value("--est-job-ms", "ms"),
        Flag::value("--trace", "journal.jsonl"),
    ]],
};

fn main() -> ExitCode {
    cli::main(&CLI, run)
}

fn run(args: &Args) -> Result<(), WcmsError> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7433");
    let mut cfg = ServerConfig::new(
        args.value("--cache-dir").unwrap_or("state/serve/cache"),
        args.value("--journal-dir").unwrap_or("state/serve/journal"),
    );
    cfg.workers = args.get_or("--workers", cfg.workers)?;
    cfg.conn_workers = args.get_or("--conn-workers", cfg.conn_workers)?;
    cfg.queue_cap = args.get_or("--queue-cap", cfg.queue_cap)?;
    cfg.conn_backlog = args.get_or("--conn-backlog", cfg.conn_backlog)?;
    cfg.est_job_ms = args.get_or("--est-job-ms", cfg.est_job_ms)?;
    let millis = |flag, default: Duration| -> Result<Duration, WcmsError> {
        Ok(args.get(flag)?.map_or(default, Duration::from_millis))
    };
    cfg.max_budget = millis("--max-budget-ms", cfg.max_budget)?;
    cfg.read_deadline = millis("--read-deadline-ms", cfg.read_deadline)?;
    cfg.write_deadline = millis("--write-deadline-ms", cfg.write_deadline)?;

    if let Some(path) = args.value("--trace") {
        let ring = Arc::new(RingCollector::new());
        cfg.obs = Obs::with_recorder(ring.clone(), Clock::wall());
        // The epoch record is what lets `wcms-trace join` put this
        // journal on the same timeline as the workers'.
        cfg.obs.emit_epoch("serve");
        let mut file = std::fs::File::create(path)?;
        let obs = cfg.obs.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            let (records, dropped) = ring.drain();
            if dropped > 0 {
                obs.metrics.counter("obs_dropped_spans_total").add(dropped);
            }
            if !records.is_empty() || dropped > 0 {
                // Each batch is self-describing JSONL; a dropped-records
                // meta line per lossy batch sums on parse.
                if file.write_all(journal_jsonl(&records, dropped).as_bytes()).is_err() {
                    break; // disk gone: stop flushing, keep serving
                }
            }
        });
    }

    let listener = TcpListener::bind(addr)?;
    println!("listening on {}", listener.local_addr()?);
    // A daemon has no clean stop: the token below never fires, and the
    // journal + cache carry everything a SIGKILL interrupts.
    serve(&listener, cfg, &CancelToken::never())
}
