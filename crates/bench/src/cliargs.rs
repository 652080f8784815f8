//! Shared command-line parsing for the figure binaries.
//!
//! Every figure runner accepts the same resilience surface:
//!
//! ```text
//! [--quick|--standard|--full]   sweep size (default --standard)
//! [--backend <sim|analytic|reference>]  execution backend (default sim)
//! [--algorithm <pairwise|multiway>]     sort algorithm (default pairwise)
//! [--jobs <n>]                  worker threads for the sweep (default 1)
//! [--markdown]                  markdown tables instead of CSV
//! [--resume]                    reuse checkpointed cells from a prior run
//! [--timeout <secs>]            per-cell wall-clock budget
//! [--retries <k>]               extra attempts per failed/timed-out cell
//! [--checkpoint-dir <dir>]      override results/.checkpoint/<figure>/<backend>
//! [--no-checkpoint]             disable checkpointing entirely
//! [--trace <path>]              write a JSONL span/event journal of the run
//! [--trace-parent <t/s>]        adopt a caller's trace context (wire form)
//! [--metrics <path>]            write a Prometheus text metrics snapshot
//! [--shard-index <i>]           static sharding: run cells i, i+count, …
//! [--shard-count <n>]           …of an n-way split of the grid
//! [--steal]                     dynamic work stealing over the shared store
//! [--worker-id <id>]            stable worker name for --steal (required)
//! [--lease-ttl <secs>]          steal leases after this long (default 30)
//! [--replay]                    render entirely from checkpointed cells
//! ```
//!
//! The shard modes (`--shard-index/--shard-count`, `--steal`,
//! `--replay`) make n independent *processes* cooperate on one grid
//! through a shared checkpoint directory; they imply `--resume` (a
//! fresh-run clear would wipe the other workers' cells), require
//! checkpointing, and turn metrics recording on so each shard can
//! export its counters for the `merge` step.
//!
//! Checkpoints are written on every run (they are tiny), so `--resume`
//! on the next invocation picks up whatever a killed sweep finished.
//! Without `--resume` the figure's checkpoint directory is cleared
//! first — stale cells from an older configuration must not leak in.
//! The directory carries a manifest fingerprinting the configuration
//! that wrote it (figure, backend, grid, seed, schema); `--resume`
//! validates the manifest and refuses with a
//! [`WcmsError::CheckpointMismatch`] rather than stitch foreign cells
//! into the sweep. (`--jobs` is deliberately *not* in the fingerprint:
//! the worker count changes scheduling, never results, so resuming a
//! `--jobs 1` sweep with `--jobs 8` is fine.)

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wcms_error::WcmsError;
use wcms_mergesort::{AlgorithmKind, BackendKind};
use wcms_obs::{Clock, Obs, RingCollector, TraceContext};

use crate::checkpoint::{CheckpointStore, SweepFingerprint};
use crate::experiment::SweepConfig;
use crate::figures::RANDOM_SEED;
use crate::resilient::ResilienceConfig;
use crate::shard::{RetryJitter, ShardPolicy, DEFAULT_LEASE_TTL};
use crate::supervisor::SweepOptions;

/// Parsed figure-binary arguments.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// How to run the sweep: grid, per-cell policy, backend, workers.
    pub opts: SweepOptions,
    /// Render markdown instead of CSV.
    pub markdown: bool,
    /// `--trace`: where to write the JSONL span/event journal.
    pub(crate) trace: Option<PathBuf>,
    /// `--metrics`: where to write the Prometheus text snapshot.
    pub(crate) metrics: Option<PathBuf>,
    /// The trace ring the sweep's recorder fills (present iff `--trace`).
    ring: Option<Arc<RingCollector>>,
}

impl FigureArgs {
    /// The execution backend (shorthand for `opts.backend`).
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.opts.backend
    }

    /// The sweep's observability bundle (shorthand for
    /// `opts.resilience.obs`).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.opts.resilience.obs
    }

    /// Flush the `--trace` journal and `--metrics` snapshot to their
    /// paths. The panel scaffolding calls this once, after the last
    /// panel rendered; without either flag it is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when an output path cannot be
    /// written.
    pub fn export_observability(&self) -> Result<(), WcmsError> {
        if let (Some(path), Some(ring)) = (&self.trace, &self.ring) {
            let (records, dropped) = ring.drain();
            if dropped > 0 {
                // Count the loss *before* the metrics snapshot renders,
                // so `obs_dropped_spans_total` and the journal's
                // dropped-records meta line always agree.
                self.obs().metrics.counter("obs_dropped_spans_total").add(dropped);
            }
            std::fs::write(path, wcms_obs::journal_jsonl(&records, dropped))?;
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, self.obs().metrics.prometheus_text())?;
        }
        Ok(())
    }
}

fn bad(msg: String) -> WcmsError {
    WcmsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

/// Parse `args` (without the program name) for the figure `figure`.
///
/// # Errors
///
/// Argument errors are reported as `Io(InvalidInput)` with the message;
/// a `--resume` against a foreign checkpoint directory as
/// [`WcmsError::CheckpointMismatch`]; checkpoint-directory failures as
/// their underlying I/O error.
pub fn parse_figure_args(figure: &str, args: &[String]) -> Result<FigureArgs, WcmsError> {
    let sweep = if args.iter().any(|a| a == "--quick") {
        SweepConfig::quick()
    } else if args.iter().any(|a| a == "--full") {
        SweepConfig::full()
    } else {
        SweepConfig::standard()
    };
    let value_of = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };

    let backend = backend_from_args(args)?;
    let algorithm = algorithm_from_args(args)?;
    let jobs = jobs_from_args(args)?;
    let shard = shard_from_args(args)?;

    let mut resilience = ResilienceConfig::none();
    if let Some(secs) = value_of("--timeout") {
        let secs: f64 = secs.parse().map_err(|_| bad(format!("--timeout {secs}: not a number")))?;
        if secs.is_nan() || secs <= 0.0 {
            return Err(bad(format!("--timeout {secs}: must be positive")));
        }
        resilience.timeout = Some(Duration::from_secs_f64(secs));
        resilience.backoff = Duration::from_millis(100);
    }
    if let Some(k) = value_of("--retries") {
        resilience.retries = k.parse().map_err(|_| bad(format!("--retries {k}: not a count")))?;
        if resilience.backoff.is_zero() {
            resilience.backoff = Duration::from_millis(100);
        }
    }

    let trace = value_of("--trace").map(PathBuf::from);
    let metrics = value_of("--metrics").map(PathBuf::from);
    let mut ring = None;
    if trace.is_some() {
        // Tracing implies metrics recording; both share one bundle.
        let collector = Arc::new(RingCollector::new());
        ring = Some(collector.clone());
        resilience.obs = Obs::with_recorder(collector, Clock::wall());
    } else if metrics.is_some() {
        resilience.obs = Obs::enabled(Clock::wall());
    }
    if let Some(parent) = value_of("--trace-parent") {
        // A daemon (or a wrapping script) hands its context to the
        // worker here; the sweep span then parents to the caller's
        // span and the whole fleet joins into one causal tree.
        let ctx = TraceContext::decode(parent)
            .map_err(|e| bad(format!("--trace-parent {parent}: {e}")))?;
        resilience.obs = resilience.obs.with_context(ctx);
    }
    if ring.is_some() {
        // The epoch record anchors this journal's monotonic timestamps
        // to wall time, so `wcms-trace join` can align it with the
        // other processes' journals.
        let process =
            shard.worker_label().map_or_else(|| figure.to_string(), |w| format!("{figure}/{w}"));
        resilience.obs.emit_epoch(&process);
    }

    if !shard.is_off() {
        if args.iter().any(|a| a == "--no-checkpoint") {
            return Err(bad(
                "--no-checkpoint: shard modes coordinate through the checkpoint store".into(),
            ));
        }
        // Per-shard metrics are the merge step's input — always record
        // them in shard mode, even without --metrics/--trace.
        if !resilience.obs.is_active() {
            resilience.obs = Obs::enabled(Clock::wall());
        }
        // Co-scheduled workers retrying the same flaky cell must not
        // synchronize; jitter streams key on the pid-independent
        // worker label, so any one worker still replays exactly.
        if let Some(stream) = shard.worker_label() {
            resilience.jitter = Some(RetryJitter { seed: RANDOM_SEED, stream });
        }
    }
    // Shard modes imply --resume: the store is shared, and a fresh-run
    // clear() here would destroy cells the other workers committed.
    let resume = args.iter().any(|a| a == "--resume") || !shard.is_off();
    if !args.iter().any(|a| a == "--no-checkpoint") {
        // Namespace the default per backend: sim and analytic sweeps of
        // the same figure must never share (or clear) each other's cells.
        // The algorithm joins the namespace the same way — but pairwise
        // keeps the historical un-suffixed directory, so existing
        // pairwise checkpoints survive this flag's introduction.
        let dir = value_of("--checkpoint-dir").map(String::from).unwrap_or_else(|| {
            if algorithm == AlgorithmKind::Pairwise {
                format!("results/.checkpoint/{figure}/{backend}")
            } else {
                format!("results/.checkpoint/{figure}/{backend}-{algorithm}")
            }
        });
        let fingerprint = SweepFingerprint {
            figure: figure.to_string(),
            backend: backend.name().to_string(),
            algorithm: algorithm.name().to_string(),
            min_doublings: sweep.min_doublings,
            max_doublings: sweep.max_doublings,
            runs: sweep.runs,
            seed: RANDOM_SEED,
        };
        resilience.checkpoint = Some(CheckpointStore::open_for(dir, &fingerprint, resume)?);
    }

    Ok(FigureArgs {
        opts: SweepOptions { sweep, resilience, backend, algorithm, jobs, shard },
        markdown: args.iter().any(|a| a == "--markdown"),
        trace,
        metrics,
        ring,
    })
}

/// Parse `--backend <sim|analytic|reference>` from a raw argument list.
/// The ad-hoc binaries (`esweep`, `ablation`, `compare_sorts`, `karsin`)
/// share this one parser with [`parse_figure_args`], so the flag means
/// the same thing everywhere.
///
/// # Errors
///
/// Returns the [`BackendKind`] parse error for an unknown backend name.
pub(crate) fn backend_from_args(args: &[String]) -> Result<BackendKind, WcmsError> {
    match args.iter().position(|a| a == "--backend").and_then(|i| args.get(i + 1)) {
        Some(name) => name.parse(),
        None => Ok(BackendKind::default()),
    }
}

/// Parse `--algorithm <pairwise|multiway>` from a raw argument list
/// (default pairwise — the paper's sort). Shared by the figure binaries
/// and the ad-hoc sweeps, so the flag means the same thing everywhere.
///
/// # Errors
///
/// Returns the [`AlgorithmKind`] parse error for an unknown algorithm
/// name.
pub(crate) fn algorithm_from_args(args: &[String]) -> Result<AlgorithmKind, WcmsError> {
    match args.iter().position(|a| a == "--algorithm").and_then(|i| args.get(i + 1)) {
        Some(name) => name.parse(),
        None => Ok(AlgorithmKind::default()),
    }
}

/// Parse `--jobs <n>` from a raw argument list (default 1 — the
/// sequential path). Shared by the figure binaries and the ad-hoc
/// sweeps, so the flag means the same thing everywhere.
///
/// # Errors
///
/// Rejects a missing, non-numeric or zero worker count.
pub(crate) fn jobs_from_args(args: &[String]) -> Result<usize, WcmsError> {
    match args.iter().position(|a| a == "--jobs").and_then(|i| args.get(i + 1)) {
        Some(n) => {
            let jobs: usize =
                n.parse().map_err(|_| bad(format!("--jobs {n}: not a worker count")))?;
            if jobs == 0 {
                return Err(bad("--jobs 0: need at least one worker".into()));
            }
            Ok(jobs)
        }
        None => {
            if args.iter().any(|a| a == "--jobs") {
                return Err(bad("--jobs: missing worker count".into()));
            }
            Ok(1)
        }
    }
}

/// Parse the multi-process sharding flags from a raw argument list:
/// `--shard-index <i> --shard-count <n>` (static), `--steal
/// --worker-id <id> [--lease-ttl <secs>]` (dynamic), or `--replay`
/// (render from checkpoints only). Shared by the figure binaries and
/// the ad-hoc sweeps, so the flags mean the same thing everywhere.
///
/// # Errors
///
/// Rejects mixed modes, a lone `--shard-index`/`--shard-count`, an
/// out-of-range index, `--steal` without a worker id, a non-positive
/// lease TTL, and `--worker-id`/`--lease-ttl` outside `--steal`.
pub(crate) fn shard_from_args(args: &[String]) -> Result<ShardPolicy, WcmsError> {
    let value_of = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let steal = args.iter().any(|a| a == "--steal");
    let replay = args.iter().any(|a| a == "--replay");
    let static_mode =
        args.iter().any(|a| a == "--shard-index") || args.iter().any(|a| a == "--shard-count");
    if usize::from(steal) + usize::from(replay) + usize::from(static_mode) > 1 {
        return Err(bad(
            "--shard-index/--shard-count, --steal and --replay are mutually exclusive".into(),
        ));
    }
    if !steal {
        for flag in ["--worker-id", "--lease-ttl"] {
            if args.iter().any(|a| a == flag) {
                return Err(bad(format!("{flag} only makes sense with --steal")));
            }
        }
    }
    if replay {
        return Ok(ShardPolicy::Replay);
    }
    if steal {
        let worker = value_of("--worker-id")
            .ok_or_else(|| {
                bad("--steal requires --worker-id <id>: a stable, pid-independent worker \
                     name (lease ownership and jitter must survive restarts)"
                    .into())
            })?
            .to_string();
        if worker.is_empty() || worker.starts_with("--") {
            return Err(bad(format!("--worker-id {worker}: not a worker name")));
        }
        let ttl = match value_of("--lease-ttl") {
            None => DEFAULT_LEASE_TTL,
            Some(s) => {
                let secs: f64 =
                    s.parse().map_err(|_| bad(format!("--lease-ttl {s}: not a number")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(bad(format!("--lease-ttl {s}: must be positive")));
                }
                Duration::from_secs_f64(secs)
            }
        };
        return Ok(ShardPolicy::Steal { worker, ttl });
    }
    if static_mode {
        let (Some(i), Some(c)) = (value_of("--shard-index"), value_of("--shard-count")) else {
            return Err(bad("--shard-index and --shard-count must be given together".into()));
        };
        let index: usize =
            i.parse().map_err(|_| bad(format!("--shard-index {i}: not an index")))?;
        let count: usize = c.parse().map_err(|_| bad(format!("--shard-count {c}: not a count")))?;
        if count == 0 {
            return Err(bad("--shard-count 0: need at least one shard".into()));
        }
        if index >= count {
            return Err(bad(format!(
                "--shard-index {index}: out of range for --shard-count {count}"
            )));
        }
        return Ok(ShardPolicy::Static { index, count });
    }
    Ok(ShardPolicy::Off)
}

/// [`parse_figure_args`] over the process arguments.
///
/// # Errors
///
/// Same conditions as [`parse_figure_args`].
pub fn figure_args_from_env(figure: &str) -> Result<FigureArgs, WcmsError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_figure_args(figure, &args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CellResult, LoadOutcome};

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_are_standard_sequential_and_checkpointed() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-{}", std::process::id()));
        let a =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        assert_eq!(a.opts.sweep.max_doublings, SweepConfig::standard().max_doublings);
        assert_eq!(a.backend(), BackendKind::Sim);
        assert_eq!(a.opts.jobs, 1);
        assert!(!a.markdown);
        assert!(a.opts.resilience.timeout.is_none());
        assert!(a.opts.resilience.checkpoint.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeout_and_retries_parse() {
        let a = parse_figure_args(
            "figX",
            &strs(&["--quick", "--no-checkpoint", "--timeout", "2.5", "--retries", "4"]),
        )
        .unwrap();
        assert_eq!(a.opts.resilience.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.opts.resilience.retries, 4);
        assert!(a.opts.resilience.checkpoint.is_none());
    }

    #[test]
    fn backend_flag_parses() {
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--backend", "analytic"]))
            .unwrap();
        assert_eq!(a.backend(), BackendKind::Analytic);
        let err =
            parse_figure_args("figX", &strs(&["--no-checkpoint", "--backend", "gpu"])).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }

    #[test]
    fn algorithm_flag_parses() {
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint"])).unwrap();
        assert_eq!(a.opts.algorithm, AlgorithmKind::Pairwise, "default is the paper's sort");
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--algorithm", "multiway"]))
            .unwrap();
        assert_eq!(a.opts.algorithm, AlgorithmKind::Multiway);
        let err = parse_figure_args("figX", &strs(&["--no-checkpoint", "--algorithm", "bitonic"]))
            .unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"), "{err}");
    }

    /// A checkpoint written under one algorithm refuses to resume under
    /// another, naming the differing field — multiway cells must never
    /// be stitched into a pairwise sweep.
    #[test]
    fn resume_across_algorithms_refuses_naming_the_field() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-algo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse_figure_args(
            "figX",
            &strs(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        let err = parse_figure_args(
            "figX",
            &strs(&[
                "--quick",
                "--resume",
                "--algorithm",
                "multiway",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
            ]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "algorithm", .. }),
            "expected an algorithm mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--jobs", "4"])).unwrap();
        assert_eq!(a.opts.jobs, 4);
        for bad_args in [&["--no-checkpoint", "--jobs", "0"][..], &["--no-checkpoint", "--jobs"]] {
            let err = parse_figure_args("figX", &strs(bad_args)).unwrap_err();
            assert!(err.to_string().contains("--jobs"), "{err}");
        }
        assert_eq!(jobs_from_args(&strs(&["--jobs", "8"])).unwrap(), 8);
        assert_eq!(jobs_from_args(&strs(&[])).unwrap(), 1);
    }

    #[test]
    fn trace_and_metrics_flags_enable_the_obs_bundle() {
        let base = strs(&["--no-checkpoint"]);
        let a = parse_figure_args("figX", &base).unwrap();
        assert!(!a.obs().is_active(), "no flag: observability stays off");
        assert!(a.ring.is_none());

        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--metrics", "/tmp/m.prom"]))
            .unwrap();
        assert!(a.obs().is_active() && !a.obs().is_tracing(), "--metrics: metrics only");
        assert_eq!(a.metrics.as_deref(), Some(std::path::Path::new("/tmp/m.prom")));

        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--trace", "/tmp/t.jsonl"]))
            .unwrap();
        assert!(a.obs().is_tracing(), "--trace installs a recorder");
        assert!(a.obs().is_active(), "--trace implies metrics");
        assert!(a.ring.is_some());
    }

    #[test]
    fn trace_parent_adopts_the_wire_context_and_rejects_garbage() {
        let ctx = TraceContext::root(0xC0FFEE, "fleet-obs");
        let wire = ctx.encode();
        let a = parse_figure_args(
            "figX",
            &strs(&["--no-checkpoint", "--trace", "/tmp/t.jsonl", "--trace-parent", &wire]),
        )
        .unwrap();
        let adopted = a.obs().context().expect("--trace-parent must set a context");
        assert_eq!(adopted.trace, ctx.trace);
        assert_eq!(adopted.span, ctx.span);

        // Even without --trace, the context is adopted (a metrics-only
        // worker still stamps leases it claims).
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--trace-parent", &wire]))
            .unwrap();
        assert!(a.obs().context().is_some());

        let err = parse_figure_args(
            "figX",
            &strs(&["--no-checkpoint", "--trace-parent", "not-a-context"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--trace-parent"), "{err}");
    }

    #[test]
    fn bad_timeout_is_a_typed_error() {
        let err = parse_figure_args("figX", &strs(&["--no-checkpoint", "--timeout", "soon"]))
            .unwrap_err();
        assert!(err.to_string().contains("--timeout"), "{err}");
        let err =
            parse_figure_args("figX", &strs(&["--no-checkpoint", "--timeout", "-1"])).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn resume_keeps_existing_cells() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-res-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Fresh run writes the manifest...
        let a =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        let store = a.opts.resilience.checkpoint.as_ref().unwrap();
        store.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...a fresh re-run clears the cells...
        let a2 =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        let store2 = a2.opts.resilience.checkpoint.as_ref().unwrap();
        assert_eq!(store2.load("cell"), LoadOutcome::Absent);
        store2.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...and a resumed run keeps them.
        let a3 = parse_figure_args(
            "figX",
            &strs(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        let store3 = a3.opts.resilience.checkpoint.as_ref().unwrap();
        assert!(matches!(store3.load("cell"), LoadOutcome::Cached(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_against_a_different_configuration_refuses() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-mis-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse_figure_args(
            "figX",
            &strs(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        // Same directory, resumed under a different grid → typed refusal.
        let err = parse_figure_args(
            "figX",
            &strs(&["--full", "--resume", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "grid", .. }),
            "expected a grid mismatch, got {err}"
        );
        // And resuming a sim checkpoint as analytic also refuses.
        let err = parse_figure_args(
            "figX",
            &strs(&[
                "--quick",
                "--resume",
                "--backend",
                "analytic",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
            ]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "backend", .. }),
            "expected a backend mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
