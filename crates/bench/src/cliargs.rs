//! The command-line surface of the sweep binaries: the flag rows their
//! [`Cli`](wcms_error::cli::Cli) tables are built from, and the conversion of the walked
//! arguments into a [`FigureArgs`].
//!
//! The figure binaries (`fig4`, `fig5`, `fig6`) take the table
//! [`FIGURE`]; `summary`, `karsin` and `merge` compose their own tables
//! from the same rows, and the ad-hoc tables (`esweep`,
//! `compare_sorts`, `ablation`) start from [`ADHOC`]:
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
//! The walk ([`wcms_error::cli`]) refuses any argument outside a
//! binary's table with a [`WcmsError::Usage`] naming it, before
//! [`parse_figure_args`] runs and so before the checkpoint store opens:
//! a mistyped `--resume` must not fall through to the fresh-run clear
//! below.
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

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wcms_error::cli::{Args, Flag};
use wcms_error::WcmsError;
use wcms_mergesort::{AlgorithmKind, BackendKind};
use wcms_obs::{Clock, Obs, RingCollector, TraceContext};

use crate::checkpoint::{CheckpointStore, SweepFingerprint};
use crate::experiment::SweepConfig;
use crate::figures::RANDOM_SEED;
use crate::resilient::ResilienceConfig;
use crate::shard::{RetryJitter, ShardPolicy, DEFAULT_LEASE_TTL};
use crate::supervisor::SweepOptions;

/// `[--quick|--standard|--full]`.
pub const GRID: &[Flag] =
    &[Flag::switch("--quick"), Flag::switch("--standard"), Flag::switch("--full")];
/// `--backend <sim|analytic|reference>`.
pub const BACKEND: Flag = Flag::value("--backend", "sim|analytic|reference");
/// `--algorithm <pairwise|multiway>`.
pub const ALGORITHM: Flag = Flag::value("--algorithm", "pairwise|multiway");
/// `--jobs <n>` ([`backend_algorithm_jobs`]).
pub const JOBS: Flag = Flag::value("--jobs", "n");
/// `--markdown`.
pub const MARKDOWN: Flag = Flag::switch("--markdown");
/// `--checkpoint-dir <dir>`.
pub const CHECKPOINT_DIR: Flag = Flag::value("--checkpoint-dir", "dir");
/// `--trace <path>`.
pub const TRACE: Flag = Flag::value("--trace", "path");
/// `--metrics <path>`.
pub const METRICS: Flag = Flag::value("--metrics", "path");
/// The per-cell policy and the checkpoint store.
pub const RESILIENCE: &[Flag] = &[
    Flag::switch("--resume"),
    Flag::value("--timeout", "secs"),
    Flag::value("--retries", "k"),
    CHECKPOINT_DIR,
    Flag::switch("--no-checkpoint"),
];
/// The trace journal, the caller's trace context, and the metrics
/// snapshot.
pub const OBSERVABILITY: &[Flag] = &[TRACE, Flag::value("--trace-parent", "t/s"), METRICS];
/// The multi-process shard modes ([`shard_from_args`]).
pub const SHARD: &[Flag] = &[
    Flag::value("--shard-index", "i"),
    Flag::value("--shard-count", "n"),
    Flag::switch("--steal"),
    Flag::value("--worker-id", "id"),
    Flag::value("--lease-ttl", "secs"),
    Flag::switch("--replay"),
];
/// The figure binaries' table rows.
pub const FIGURE: &[&[Flag]] =
    &[GRID, &[BACKEND, ALGORITHM, JOBS, MARKDOWN], RESILIENCE, OBSERVABILITY, SHARD];
/// The rows every ad-hoc table starts with.
pub const ADHOC: &[Flag] = &[Flag::switch("--quick"), BACKEND, ALGORITHM, JOBS];

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

fn bad(reason: String) -> WcmsError {
    WcmsError::Usage { reason }
}

/// Convert the walked `args` of the sweep binary `figure` into a
/// [`FigureArgs`] running under `shard` ([`shard_from_args`], or
/// [`ShardPolicy::Replay`] for `merge`). A flag outside the binary's
/// table reads as absent: the walk has refused it already.
///
/// # Errors
///
/// A [`WcmsError::Usage`] for a value that does not parse or a
/// combination of flags that means nothing. A `--resume` against a
/// foreign checkpoint directory is a [`WcmsError::CheckpointMismatch`];
/// checkpoint-directory failures are their underlying I/O error.
pub fn parse_figure_args(
    figure: &str,
    args: &Args,
    shard: ShardPolicy,
) -> Result<FigureArgs, WcmsError> {
    let sweep = grid(args);
    let (backend, algorithm, jobs) = backend_algorithm_jobs(args)?;

    let mut resilience = ResilienceConfig::none();
    if let Some(timeout) = seconds(args, "--timeout")? {
        resilience.timeout = Some(timeout);
        resilience.backoff = Duration::from_millis(100);
    }
    if let Some(k) = args.get("--retries")? {
        resilience.retries = k;
        if resilience.backoff.is_zero() {
            resilience.backoff = Duration::from_millis(100);
        }
    }

    let trace: Option<PathBuf> = args.get("--trace")?;
    let metrics: Option<PathBuf> = args.get("--metrics")?;
    let mut ring = None;
    if trace.is_some() {
        // Tracing implies metrics recording; both share one bundle.
        let collector = Arc::new(RingCollector::new());
        ring = Some(collector.clone());
        resilience.obs = Obs::with_recorder(collector, Clock::wall());
    } else if metrics.is_some() {
        resilience.obs = Obs::enabled(Clock::wall());
    }
    if let Some(parent) = args.value("--trace-parent") {
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
        if args.has("--no-checkpoint") {
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
    let resume = args.has("--resume") || !shard.is_off();
    if !args.has("--no-checkpoint") {
        // Namespace the default per backend: sim and analytic sweeps of
        // the same figure must never share (or clear) each other's cells.
        // The algorithm joins the namespace the same way — but pairwise
        // keeps the historical un-suffixed directory, so existing
        // pairwise checkpoints survive this flag's introduction.
        let dir = args.value("--checkpoint-dir").map(String::from).unwrap_or_else(|| {
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
        markdown: args.has("--markdown"),
        trace,
        metrics,
        ring,
    })
}

/// The sweep size the [`GRID`] switches select: `--quick`, then
/// `--full`, else `--standard`.
#[must_use]
pub fn grid(args: &Args) -> SweepConfig {
    if args.has("--quick") {
        SweepConfig::quick()
    } else if args.has("--full") {
        SweepConfig::full()
    } else {
        SweepConfig::standard()
    }
}

/// A positive number of seconds given to `flag`, if it was given.
fn seconds(args: &Args, flag: &str) -> Result<Option<Duration>, WcmsError> {
    let Some(secs) = args.get::<f64>(flag)? else { return Ok(None) };
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if !d.is_zero() => Ok(Some(d)),
        _ => Err(bad(format!("{flag} {secs}: must be positive"))),
    }
}

/// `--backend`, `--algorithm` and `--jobs` (defaults: sim, pairwise,
/// one worker — the sequential path). Shared by the figure binaries and
/// the ad-hoc tables, so the flags mean the same thing everywhere.
///
/// # Errors
///
/// Refuses an unknown backend or algorithm and a non-numeric or zero
/// worker count.
pub fn backend_algorithm_jobs(
    args: &Args,
) -> Result<(BackendKind, AlgorithmKind, usize), WcmsError> {
    let jobs: Option<NonZeroUsize> = args.get("--jobs")?;
    let algorithm = args.get("--algorithm")?.unwrap_or_default();
    Ok((args.get("--backend")?.unwrap_or_default(), algorithm, jobs.map_or(1, NonZeroUsize::get)))
}

/// The multi-process sharding mode: `--shard-index <i> --shard-count
/// <n>` (static), `--steal --worker-id <id> [--lease-ttl <secs>]`
/// (dynamic), or `--replay` (render from checkpoints only).
///
/// # Errors
///
/// Refuses mixed modes, a lone `--shard-index`/`--shard-count`, an
/// out-of-range index, `--steal` without a worker id, a non-positive
/// lease TTL, and `--worker-id`/`--lease-ttl` outside `--steal`.
pub fn shard_from_args(args: &Args) -> Result<ShardPolicy, WcmsError> {
    let steal = args.has("--steal");
    let replay = args.has("--replay");
    let static_mode = args.has("--shard-index") || args.has("--shard-count");
    if usize::from(steal) + usize::from(replay) + usize::from(static_mode) > 1 {
        return Err(bad(
            "--shard-index/--shard-count, --steal and --replay are mutually exclusive".into(),
        ));
    }
    if !steal {
        for flag in ["--worker-id", "--lease-ttl"] {
            if args.has(flag) {
                return Err(bad(format!("{flag} only makes sense with --steal")));
            }
        }
    }
    if replay {
        return Ok(ShardPolicy::Replay);
    }
    if steal {
        let worker = args.value("--worker-id").filter(|w| !w.is_empty()).ok_or_else(|| {
            bad("--steal requires --worker-id <id>: a stable, pid-independent worker \
                 name (lease ownership and jitter must survive restarts)"
                .into())
        })?;
        let ttl = seconds(args, "--lease-ttl")?.unwrap_or(DEFAULT_LEASE_TTL);
        return Ok(ShardPolicy::Steal { worker: worker.to_string(), ttl });
    }
    if static_mode {
        let (Some(index), Some(count)) = (args.get("--shard-index")?, args.get("--shard-count")?)
        else {
            return Err(bad("--shard-index and --shard-count must be given together".into()));
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CellResult, LoadOutcome};
    use wcms_error::cli::Cli;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_string()).collect()
    }

    /// Walk `xs` through the figure binaries' table, then convert.
    fn parse(xs: &[&str]) -> Result<FigureArgs, WcmsError> {
        let args = Cli { name: "figX", flags: FIGURE }.parse(strs(xs))?;
        parse_figure_args("figX", &args, shard_from_args(&args)?)
    }

    #[test]
    fn defaults_are_standard_sequential_and_checkpointed() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-{}", std::process::id()));
        let a = parse(&["--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
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
        let a =
            parse(&["--quick", "--no-checkpoint", "--timeout", "2.5", "--retries", "4"]).unwrap();
        assert_eq!(a.opts.resilience.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.opts.resilience.retries, 4);
        assert!(a.opts.resilience.checkpoint.is_none());
    }

    #[test]
    fn backend_flag_parses() {
        let a = parse(&["--no-checkpoint", "--backend", "analytic"]).unwrap();
        assert_eq!(a.backend(), BackendKind::Analytic);
        let err = parse(&["--no-checkpoint", "--backend", "gpu"]).unwrap_err();
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }

    #[test]
    fn algorithm_flag_parses() {
        let a = parse(&["--no-checkpoint"]).unwrap();
        assert_eq!(a.opts.algorithm, AlgorithmKind::Pairwise, "default is the paper's sort");
        let a = parse(&["--no-checkpoint", "--algorithm", "multiway"]).unwrap();
        assert_eq!(a.opts.algorithm, AlgorithmKind::Multiway);
        let err = parse(&["--no-checkpoint", "--algorithm", "bitonic"]).unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"), "{err}");
    }

    /// A checkpoint written under one algorithm refuses to resume under
    /// another, naming the differing field — multiway cells must never
    /// be stitched into a pairwise sweep.
    #[test]
    fn resume_across_algorithms_refuses_naming_the_field() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-algo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
        let err = parse(&[
            "--quick",
            "--resume",
            "--algorithm",
            "multiway",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "algorithm", .. }),
            "expected an algorithm mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let a = parse(&["--no-checkpoint", "--jobs", "4"]).unwrap();
        assert_eq!(a.opts.jobs, 4);
        for bad_args in [&["--no-checkpoint", "--jobs", "0"][..], &["--no-checkpoint", "--jobs"]] {
            let err = parse(bad_args).unwrap_err();
            assert!(err.to_string().contains("--jobs"), "{err}");
        }
        let jobs = |xs: &[&str]| {
            let args = Cli { name: "esweep", flags: &[ADHOC] }.parse(strs(xs)).unwrap();
            backend_algorithm_jobs(&args).map(|(_, _, jobs)| jobs)
        };
        assert_eq!(jobs(&["--jobs", "8"]).unwrap(), 8);
        assert_eq!(jobs(&[]).unwrap(), 1);
        assert!(matches!(jobs(&["--jobs", "x"]), Err(WcmsError::Usage { .. })));
    }

    #[test]
    fn trace_and_metrics_flags_enable_the_obs_bundle() {
        let a = parse(&["--no-checkpoint"]).unwrap();
        assert!(!a.obs().is_active(), "no flag: observability stays off");
        assert!(a.ring.is_none());

        let a = parse(&["--no-checkpoint", "--metrics", "/tmp/m.prom"]).unwrap();
        assert!(a.obs().is_active() && !a.obs().is_tracing(), "--metrics: metrics only");
        assert_eq!(a.metrics.as_deref(), Some(std::path::Path::new("/tmp/m.prom")));

        let a = parse(&["--no-checkpoint", "--trace", "/tmp/t.jsonl"]).unwrap();
        assert!(a.obs().is_tracing(), "--trace installs a recorder");
        assert!(a.obs().is_active(), "--trace implies metrics");
        assert!(a.ring.is_some());
    }

    #[test]
    fn trace_parent_adopts_the_wire_context_and_rejects_garbage() {
        let ctx = TraceContext::root(0xC0FFEE, "fleet-obs");
        let wire = ctx.encode();
        let a = parse(&["--no-checkpoint", "--trace", "/tmp/t.jsonl", "--trace-parent", &wire])
            .unwrap();
        let adopted = a.obs().context().expect("--trace-parent must set a context");
        assert_eq!(adopted.trace, ctx.trace);
        assert_eq!(adopted.span, ctx.span);

        // Even without --trace, the context is adopted (a metrics-only
        // worker still stamps leases it claims).
        let a = parse(&["--no-checkpoint", "--trace-parent", &wire]).unwrap();
        assert!(a.obs().context().is_some());

        let err = parse(&["--no-checkpoint", "--trace-parent", "not-a-context"]).unwrap_err();
        assert!(err.to_string().contains("--trace-parent"), "{err}");
    }

    #[test]
    fn bad_timeout_is_a_typed_error() {
        let err = parse(&["--no-checkpoint", "--timeout", "soon"]).unwrap_err();
        assert!(err.to_string().contains("--timeout"), "{err}");
        let err = parse(&["--no-checkpoint", "--timeout", "-1"]).unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");
    }

    #[test]
    fn resume_keeps_existing_cells() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-res-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Fresh run writes the manifest...
        let a = parse(&["--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
        let store = a.opts.resilience.checkpoint.as_ref().unwrap();
        store.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...a fresh re-run clears the cells...
        let a2 = parse(&["--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
        let store2 = a2.opts.resilience.checkpoint.as_ref().unwrap();
        assert_eq!(store2.load("cell"), LoadOutcome::Absent);
        store2.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...and a resumed run keeps them.
        let a3 = parse(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
        let store3 = a3.opts.resilience.checkpoint.as_ref().unwrap();
        assert!(matches!(store3.load("cell"), LoadOutcome::Cached(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A mistyped flag is refused before the store opens: without
    /// `--resume` the fresh-run clear would otherwise delete every cell
    /// of the sweep the user meant to resume.
    #[test]
    fn unknown_flag_is_refused_and_the_cells_survive() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-typo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ck = dir.to_str().unwrap();
        let a = parse(&["--quick", "--checkpoint-dir", ck]).unwrap();
        let store = a.opts.resilience.checkpoint.as_ref().unwrap();
        store.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();

        for typo in ["--resmue", "--quik", "resume"] {
            let err = parse(&["--quick", typo, "--checkpoint-dir", ck]).unwrap_err();
            assert!(matches!(err, WcmsError::Usage { .. }), "{typo}: {err}");
            assert!(err.to_string().contains(typo), "the error must name {typo}: {err}");
        }

        let resumed = parse(&["--quick", "--resume", "--checkpoint-dir", ck]).unwrap();
        let store = resumed.opts.resilience.checkpoint.as_ref().unwrap();
        assert!(matches!(store.load("cell"), LoadOutcome::Cached(_)), "a typo cleared the store");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every value flag consumes the token after it, so its value is
    /// never taken for an unknown flag; a value flag with nothing after
    /// it is refused.
    #[test]
    fn value_flags_consume_their_value_and_require_one() {
        let a = parse(&["--no-checkpoint", "--metrics", "m.prom", "--retries", "2"]).unwrap();
        assert_eq!(a.metrics.as_deref(), Some(std::path::Path::new("m.prom")));
        assert_eq!(a.opts.resilience.retries, 2);
        let err = parse(&["--no-checkpoint", "--metrics"]).unwrap_err();
        assert!(err.to_string().contains("--metrics"), "{err}");
    }

    #[test]
    fn resume_against_a_different_configuration_refuses() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-mis-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]).unwrap();
        // Same directory, resumed under a different grid → typed refusal.
        let err =
            parse(&["--full", "--resume", "--checkpoint-dir", dir.to_str().unwrap()]).unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "grid", .. }),
            "expected a grid mismatch, got {err}"
        );
        // And resuming a sim checkpoint as analytic also refuses.
        let err = parse(&[
            "--quick",
            "--resume",
            "--backend",
            "analytic",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "backend", .. }),
            "expected a backend mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ad-hoc tables walk their shared rows plus their own, and
    /// refuse every figure-only row.
    #[test]
    fn adhoc_tables_walk_the_shared_surface() {
        const ESWEEP: Cli = Cli { name: "esweep", flags: &[ADHOC, &[Flag::switch("--rtx")]] };
        let args = ESWEEP
            .parse(strs(&[
                "--quick",
                "--backend",
                "analytic",
                "--algorithm",
                "multiway",
                "--jobs",
                "3",
                "--rtx",
            ]))
            .unwrap();
        assert!(args.has("--quick") && args.has("--rtx"));
        assert_eq!(
            backend_algorithm_jobs(&args).unwrap(),
            (BackendKind::Analytic, AlgorithmKind::Multiway, 3)
        );

        let defaults = ESWEEP.parse(Vec::new()).unwrap();
        assert!(!defaults.has("--quick"));
        assert_eq!(
            backend_algorithm_jobs(&defaults).unwrap(),
            (BackendKind::Sim, AlgorithmKind::Pairwise, 1)
        );

        let args = ESWEEP.parse(strs(&["--algorithm", "quantum"])).unwrap();
        assert!(matches!(backend_algorithm_jobs(&args), Err(WcmsError::Usage { .. })));
        for flag in ["--markdown", "--steal", "--resume", "--rxt"] {
            let err = ESWEEP.parse(strs(&["--quick", flag])).unwrap_err();
            assert!(matches!(err, WcmsError::Usage { .. }) && err.to_string().contains(flag));
        }
        for flag in ["--shard-index", "--shard-count", "--checkpoint-dir"] {
            assert!(ESWEEP.parse(strs(&[flag, "1"])).is_err(), "{flag}");
        }
    }

    /// A row a binary's table leaves out reads as absent: karsin runs
    /// both algorithms, so it has no `--algorithm` row and its
    /// checkpoint directory never moves with one.
    #[test]
    fn a_table_without_a_row_refuses_it_and_reads_the_default() {
        let karsin = Cli { name: "karsin", flags: &[GRID, &[BACKEND, JOBS], RESILIENCE] };
        let err = karsin.parse(strs(&["--quick", "--algorithm", "multiway"])).unwrap_err();
        assert!(err.to_string().contains("--algorithm"), "{err}");
        let args = karsin.parse(strs(&["--quick", "--no-checkpoint"])).unwrap();
        let a = parse_figure_args("karsin", &args, ShardPolicy::Off).unwrap();
        assert_eq!(a.opts.algorithm, AlgorithmKind::Pairwise);
        assert!(!a.markdown);
    }

    /// Bad seconds are refused, never turned into a panic.
    #[test]
    fn out_of_range_seconds_are_usage_errors() {
        for secs in ["inf", "1e300", "-0.5", "0", "NaN"] {
            let err = parse(&["--no-checkpoint", "--timeout", secs]).unwrap_err();
            assert!(matches!(err, WcmsError::Usage { .. }), "--timeout {secs}: {err}");
            let err = parse(&["--steal", "--worker-id", "w", "--lease-ttl", secs]).unwrap_err();
            assert!(err.to_string().contains("--lease-ttl"), "{secs}: {err}");
        }
    }
}
