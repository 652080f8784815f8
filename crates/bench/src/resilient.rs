//! Fault-tolerant sweep execution: per-cell wall-clock budgets enforced
//! through cooperative cancellation, panic isolation, bounded retry
//! with exponential backoff, skip-and-report, and checkpoint/resume.
//!
//! Long sweeps die for boring reasons — one pathological cell hangs, a
//! node gets preempted, a kernel rejects a corrupted input, a bug
//! panics. The figure runners route every cell through [`run_cell`],
//! which turns all of those into one durable [`CellResult`]: a measured
//! value (`Done`/`Demoted`) or a `Skipped` gap with the reason
//! attached. Either outcome is checkpointed, so a re-run with
//! `--resume` replays finished cells from disk and only computes what
//! is missing.
//!
//! Timeouts are enforced *cooperatively*: each attempt gets a
//! [`CancelToken`] that the execution backends poll at work-unit
//! boundaries. On budget expiry the supervisor fires the token and
//! waits a grace period for the worker to unwind and join — the old
//! detach-and-abandon behaviour (which leaked one live thread per
//! timed-out cell, still burning a core on the abandoned sort) survives
//! only as a last resort for a worker that ignores its token, and is
//! reported in [`CellOutcome::leaked_thread`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use wcms_error::{CancelToken, WcmsError};
use wcms_obs::{event, fields, MetricsRegistry, Obs};

use crate::checkpoint::{CellResult, CheckpointStore, LoadOutcome};
use crate::experiment::Measurement;
use crate::series::Series;
use crate::shard::RetryJitter;

/// Ceiling on the *jitter* added to one retry sleep (a fraction of the
/// [`MAX_RETRY_BACKOFF`] cap — jitter decorrelates workers, it must
/// never dominate the deterministic series).
const MAX_RETRY_JITTER: Duration = Duration::from_millis(500);

/// Ceiling on a single retry sleep. The exponential series doubles per
/// attempt; saturating here keeps a generous base backoff from turning
/// into effectively-infinite sleeps (or a `Duration` overflow panic).
const MAX_RETRY_BACKOFF: Duration = Duration::from_secs(300);

/// Retry/timeout/checkpoint policy for a sweep.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Wall-clock budget per cell attempt. `None` runs the cell inline
    /// with no budget (and no extra thread).
    pub timeout: Option<Duration>,
    /// How long after firing the cancel token to wait for a timed-out
    /// worker to unwind and join before declaring its thread leaked.
    pub grace: Duration,
    /// Extra attempts after the first failure/timeout.
    pub retries: usize,
    /// Base backoff between attempts (attempt `k` waits
    /// `backoff × 2^(k-2)` — exponential, so a struggling cell backs
    /// off fast without stalling the happy path, capped at
    /// `MAX_RETRY_BACKOFF` (300 s) per sleep).
    pub backoff: Duration,
    /// Checkpoint store for resume; `None` disables persistence.
    pub checkpoint: Option<CheckpointStore>,
    /// Deterministic per-(worker, cell, attempt) jitter added to each
    /// retry sleep so co-scheduled shard workers retrying the same
    /// failure do not synchronize into thundering herds. `None` keeps
    /// the exact exponential series (and all replays deterministic).
    pub jitter: Option<RetryJitter>,
    /// Observability bundle: the clock that times backoff sleeps and
    /// sweep wall time, the metrics the `# sweep-summary` line is
    /// rebuilt from, and (when `--trace` is set) the span recorder.
    /// Disabled by default, so plain sweeps stay observability-free.
    pub obs: Obs,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            timeout: None,
            grace: Duration::from_millis(200),
            retries: 0,
            backoff: Duration::ZERO,
            checkpoint: None,
            jitter: None,
            obs: Obs::disabled(),
        }
    }
}

impl ResilienceConfig {
    /// No timeout, no retries, no checkpointing — the plain sweep.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// This policy without persistence (used by the supervisor's
    /// demotion ladder, which stores its own `Demoted` records).
    #[must_use]
    pub fn without_checkpoint(&self) -> Self {
        Self { checkpoint: None, ..self.clone() }
    }

    /// Persist `result` for `cell` if checkpointing is enabled. A
    /// failed write must not fail the sweep (the cell simply re-runs on
    /// resume), so it only warns.
    pub(crate) fn persist(&self, cell: &str, result: &CellResult) {
        if let Some(store) = &self.checkpoint {
            match store.store(cell, result) {
                // The commit event carries the cell's trace context (when
                // the sweep runs under one): the durable-state timeline in
                // a joined trace then attributes every committed cell to
                // the job that caused it, across process boundaries.
                Ok(()) => self.obs.event("checkpoint-commit", || {
                    let mut f = fields![cell => cell];
                    if let Some(ctx) = self.obs.context() {
                        ctx.stamp(&mut f);
                    }
                    f
                }),
                Err(e) => self.obs.warn(
                    "checkpoint-write-failed",
                    &format!("checkpoint write failed for {cell}: {e}"),
                    || fields![cell => cell],
                ),
            }
        }
    }
}

/// A cell the sweep gave up on — rendered as an explicit gap marker so
/// downstream plots/diffs can tell "missing" from "never attempted".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCell {
    /// Series label the cell belongs to.
    pub series: String,
    /// Input size of the cell.
    pub n: usize,
    /// Why it was skipped (rendered error).
    pub reason: String,
    /// Attempts made.
    pub attempts: usize,
}

/// A checkpoint file that failed integrity validation and was moved
/// into quarantine (the cell re-measured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QuarantinedCell {
    /// The sweep-cell name whose checkpoint was quarantined.
    pub(crate) cell: String,
    /// What the integrity check found.
    pub(crate) reason: String,
}

/// Counters for one sweep, aggregated by the supervisor and emitted as
/// the structured `# sweep-summary` stderr line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells with a measurement from the primary backend.
    pub done: usize,
    /// Cells replayed from the checkpoint store.
    pub cached: usize,
    /// Cells that needed more than one attempt.
    pub(crate) retried: usize,
    /// Cells measured on a demoted backend.
    pub(crate) demoted: usize,
    /// Cells abandoned as gaps.
    pub(crate) skipped: usize,
    /// Corrupt checkpoint files quarantined.
    pub(crate) quarantined: usize,
    /// Cells whose worker panicked at least once.
    pub panicked: usize,
    /// Timed-out workers that ignored their cancel token past the
    /// grace period (should be 0; anything else is a cancellation bug).
    pub(crate) leaked_threads: usize,
    /// Worker threads the sweep ran with.
    pub(crate) jobs: usize,
    /// Wall-clock time of the sweep in seconds.
    pub wall_s: f64,
}

impl SweepStats {
    /// The one-line machine-greppable summary emitted to stderr at the
    /// end of every figure binary.
    #[must_use]
    pub fn summary_line(&self, figure: &str) -> String {
        format!(
            "# sweep-summary figure={figure} cells={} done={} cached={} retried={} demoted={} \
             skipped={} quarantined={} panicked={} leaked={} jobs={} wall_s={:.3}",
            self.cells,
            self.done,
            self.cached,
            self.retried,
            self.demoted,
            self.skipped,
            self.quarantined,
            self.panicked,
            self.leaked_threads,
            self.jobs,
            self.wall_s,
        )
    }

    /// Record these stats into `metrics` under `sweep_…` names: the
    /// counts as counters, `jobs`/`wall_s` as gauges (gauges round-trip
    /// `f64` bits exactly, so the rebuilt `wall_s` is bit-identical).
    pub(crate) fn record(&self, metrics: &MetricsRegistry) {
        metrics.counter("sweep_cells_total").add(self.cells as u64);
        metrics.counter("sweep_done_total").add(self.done as u64);
        metrics.counter("sweep_cached_total").add(self.cached as u64);
        metrics.counter("sweep_retried_total").add(self.retried as u64);
        metrics.counter("sweep_demoted_total").add(self.demoted as u64);
        metrics.counter("sweep_skipped_total").add(self.skipped as u64);
        metrics.counter("sweep_quarantined_total").add(self.quarantined as u64);
        metrics.counter("sweep_panicked_total").add(self.panicked as u64);
        metrics.counter("sweep_leaked_threads_total").add(self.leaked_threads as u64);
        metrics.gauge("sweep_jobs").set(self.jobs as f64);
        metrics.gauge("sweep_wall_seconds").set(self.wall_s);
    }

    /// Rebuild the stats from a registry `SweepStats::record` wrote.
    /// The supervisor emits its `# sweep-summary` line from this round
    /// trip, making the metrics registry the single source of truth for
    /// the summary (a summary/metrics disagreement is structurally
    /// impossible).
    #[must_use]
    pub fn from_registry(metrics: &MetricsRegistry) -> Self {
        Self {
            cells: metrics.counter("sweep_cells_total").get() as usize,
            done: metrics.counter("sweep_done_total").get() as usize,
            cached: metrics.counter("sweep_cached_total").get() as usize,
            retried: metrics.counter("sweep_retried_total").get() as usize,
            demoted: metrics.counter("sweep_demoted_total").get() as usize,
            skipped: metrics.counter("sweep_skipped_total").get() as usize,
            quarantined: metrics.counter("sweep_quarantined_total").get() as usize,
            panicked: metrics.counter("sweep_panicked_total").get() as usize,
            leaked_threads: metrics.counter("sweep_leaked_threads_total").get() as usize,
            jobs: metrics.gauge("sweep_jobs").get() as usize,
            wall_s: metrics.gauge("sweep_wall_seconds").get(),
        }
    }
}

/// A figure sweep's output: the measured series plus the cells that
/// were skipped or had checkpoints quarantined, and the run counters.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Measured series (points only for cells that completed).
    pub series: Vec<Series>,
    /// Explicit gaps.
    pub skipped: Vec<SkippedCell>,
    /// Checkpoints that failed integrity checks (already re-measured).
    pub(crate) quarantined: Vec<QuarantinedCell>,
    /// Aggregated counters for the `# sweep-summary` line.
    pub stats: SweepStats,
}

impl SweepReport {
    /// Long-form CSV of the series plus one `# gap,...` comment line per
    /// skipped cell, so an interrupted-then-resumed sweep and a clean
    /// sweep produce byte-identical files when they measured the same
    /// cells. Quarantine events and stats are deliberately *not* here —
    /// they describe the run, not the data, and would break that
    /// byte-identity.
    #[must_use]
    pub(crate) fn csv<F: Fn(&Measurement) -> f64 + Copy>(&self, f: F) -> String {
        let mut out = crate::series::to_csv(&self.series, f);
        for gap in &self.skipped {
            out.push_str(&format!(
                "# gap,{},{},attempts={},{}\n",
                gap.series,
                gap.n,
                gap.attempts,
                gap.reason.replace('\n', " ")
            ));
        }
        out
    }

    /// Markdown rendering with trailing gap/quarantine tables when
    /// cells were skipped or checkpoints quarantined.
    #[must_use]
    pub(crate) fn markdown<F: Fn(&Measurement) -> f64 + Copy>(&self, f: F, unit: &str) -> String {
        let mut out = crate::series::to_markdown(&self.series, f, unit);
        if !self.skipped.is_empty() {
            out.push_str(
                "**skipped cells**\n\n| series | N | attempts | reason |\n|---|---|---|---|\n",
            );
            for gap in &self.skipped {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |\n",
                    gap.series,
                    gap.n,
                    gap.attempts,
                    gap.reason.replace('\n', " ")
                ));
            }
        }
        if !self.quarantined.is_empty() {
            out.push_str(
                "\n**quarantined checkpoints** (corrupt on disk, re-measured)\n\n\
                 | cell | reason |\n|---|---|\n",
            );
            for q in &self.quarantined {
                out.push_str(&format!("| {} | {} |\n", q.cell, q.reason.replace('\n', " ")));
            }
        }
        out
    }
}

/// Everything [`run_cell`] learned about one cell, for the supervisor's
/// ladder decisions and the sweep counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The durable outcome (already checkpointed when enabled).
    pub result: CellResult,
    /// The result was replayed from the checkpoint store.
    pub from_checkpoint: bool,
    /// The cell's checkpoint existed but was corrupt and got
    /// quarantined before the (re-)measurement.
    pub(crate) quarantined: Option<String>,
    /// Attempts actually made (0 when replayed from the checkpoint).
    pub(crate) attempts: usize,
    /// The cell's final failure was a wall-clock timeout (the
    /// supervisor demotes such cells down the backend ladder).
    pub timed_out: bool,
    /// At least one attempt panicked (isolated, not propagated).
    pub(crate) panicked: bool,
    /// A timed-out worker ignored its cancel token past the grace
    /// period and its thread was abandoned.
    pub leaked_thread: bool,
}

impl CellOutcome {
    pub(crate) fn cached(result: CellResult) -> Self {
        Self {
            result,
            from_checkpoint: true,
            quarantined: None,
            attempts: 0,
            timed_out: false,
            panicked: false,
            leaked_thread: false,
        }
    }
}

/// Run one sweep cell under the resilience policy.
///
/// Checkpointed cells return instantly ([`CellOutcome::from_checkpoint`]);
/// corrupt checkpoints are quarantined, reported and re-measured.
/// Otherwise the cell runs up to `1 + retries` times with exponential
/// backoff; each attempt gets a fresh [`CancelToken`] and, when
/// `timeout` is set, runs on a helper thread whose token is fired on
/// budget expiry — the worker unwinds cooperatively and is joined
/// within `grace`. A panicking attempt is isolated
/// ([`WcmsError::CellPanicked`]) and retried like any other failure.
pub fn run_cell<F>(cell: &str, cfg: &ResilienceConfig, f: F) -> CellOutcome
where
    F: Fn(&CancelToken) -> Result<Measurement, WcmsError> + Clone + Send + 'static,
{
    let mut quarantined = None;
    if let Some(store) = &cfg.checkpoint {
        match store.load(cell) {
            LoadOutcome::Cached(result) => return CellOutcome::cached(result),
            LoadOutcome::Quarantined { to, reason } => {
                let dest = to
                    .as_deref()
                    .map_or_else(|| "<unmoved>".to_string(), |p| p.display().to_string());
                cfg.obs.warn(
                    "checkpoint-quarantined",
                    &format!("quarantined corrupt checkpoint for {cell} -> {dest}: {reason}"),
                    || fields![cell => cell, dest => dest.as_str(), reason => reason.as_str()],
                );
                quarantined = Some(reason);
            }
            LoadOutcome::Absent => {}
        }
    }
    let attempts = 1 + cfg.retries;
    let mut last_reason = String::new();
    let mut timed_out = false;
    let mut panicked = false;
    let mut leaked_thread = false;
    for attempt in 1..=attempts {
        if attempt > 1 {
            event!(cfg.obs, "cell-retry", cell => cell, attempt => attempt);
            if !cfg.backoff.is_zero() {
                // Exponential: 1×, 2×, 4×, … of the base backoff. The
                // sleep goes through the policy's clock, so tests on a
                // virtual clock observe the full delay without blocking.
                // Saturate: `Duration * u32` panics on overflow, and even
                // below that an uncapped doubling series turns a generous
                // retry budget into hour-long sleeps.
                let factor = 1u32 << (attempt as u32 - 2).min(16);
                let delay = cfg
                    .backoff
                    .checked_mul(factor)
                    .unwrap_or(MAX_RETRY_BACKOFF)
                    .min(MAX_RETRY_BACKOFF);
                // Decorrelate shard workers: a pure function of
                // (seed, worker-stream/cell, attempt), so replays of the
                // same worker are still deterministic while distinct
                // workers spread out.
                let delay = match &cfg.jitter {
                    Some(j) => {
                        delay.saturating_add(j.sample(cell, attempt as u64, MAX_RETRY_JITTER))
                    }
                    None => delay,
                };
                cfg.obs.clock.sleep(delay);
            }
        }
        let token = CancelToken::new(cell);
        let outcome = match cfg.timeout {
            None => call_guarded(cell, &f, &token),
            Some(budget) => {
                run_with_budget(cell, f.clone(), &token, cfg, budget, attempt, &mut leaked_thread)
            }
        };
        match outcome {
            Ok(m) => {
                let result = CellResult::Done(m);
                cfg.persist(cell, &result);
                return CellOutcome {
                    result,
                    from_checkpoint: false,
                    quarantined,
                    attempts: attempt,
                    timed_out: false,
                    panicked,
                    leaked_thread,
                };
            }
            Err(e) => {
                timed_out = matches!(e, WcmsError::SweepTimeout { .. });
                panicked |= matches!(e, WcmsError::CellPanicked { .. });
                last_reason = e.to_string();
            }
        }
    }
    let result = CellResult::Skipped { reason: last_reason, attempts };
    cfg.persist(cell, &result);
    CellOutcome {
        result,
        from_checkpoint: false,
        quarantined,
        attempts,
        timed_out,
        panicked,
        leaked_thread,
    }
}

/// Call the cell body with panics isolated into
/// [`WcmsError::CellPanicked`].
fn call_guarded<F>(cell: &str, f: &F, token: &CancelToken) -> Result<Measurement, WcmsError>
where
    F: Fn(&CancelToken) -> Result<Measurement, WcmsError>,
{
    match catch_unwind(AssertUnwindSafe(|| f(token))) {
        Ok(r) => r,
        Err(payload) => {
            let payload = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            Err(WcmsError::CellPanicked { cell: cell.to_string(), payload })
        }
    }
}

/// One budgeted attempt: run the cell on a helper thread, and on budget
/// expiry fire its cancel token, then give it `grace` to unwind and
/// join. Only a worker that ignores its token is abandoned (and
/// reported via `leaked`).
fn run_with_budget<F>(
    cell: &str,
    f: F,
    token: &CancelToken,
    cfg: &ResilienceConfig,
    budget: Duration,
    attempt: usize,
    leaked: &mut bool,
) -> Result<Measurement, WcmsError>
where
    F: Fn(&CancelToken) -> Result<Measurement, WcmsError> + Send + 'static,
{
    let grace = cfg.grace;
    let (tx, rx) = mpsc::channel();
    let worker_token = token.clone();
    let cell_owned = cell.to_string();
    let handle = thread::spawn(move || {
        // The receiver may be gone after a timeout; that is fine.
        let _ = tx.send(call_guarded(&cell_owned, &f, &worker_token));
    });
    match rx.recv_timeout(budget) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => {
            token.cancel();
            // Give the worker one grace period to observe the token at
            // its next work-unit boundary and unwind. Its late result —
            // even an `Ok` that squeaked in after the deadline — is
            // discarded: the budget is the budget.
            match rx.recv_timeout(grace) {
                Ok(_late) => {
                    let _ = handle.join();
                }
                Err(_) => {
                    cfg.obs.warn(
                        "thread-leaked",
                        &format!(
                            "cell {cell} ignored its cancel token for {:.1} s; abandoning its \
                             thread",
                            grace.as_secs_f64()
                        ),
                        || fields![cell => cell, grace_s => grace.as_secs_f64()],
                    );
                    *leaked = true;
                }
            }
            Err(WcmsError::SweepTimeout {
                cell: cell.to_string(),
                budget_secs: budget.as_secs_f64(),
                attempts: attempt,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    use wcms_dmm::stats::Summary;

    fn meas(n: usize) -> Measurement {
        Measurement {
            n,
            throughput: 1.0,
            ms: 1.0,
            throughput_spread: Summary::of(&[1.0]).unwrap(),
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: 0.0,
            ms_per_element: 1.0,
        }
    }

    #[test]
    fn ok_cell_passes_through() {
        let o = run_cell("c", &ResilienceConfig::none(), |_| Ok(meas(8)));
        assert_eq!(o.result, CellResult::Done(meas(8)));
        assert!(!o.from_checkpoint);
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn failing_cell_skips_with_reason_after_retries() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let cfg = ResilienceConfig { retries: 2, ..ResilienceConfig::none() };
        let o = run_cell("c", &cfg, move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            Err(WcmsError::ZeroParam { name: "w" })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        match o.result {
            CellResult::Skipped { reason, attempts } => {
                assert_eq!(attempts, 3);
                assert!(reason.contains("w"), "{reason}");
            }
            other => panic!("must skip, got {other:?}"),
        }
        assert!(!o.timed_out);
    }

    #[test]
    fn flaky_cell_recovers_on_retry() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let cfg = ResilienceConfig { retries: 2, ..ResilienceConfig::none() };
        let o = run_cell("c", &cfg, move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(WcmsError::ZeroParam { name: "w" })
            } else {
                Ok(meas(4))
            }
        });
        assert_eq!(o.result, CellResult::Done(meas(4)));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(o.attempts, 2);
    }

    #[test]
    fn hung_cell_times_out_and_joins_its_worker() {
        let cfg = ResilienceConfig {
            timeout: Some(Duration::from_millis(30)),
            retries: 1,
            ..ResilienceConfig::none()
        };
        // A cooperative worker: spins until its token fires.
        let o = run_cell("slow-cell", &cfg, |token| loop {
            token.check()?;
            thread::sleep(Duration::from_millis(1));
        });
        match &o.result {
            CellResult::Skipped { reason, attempts } => {
                assert_eq!(*attempts, 2);
                assert!(reason.contains("slow-cell"), "{reason}");
            }
            other => panic!("must time out, got {other:?}"),
        }
        assert!(o.timed_out);
        assert!(!o.leaked_thread, "a cooperative worker must be joined, not leaked");
    }

    #[test]
    fn uncooperative_worker_is_reported_as_leaked() {
        let cfg = ResilienceConfig {
            timeout: Some(Duration::from_millis(10)),
            grace: Duration::from_millis(20),
            retries: 0,
            ..ResilienceConfig::none()
        };
        // Ignores its token for far longer than budget + grace.
        let o = run_cell("stubborn", &cfg, |_| {
            thread::sleep(Duration::from_millis(500));
            Ok(meas(1))
        });
        assert!(matches!(o.result, CellResult::Skipped { .. }));
        assert!(o.leaked_thread);
        // Let the stubborn thread finish so it does not outlive the test
        // process teardown checks.
        thread::sleep(Duration::from_millis(550));
    }

    #[test]
    fn late_ok_after_deadline_is_still_a_timeout() {
        let cfg = ResilienceConfig {
            timeout: Some(Duration::from_millis(10)),
            grace: Duration::from_millis(200),
            retries: 0,
            ..ResilienceConfig::none()
        };
        // Returns Ok — but only after the budget, within the grace.
        let o = run_cell("late", &cfg, |_| {
            thread::sleep(Duration::from_millis(40));
            Ok(meas(2))
        });
        assert!(matches!(o.result, CellResult::Skipped { .. }), "{:?}", o.result);
        assert!(o.timed_out);
        assert!(!o.leaked_thread, "the worker returned within the grace and was joined");
    }

    #[test]
    fn panicking_cell_is_isolated_and_retried() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let cfg = ResilienceConfig { retries: 2, ..ResilienceConfig::none() };
        let o = run_cell("p", &cfg, move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("boom at cell p");
            }
            Ok(meas(4))
        });
        assert_eq!(o.result, CellResult::Done(meas(4)));
        assert!(o.panicked, "the first attempt's panic must be recorded");
    }

    #[test]
    fn persistently_panicking_cell_skips_with_payload() {
        let cfg = ResilienceConfig { retries: 1, ..ResilienceConfig::none() };
        let o = run_cell("p", &cfg, |_| -> Result<Measurement, WcmsError> {
            panic!("deterministic boom")
        });
        match &o.result {
            CellResult::Skipped { reason, .. } => {
                assert!(reason.contains("deterministic boom"), "{reason}");
            }
            other => panic!("must skip, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_exponential() {
        let cfg = ResilienceConfig {
            retries: 3,
            backoff: Duration::from_millis(10),
            ..ResilienceConfig::none()
        };
        let start = Instant::now();
        let _ = run_cell("b", &cfg, |_| -> Result<Measurement, WcmsError> {
            Err(WcmsError::ZeroParam { name: "w" })
        });
        // Waits: 10 + 20 + 40 = 70 ms minimum.
        assert!(start.elapsed() >= Duration::from_millis(70));
    }

    #[test]
    fn backoff_on_a_virtual_clock_observes_the_delay_without_blocking() {
        let obs = wcms_obs::Obs::enabled(wcms_obs::Clock::virtual_us(1));
        let clock = obs.clock.clone();
        let cfg = ResilienceConfig {
            retries: 3,
            backoff: Duration::from_secs(60),
            obs,
            ..ResilienceConfig::none()
        };
        let t0 = clock.now_us();
        let real = Instant::now();
        let _ = run_cell("b", &cfg, |_| -> Result<Measurement, WcmsError> {
            Err(WcmsError::ZeroParam { name: "w" })
        });
        assert!(real.elapsed() < Duration::from_secs(5), "virtual backoff must not block");
        // 60 + 120 + 240 = 420 virtual seconds of backoff elapsed.
        let virtual_s = clock.elapsed_s(t0);
        assert!(virtual_s >= 420.0, "full virtual backoff observed, got {virtual_s}");
    }

    #[test]
    fn backoff_saturates_at_the_cap_instead_of_doubling_forever() {
        let obs = wcms_obs::Obs::enabled(wcms_obs::Clock::virtual_us(1));
        let clock = obs.clock.clone();
        // A base already above the cap: every retry must sleep exactly
        // MAX_RETRY_BACKOFF, and the doubling series must not overflow
        // the Duration multiply.
        let cfg = ResilienceConfig {
            retries: 20,
            backoff: Duration::from_secs(1_000_000_000_000),
            obs,
            ..ResilienceConfig::none()
        };
        let t0 = clock.now_us();
        let _ = run_cell("cap", &cfg, |_| -> Result<Measurement, WcmsError> {
            Err(WcmsError::ZeroParam { name: "w" })
        });
        let slept = clock.elapsed_s(t0);
        let cap_total = MAX_RETRY_BACKOFF.as_secs_f64() * 20.0;
        assert!(
            (slept - cap_total).abs() < cap_total * 0.01,
            "20 capped sleeps of {MAX_RETRY_BACKOFF:?} expected, observed {slept} s"
        );
    }

    #[test]
    fn sweep_stats_round_trip_through_the_registry_byte_identically() {
        let stats = SweepStats {
            cells: 20,
            done: 17,
            cached: 5,
            retried: 1,
            demoted: 1,
            skipped: 2,
            quarantined: 1,
            panicked: 0,
            leaked_threads: 0,
            jobs: 4,
            wall_s: 1.2345678901234567,
        };
        let metrics = MetricsRegistry::new();
        stats.record(&metrics);
        let rebuilt = SweepStats::from_registry(&metrics);
        assert_eq!(rebuilt, stats);
        // Golden: the registry-rebuilt summary line, byte for byte.
        assert_eq!(
            rebuilt.summary_line("fig4"),
            "# sweep-summary figure=fig4 cells=20 done=17 cached=5 retried=1 demoted=1 \
             skipped=2 quarantined=1 panicked=0 leaked=0 jobs=4 wall_s=1.235"
        );
    }

    #[test]
    fn checkpointed_cell_short_circuits() {
        let dir = std::env::temp_dir().join(format!("wcms-res-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        let cfg = ResilienceConfig { checkpoint: Some(store), ..ResilienceConfig::none() };
        let o1 = run_cell("cell-a", &cfg, |_| Ok(meas(16)));
        // Second run would fail if actually executed — it must come from
        // the checkpoint instead.
        let o2 = run_cell("cell-a", &cfg, |_| Err(WcmsError::ZeroParam { name: "E" }));
        assert_eq!(o1.result, o2.result);
        assert!(o2.from_checkpoint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_and_remeasured() {
        let dir = std::env::temp_dir().join(format!("wcms-resq-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        let cfg = ResilienceConfig { checkpoint: Some(store), ..ResilienceConfig::none() };
        let _ = run_cell("cell-q", &cfg, |_| Ok(meas(16)));
        // Corrupt the stored file.
        let path = cfg.checkpoint.as_ref().unwrap().dir().join("cell-cell-q.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("16", "61")).unwrap();

        let o = run_cell("cell-q", &cfg, |_| Ok(meas(32)));
        assert!(!o.from_checkpoint, "corrupt cache must not be served");
        assert!(o.quarantined.is_some());
        assert_eq!(o.result, CellResult::Done(meas(32)));
        // And the fresh measurement replaced it durably.
        let o2 = run_cell("cell-q", &cfg, |_| Err(WcmsError::ZeroParam { name: "E" }));
        assert!(o2.from_checkpoint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_csv_includes_gap_markers() {
        let report = SweepReport {
            series: vec![Series { label: "s".into(), points: vec![meas(8)] }],
            skipped: vec![SkippedCell {
                series: "s".into(),
                n: 16,
                reason: "cell timed\nout".into(),
                attempts: 3,
            }],
            ..SweepReport::default()
        };
        let csv = report.csv(|m| m.throughput);
        assert!(csv.contains("s,8,"), "{csv}");
        assert!(csv.contains("# gap,s,16,attempts=3,cell timed out"), "{csv}");
    }

    #[test]
    fn quarantine_shows_in_markdown_not_csv() {
        let report = SweepReport {
            series: vec![Series { label: "s".into(), points: vec![meas(8)] }],
            quarantined: vec![QuarantinedCell {
                cell: "s/16".into(),
                reason: "checksum mismatch".into(),
            }],
            ..SweepReport::default()
        };
        assert!(!report.csv(|m| m.throughput).contains("checksum"), "csv must stay data-only");
        let md = report.markdown(|m| m.throughput, "eps");
        assert!(md.contains("quarantined") && md.contains("checksum mismatch"), "{md}");
    }

    #[test]
    fn summary_line_is_greppable() {
        let stats = SweepStats {
            cells: 20,
            done: 17,
            cached: 5,
            retried: 1,
            demoted: 1,
            skipped: 2,
            quarantined: 1,
            panicked: 0,
            leaked_threads: 0,
            jobs: 4,
            wall_s: 1.25,
        };
        let line = stats.summary_line("fig4");
        assert!(line.starts_with("# sweep-summary figure=fig4 "), "{line}");
        for token in [
            "cells=20",
            "done=17",
            "cached=5",
            "demoted=1",
            "quarantined=1",
            "jobs=4",
            "wall_s=1.250",
        ] {
            assert!(line.contains(token), "missing {token}: {line}");
        }
    }
}
