//! The parallel sweep supervisor: a work-queue executor that runs
//! sweep cells on `--jobs` worker threads with deadlines, panic
//! isolation, retry, and a graceful-degradation backend ladder.
//!
//! Cells run concurrently through [`parallel_map`] on the workspace's
//! one thread executor, [`wcms_mergesort::exec`]: scoped threads claim
//! cell indices off a shared cursor. A stealing worker's cells run on
//! its own lease-aware claim loop instead, which re-queues cells
//! another process holds. Either way the output is *deterministic*:
//! results come back in submission order, so the folded CSV is
//! byte-identical no matter how many workers raced to fill it
//! (measurements themselves are modelled, not wall-clock, hence
//! scheduling-independent).
//!
//! Per cell, [`supervise_cell`] layers policies:
//!
//! 1. [`crate::resilient::run_cell`] — checkpoint replay, quarantine,
//!    per-attempt deadline via [`CancelToken`], panic isolation,
//!    bounded retry with exponential backoff;
//! 2. the **demotion ladder** — a cell that *times out* through all its
//!    retries is retried down [`BackendKind::demote`]'s ladder
//!    (sim → analytic → reference). The analytic backend measures
//!    integer-identically to the simulator at a fraction of the cost,
//!    so a demoted measurement is still a real data point (recorded as
//!    [`CellResult::Demoted`] with the backend that produced it);
//!    only a cell that defeats the whole ladder becomes a gap.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use wcms_error::{CancelToken, WcmsError};
use wcms_mergesort::{exec, AlgorithmKind, BackendKind};
use wcms_obs::{fields, MetricsRegistry, TraceContext, LATENCY_BUCKETS_S, TRACE_SEED};

use crate::checkpoint::CheckpointStore;
use crate::checkpoint::{CellResult, LoadOutcome};
use crate::experiment::{Measurement, SweepConfig};
use crate::resilient::{call_guarded, run_cell, CellOutcome, ResilienceConfig, SweepStats};
use crate::shard::{jitter, LeaseAttempt, LeaseStore, ShardPolicy, DEFERRED_PREFIX, LOST_PREFIX};

/// Everything a figure sweep needs to know about *how* to run: grid,
/// per-cell policy, execution backend, and worker count.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// The size grid and run count.
    pub sweep: SweepConfig,
    /// Per-cell timeout/retry/checkpoint policy.
    pub resilience: ResilienceConfig,
    /// Execution backend for the primary attempt (the ladder may demote
    /// below it).
    pub backend: BackendKind,
    /// Sort algorithm every cell measures (`--algorithm`).
    pub algorithm: AlgorithmKind,
    /// Worker threads (`--jobs`); 1 = inline sequential execution.
    pub jobs: usize,
    /// Multi-process cell division (`--shard-index/--shard-count`,
    /// `--steal`, `--replay`); requires a checkpoint store except
    /// [`ShardPolicy::Off`].
    pub shard: ShardPolicy,
}

/// The outcome of a supervised sweep: per-cell outcomes in submission
/// order, plus aggregated counters.
#[derive(Debug, Clone)]
pub struct SupervisedSweep<J> {
    /// `(job, outcome)` for every submitted cell, in submission order
    /// (independent of worker scheduling).
    pub cells: Vec<(J, CellOutcome)>,
    /// Aggregated counters for the `# sweep-summary` line.
    pub stats: SweepStats,
}

/// Run every `job` through `body` on `opts.jobs` workers under the full
/// supervision stack, preserving submission order in the result.
///
/// `name` labels each cell (checkpoint key, error messages); `body`
/// measures one cell on a given backend and must poll the
/// [`CancelToken`] it is handed (the backends' merge loops do) so
/// deadlines actually stop it.
pub fn run_sweep<J, N, F>(jobs: Vec<J>, opts: &SweepOptions, name: N, body: F) -> SupervisedSweep<J>
where
    J: Clone + Send + 'static,
    N: Fn(&J) -> String + Sync,
    F: Fn(J, BackendKind, &CancelToken) -> Result<Measurement, WcmsError>
        + Clone
        + Send
        + Sync
        + 'static,
{
    let obs = &opts.resilience.obs;
    let start_us = obs.clock.now_us();
    // The sweep's causal identity. A context on `obs` is the admitting
    // caller (e.g. a daemon job or `--trace-parent`) — the sweep span
    // becomes its child, so every cell executed by any worker that
    // steals from this grid chains back to that root. Tracing without
    // a parent mints a deterministic local root; tracing off derives
    // nothing at all (the disabled path must stay free).
    let sweep_ctx = match (obs.context(), obs.is_tracing()) {
        (Some(parent), _) => Some(parent.child("sweep")),
        (None, true) => Some(TraceContext::root(TRACE_SEED, "sweep")),
        (None, false) => None,
    };
    let _sweep_span = obs.span("sweep", || {
        let mut f = fields![cells => jobs.len(), jobs => opts.jobs.max(1)];
        if let Some(ctx) = &sweep_ctx {
            ctx.stamp(&mut f);
        }
        f
    });
    let job_list = jobs.clone();
    // The fully-supervised execution of one owned cell, shared by the
    // plain/static path and the steal scheduler.
    let run_one = |job: J, cell: &str| -> CellOutcome {
        let body = body.clone();
        let cell_ctx = sweep_ctx.map(|sweep| sweep.child(cell));
        let _cell_span = obs.span("cell", || {
            let mut f = fields![cell => cell];
            if let Some(ctx) = &cell_ctx {
                ctx.stamp(&mut f);
            }
            f
        });
        let t0 = obs.clock.now_us();
        // Traced cells get a resilience view whose Obs carries the cell
        // context, so checkpoint-commit events and run_cell spans emit
        // inside the cell's causal subtree. Untraced sweeps borrow the
        // shared config — no per-cell clone on the disabled path.
        let resilience: std::borrow::Cow<'_, ResilienceConfig> = match cell_ctx {
            Some(ctx) => {
                let mut r = opts.resilience.clone();
                r.obs = r.obs.with_context(ctx);
                std::borrow::Cow::Owned(r)
            }
            None => std::borrow::Cow::Borrowed(&opts.resilience),
        };
        let outcome = supervise_cell(cell, opts.backend, &resilience, move |backend, token| {
            body(job.clone(), backend, token)
        });
        if obs.is_active() {
            obs.metrics
                .histogram("cell_latency_seconds", &LATENCY_BUCKETS_S)
                .observe(obs.clock.elapsed_s(t0));
        }
        outcome
    };
    let outcomes = match &opts.shard {
        ShardPolicy::Steal { worker, ttl } if opts.resilience.checkpoint.is_some() => {
            let store = opts.resilience.checkpoint.clone().expect("guard checked");
            let trace = sweep_ctx.as_ref().map(TraceContext::encode);
            steal_schedule(jobs, opts.jobs, &store, worker, *ttl, trace, &name, &run_one)
        }
        _ => parallel_map(jobs, opts.jobs, |i, job| {
            let cell = name(&job);
            if !opts.shard.owns(i) {
                return Ok(replay_outcome(&cell, opts));
            }
            Ok(run_one(job, &cell))
        }),
    };
    let cells: Vec<(J, CellOutcome)> = job_list
        .into_iter()
        .zip(outcomes)
        .map(|(job, r)| {
            let outcome = r.unwrap_or_else(|e| CellOutcome {
                // A panic *outside* the per-cell guard (a supervisor
                // bug, not a cell bug) still must not kill the sweep.
                result: CellResult::Skipped { reason: e.to_string(), attempts: 1 },
                from_checkpoint: false,
                quarantined: None,
                attempts: 1,
                timed_out: false,
                panicked: true,
                leaked_thread: false,
            });
            (job, outcome)
        })
        .collect();

    let mut stats = SweepStats { jobs: opts.jobs.max(1), ..SweepStats::default() };
    for (_, o) in &cells {
        // Cells another shard owns (and has not committed yet) are not
        // this process's work: they are excluded from its counters, so
        // per-shard summaries add up across shards instead of each
        // shard claiming the whole grid.
        if let CellResult::Skipped { reason, .. } = &o.result {
            if reason.starts_with(DEFERRED_PREFIX) {
                continue;
            }
        }
        stats.cells += 1;
        match &o.result {
            CellResult::Done(_) => stats.done += 1,
            CellResult::Demoted { .. } => stats.demoted += 1,
            CellResult::Skipped { .. } => stats.skipped += 1,
        }
        stats.cached += usize::from(o.from_checkpoint);
        stats.retried += usize::from(o.attempts > 1);
        stats.quarantined += usize::from(o.quarantined.is_some());
        stats.panicked += usize::from(o.panicked);
        stats.leaked_threads += usize::from(o.leaked_thread);
    }
    stats.wall_s = obs.clock.elapsed_s(start_us);
    if let Some(store) = &opts.resilience.checkpoint {
        let evicted = store.take_quarantine_evictions();
        if evicted > 0 && obs.is_active() {
            obs.metrics.counter("checkpoint_quarantine_evicted_total").add(evicted);
        }
    }
    // The summary line is rebuilt from metrics: record the loop
    // counters into a sweep-local registry, re-read them, and fold the
    // sweep's registry into the session one — so `# sweep-summary` and
    // a `--metrics` dump can never disagree.
    let sweep_metrics = MetricsRegistry::new();
    stats.record(&sweep_metrics);
    let stats = SweepStats::from_registry(&sweep_metrics);
    if obs.is_active() {
        obs.metrics.absorb(&sweep_metrics);
    }
    SupervisedSweep { cells, stats }
}

/// Run one cell under the full supervision stack: resilient execution
/// on the primary backend, then — for cells that timed out through all
/// retries — the demotion ladder.
///
/// A demoted measurement is persisted as [`CellResult::Demoted`]
/// (overwriting the `Skipped` record the primary pass left), so a
/// resumed sweep replays it instead of fighting the timeout again.
pub fn supervise_cell<F>(
    cell: &str,
    backend: BackendKind,
    resilience: &ResilienceConfig,
    body: F,
) -> CellOutcome
where
    F: Fn(BackendKind, &CancelToken) -> Result<Measurement, WcmsError> + Clone + Send + 'static,
{
    let primary = {
        let body = body.clone();
        move |token: &CancelToken| body(backend, token)
    };
    let mut outcome = run_cell(cell, resilience, primary);
    if outcome.from_checkpoint || !outcome.timed_out {
        return outcome;
    }

    // The cell burned its whole budget on timeouts. Walk the ladder:
    // cheaper backends, same retry policy, no checkpointing (the
    // ladder's durable record is written here, not per rung).
    let ladder_cfg = resilience.without_checkpoint();
    let mut attempts = outcome.attempts;
    let mut rung = backend;
    while let Some(next) = rung.demote() {
        rung = next;
        resilience.obs.warn(
            "cell-demoted",
            &format!(
                "cell {cell}: timed out on every attempt; demoting to the {} backend",
                rung.name()
            ),
            || fields![cell => cell, backend => rung.name()],
        );
        let body = body.clone();
        let o = run_cell(cell, &ladder_cfg, move |token| body(rung, token));
        attempts += o.attempts;
        outcome.panicked |= o.panicked;
        outcome.leaked_thread |= o.leaked_thread;
        match o.result {
            CellResult::Done(m) => {
                let result = CellResult::Demoted { m, on: rung.name().to_string(), attempts };
                resilience.persist(cell, &result);
                outcome.result = result;
                outcome.attempts = attempts;
                outcome.timed_out = false;
                return outcome;
            }
            CellResult::Skipped { reason, .. } => {
                outcome.result = CellResult::Skipped { reason, attempts };
                outcome.timed_out = o.timed_out;
            }
            CellResult::Demoted { .. } => unreachable!("run_cell never produces Demoted"),
        }
    }
    // The whole ladder failed; make the durable record carry the full
    // attempt count.
    resilience.persist(cell, &outcome.result);
    outcome.attempts = attempts;
    outcome
}

/// Order-preserving parallel map over a work queue.
///
/// `threads <= 1` runs inline on the caller's thread (no workers, no
/// scheduling — the byte-identical sequential path). Otherwise the items
/// run on [`exec::map`]: the caller plus `threads - 1` scoped helpers
/// claim indices off one cursor, and the returned `Vec` is in submission
/// order regardless of completion order. Each item is guarded by
/// `catch_unwind`: a panicking item yields [`WcmsError::CellPanicked`]
/// for *that* item and the map continues.
pub fn parallel_map<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<Result<R, WcmsError>>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> Result<R, WcmsError> + Sync,
{
    let guarded = |i: usize, job: J| call_guarded(format_args!("item-{i}"), || f(i, job));
    if threads <= 1 {
        return jobs.into_iter().enumerate().map(|(i, job)| guarded(i, job)).collect();
    }
    exec::map(threads, jobs, guarded)
}

/// The outcome for a cell this process does not execute (static
/// sharding's foreign cells, every cell of a `--replay` run): replay
/// the committed result when the shared store has one, otherwise
/// record a non-result — `shard-deferred:` (excluded from counters;
/// another shard will run it) under [`ShardPolicy::Static`], or
/// `shard-lost:` (a counted skip; the grid is incomplete and a merge
/// must refuse it) under [`ShardPolicy::Replay`].
fn replay_outcome(cell: &str, opts: &SweepOptions) -> CellOutcome {
    let mut quarantined = None;
    if let Some(store) = &opts.resilience.checkpoint {
        match store.load(cell) {
            LoadOutcome::Cached(result) => return CellOutcome::cached(result),
            LoadOutcome::Quarantined { reason, .. } => quarantined = Some(reason),
            LoadOutcome::Absent => {}
        }
    }
    let reason = match (&opts.shard, &quarantined) {
        (ShardPolicy::Replay, Some(q)) => {
            format!("{LOST_PREFIX} cell {cell} checkpoint was corrupt ({q})")
        }
        (ShardPolicy::Replay, None) => {
            format!("{LOST_PREFIX} cell {cell} missing from the checkpoint store")
        }
        _ => format!("{DEFERRED_PREFIX} cell {cell} belongs to another shard"),
    };
    CellOutcome {
        result: CellResult::Skipped { reason, attempts: 0 },
        from_checkpoint: false,
        quarantined,
        attempts: 0,
        timed_out: false,
        panicked: false,
        leaked_thread: false,
    }
}

/// The dynamic work-stealing scheduler: `threads` local workers pull
/// cell indices off a deferral queue; each index is resolved by cache
/// replay, or by claiming the cell's lease and measuring it, or — when
/// another *process* holds the lease — re-queued after a jittered
/// backoff. Results land in submission-order slots, so the caller's
/// output stays deterministic.
///
/// Each cooperating process starts its scan at a different rotation of
/// the grid (a stable hash of its worker id), so n processes fan out
/// across the grid instead of convoying behind cell 0.
#[allow(clippy::too_many_arguments)]
fn steal_schedule<J, N, G>(
    jobs: Vec<J>,
    threads: usize,
    store: &CheckpointStore,
    worker: &str,
    ttl: Duration,
    trace: Option<String>,
    name: &N,
    run_one: &G,
) -> Vec<Result<CellOutcome, WcmsError>>
where
    J: Clone + Send,
    N: Fn(&J) -> String + Sync,
    G: Fn(J, &str) -> CellOutcome + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let leases = match LeaseStore::open(store, worker, ttl).map(|l| l.with_trace(trace)) {
        Ok(l) => l,
        Err(e) => {
            let msg = format!("lease store unavailable: {e}");
            return (0..n)
                .map(|_| Err(WcmsError::Io(std::io::Error::other(msg.clone()))))
                .collect();
        }
    };
    let names: Vec<String> = jobs.iter().map(name).collect();
    let cells: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<Result<CellOutcome, WcmsError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    // Rotate this process's scan so cooperating processes start on
    // different cells (stable in the worker id, not the pid).
    let offset =
        usize::try_from(wcms_obs::context::fnv1a64(worker.as_bytes()) % n as u64).unwrap_or(0);
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).map(|i| (i + offset) % n).collect());
    let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let seed = leases.fingerprint();
    let work = |i: usize| -> Option<usize> {
        // Returns Some(i) to re-queue the index, None when resolved.
        let cell = &names[i];
        let mut pre_quarantined = None;
        match store.load(cell) {
            LoadOutcome::Cached(result) => {
                *slots[i].lock().expect("slot lock poisoned") =
                    Some(Ok(CellOutcome::cached(result)));
                return None;
            }
            LoadOutcome::Quarantined { reason, .. } => pre_quarantined = Some(reason),
            LoadOutcome::Absent => {}
        }
        match leases.try_acquire(cell) {
            Ok(LeaseAttempt::Acquired(guard)) => {
                // Re-check under the lease: the cell may have been
                // committed between our cache probe and the claim.
                let outcome = match store.load(cell) {
                    LoadOutcome::Cached(result) => CellOutcome::cached(result),
                    _ => {
                        let job = cells[i]
                            .lock()
                            .expect("cell lock poisoned")
                            .take()
                            .expect("a cell index resolves at most once");
                        let mut o = run_one(job, cell);
                        if o.quarantined.is_none() {
                            o.quarantined = pre_quarantined;
                        }
                        o
                    }
                };
                drop(guard);
                *slots[i].lock().expect("slot lock poisoned") = Some(Ok(outcome));
                None
            }
            Ok(LeaseAttempt::Held { remaining, .. }) => {
                // Another process is on it. Sleep a little (bounded by
                // the holder's remaining TTL, plus seeded jitter so
                // waiting processes desynchronize) and re-queue.
                let attempt = attempts[i].fetch_add(1, Ordering::Relaxed) as u64 + 1;
                let shift = u32::try_from(attempt.min(4)).unwrap_or(4);
                let base = Duration::from_millis(10u64 << shift)
                    .min(remaining.max(Duration::from_millis(5)))
                    .min(Duration::from_millis(250));
                thread::sleep(
                    base + jitter(
                        seed,
                        &format!("{worker}/{cell}"),
                        attempt,
                        Duration::from_millis(50),
                    ),
                );
                Some(i)
            }
            Err(e) => {
                *slots[i].lock().expect("slot lock poisoned") = Some(Err(e));
                None
            }
        }
    };
    let worker_loop = || loop {
        let i = queue.lock().expect("queue lock poisoned").pop_front();
        let Some(i) = i else { break };
        if let Some(again) = work(i) {
            queue.lock().expect("queue lock poisoned").push_back(again);
        }
    };
    if threads <= 1 {
        worker_loop();
    } else {
        thread::scope(|s| {
            for _ in 0..threads.min(n) {
                s.spawn(worker_loop);
            }
        });
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner().expect("slot lock poisoned").expect("every queued index was resolved")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;
    use wcms_dmm::stats::Summary;

    fn meas(n: usize) -> Measurement {
        Measurement {
            n,
            throughput: n as f64,
            ms: 1.0,
            throughput_spread: Summary::of(&[n as f64]).unwrap(),
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: 0.0,
            ms_per_element: 1.0,
        }
    }

    fn opts(jobs: usize) -> SweepOptions {
        SweepOptions {
            sweep: SweepConfig::quick(),
            resilience: ResilienceConfig::none(),
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            jobs,
            shard: ShardPolicy::Off,
        }
    }

    #[test]
    fn parallel_map_preserves_submission_order() {
        for threads in [1, 4] {
            let out = parallel_map((0..50).collect(), threads, |i, j: usize| {
                assert_eq!(i, j);
                // Stagger completion so out-of-order finishes happen.
                thread::sleep(Duration::from_micros((50 - j as u64) * 10));
                Ok(j * 2)
            });
            let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(values, (0..50).map(|j| j * 2).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_actually_uses_multiple_threads() {
        let ids = Mutex::new(HashSet::new());
        let _ = parallel_map((0..32).collect(), 4, |_, _j: usize| {
            ids.lock().unwrap().insert(thread::current().id());
            thread::sleep(Duration::from_millis(5));
            Ok(())
        });
        assert!(ids.lock().unwrap().len() > 1, "expected work on more than one thread");
    }

    #[test]
    fn parallel_map_isolates_item_panics() {
        for threads in [1, 3] {
            let out = parallel_map((0..6).collect(), threads, |_, j: usize| {
                if j == 3 {
                    panic!("item three exploded");
                }
                Ok(j)
            });
            assert_eq!(out.len(), 6);
            for (j, r) in out.iter().enumerate() {
                if j == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert!(e.to_string().contains("item three exploded"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), j);
                }
            }
        }
    }

    #[test]
    fn run_sweep_matches_sequential_output_exactly() {
        let body = |n: usize, _b: BackendKind, _t: &CancelToken| Ok(meas(n));
        let jobs: Vec<usize> = (1..=32).map(|i| i * 64).collect();
        let seq = run_sweep(jobs.clone(), &opts(1), |n| format!("t/{n}"), body);
        let par = run_sweep(jobs, &opts(4), |n| format!("t/{n}"), body);
        assert_eq!(seq.cells, par.cells, "jobs=4 must reproduce jobs=1 cell for cell");
        assert_eq!(seq.stats.cells, 32);
        assert_eq!(par.stats.jobs, 4);
        assert_eq!(par.stats.done, 32);
    }

    #[test]
    fn run_sweep_counts_cells_by_outcome() {
        let body = |n: usize, _b: BackendKind, _t: &CancelToken| {
            if n.is_multiple_of(2) {
                Ok(meas(n))
            } else {
                Err(WcmsError::ZeroParam { name: "w" })
            }
        };
        let sweep = run_sweep((1..=10).collect(), &opts(3), |n| format!("t/{n}"), body);
        assert_eq!(sweep.stats.cells, 10);
        assert_eq!(sweep.stats.done, 5);
        assert_eq!(sweep.stats.skipped, 5);
        assert_eq!(sweep.stats.demoted, 0);
        // Skipped cells stay in submission order too.
        for (n, o) in &sweep.cells {
            assert_eq!(matches!(o.result, CellResult::Done(_)), n % 2 == 0);
        }
    }

    #[test]
    fn timed_out_cell_demotes_down_the_ladder() {
        // Sim hangs (cooperatively); analytic answers instantly.
        let body = |b: BackendKind, t: &CancelToken| match b {
            BackendKind::Sim => loop {
                t.check()?;
                thread::sleep(Duration::from_millis(1));
            },
            _ => Ok(meas(7)),
        };
        let resilience = ResilienceConfig {
            timeout: Some(Duration::from_millis(20)),
            retries: 1,
            ..ResilienceConfig::none()
        };
        let o = supervise_cell("t/slow", BackendKind::Sim, &resilience, body);
        match &o.result {
            CellResult::Demoted { m, on, attempts } => {
                assert_eq!(m.n, 7);
                assert_eq!(on, "analytic");
                assert!(*attempts >= 3, "2 timed-out sim attempts + 1 analytic, got {attempts}");
            }
            other => panic!("expected a demoted measurement, got {other:?}"),
        }
        assert!(!o.leaked_thread, "cooperative cancellation must join every worker");
    }

    #[test]
    fn ladder_defeat_is_a_skip_with_total_attempts() {
        // Every backend hangs: the ladder bottoms out at a gap.
        let body = |_b: BackendKind, t: &CancelToken| loop {
            t.check()?;
            thread::sleep(Duration::from_millis(1));
        };
        let resilience = ResilienceConfig {
            timeout: Some(Duration::from_millis(10)),
            retries: 0,
            ..ResilienceConfig::none()
        };
        let o = supervise_cell("t/hopeless", BackendKind::Sim, &resilience, body);
        match &o.result {
            CellResult::Skipped { attempts, .. } => {
                assert_eq!(*attempts, 3, "one attempt per ladder rung");
            }
            other => panic!("expected a skip, got {other:?}"),
        }
        assert!(o.timed_out);
    }

    #[test]
    fn non_timeout_failures_do_not_demote() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let body = move |_b: BackendKind, _t: &CancelToken| {
            seen.fetch_add(1, Ordering::SeqCst);
            Err::<Measurement, _>(WcmsError::ZeroParam { name: "w" })
        };
        let o = supervise_cell("t/broken", BackendKind::Sim, &ResilienceConfig::none(), body);
        assert!(matches!(o.result, CellResult::Skipped { .. }));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a deterministic error must not ladder");
    }

    #[test]
    fn demoted_result_is_persisted_for_resume() {
        let dir = std::env::temp_dir().join(format!("wcms-sup-{}", std::process::id()));
        let store = crate::checkpoint::CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        let resilience = ResilienceConfig {
            timeout: Some(Duration::from_millis(20)),
            retries: 0,
            checkpoint: Some(store),
            ..ResilienceConfig::none()
        };
        let body = |b: BackendKind, t: &CancelToken| match b {
            BackendKind::Sim => loop {
                t.check()?;
                thread::sleep(Duration::from_millis(1));
            },
            _ => Ok(meas(7)),
        };
        let o1 = supervise_cell("t/slow", BackendKind::Sim, &resilience, body);
        assert!(matches!(o1.result, CellResult::Demoted { .. }), "{:?}", o1.result);
        // Resume: the demoted record replays, nothing re-runs (a hang
        // here would time out the test itself).
        let o2 = supervise_cell("t/slow", BackendKind::Sim, &resilience, body);
        assert!(o2.from_checkpoint);
        assert_eq!(o1.result, o2.result);
        std::fs::remove_dir_all(&dir).ok();
    }
}
