//! `sweep-steal`: the Fig. 4 quick grid on the sim backend, executed by
//! two work-stealing workers sharing one checkpoint store.
//!
//! This is the figure-reproduction path: cell bodies are sim replay
//! plus input construction, wrapped in supervision, checkpoint commits
//! and lease claims/steals. Each worker has its own id and one thread,
//! as separate fleet processes would.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wcms_bench::checkpoint::{CellResult, CheckpointStore, SweepFingerprint};
use wcms_bench::experiment::{measure_algo_on, measure_algo_traced, Measurement, SweepConfig};
use wcms_bench::figures::fig4_configs;
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::shard::{RetryJitter, ShardPolicy, DEFAULT_LEASE_TTL};
use wcms_bench::supervisor::{run_sweep, SupervisedSweep, SweepOptions};
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{AlgorithmKind, BackendKind, SortParams};
use wcms_obs::{span, Clock, Obs};
use wcms_workloads::WorkloadSpec;

use crate::calib::Calibration;
use crate::probe::probe_durable_state;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Section;
use crate::{median_setup, overhead_pct};

/// One grid cell: grid index, series label, tuning, input family,
/// length.
type Cell = (usize, String, SortParams, WorkloadSpec, usize);

const WORKERS: [&str; 2] = ["w0", "w1"];
/// Calibration samples on each side of a sweep that scale it (a sweep
/// takes about 2.5 s).
const CALIBRATION_RADIUS: usize = 1;
/// Sweeps in each half (bare, traced) of the traced run.
const TRACED_SWEEPS: usize = 2;
/// Direct checkpoint/lease calls per probe.
const DURABLE_REPS: usize = 40;

struct Setup {
    device: DeviceSpec,
    sweep: SweepConfig,
    cells: Vec<Cell>,
    /// `measure_algo_on` of every cell at the grid's smallest size for
    /// its tuning, by grid index.
    reference: Vec<(usize, Measurement)>,
}

/// Thrust and Modern GPU × worst-case / random(seed) × m = 1..5, two
/// runs per random cell: 20 cells.
fn setup(seed: u64) -> Result<Setup, String> {
    let device = DeviceSpec::quadro_m4000();
    let sweep = SweepConfig::quick();
    let mut cells = Vec::new();
    for cfg in fig4_configs(&device).map_err(|e| e.to_string())? {
        for (label, spec) in [
            ("worst-case", WorkloadSpec::WorstCase),
            ("random", WorkloadSpec::RandomPermutation { seed }),
        ] {
            for n in sweep.sizes(&cfg.params) {
                cells.push((cells.len(), format!("{} {label}", cfg.label), cfg.params, spec, n));
            }
        }
    }
    let smallest = |(_, _, params, _, n): &Cell| *n == params.block_elems() << sweep.min_doublings;
    let reference = (0..cells.len())
        .filter(|&i| smallest(&cells[i]))
        .map(|i| {
            let (_, _, params, spec, n) = &cells[i];
            measure_algo_on(
                &device,
                params,
                *spec,
                *n,
                sweep.runs,
                AlgorithmKind::Pairwise,
                BackendKind::Sim,
            )
            .map(|m| (i, m))
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Setup { device, sweep, cells, reference })
}

/// What one sweep measured.
struct SweepRun {
    /// The calibration sample taken before it.
    tag: usize,
    wall_s: f64,
    /// Per worker: its sweep and its own wall time.
    workers: Vec<(SupervisedSweep<Cell>, f64)>,
    /// Every cell body's run: grid index and wall time in seconds.
    bodies: Vec<(usize, f64)>,
}

impl Setup {
    /// One sweep: a fresh store, both workers started together. Cell
    /// bodies run inside `cell.body` spans on `obs`.
    fn sweep(&self, seed: u64, dir: &Path, obs: &Obs) -> Result<SweepRun, String> {
        let fingerprint = SweepFingerprint {
            figure: "sweep-steal".into(),
            backend: BackendKind::Sim.name().into(),
            algorithm: AlgorithmKind::Pairwise.name().into(),
            min_doublings: self.sweep.min_doublings,
            max_doublings: self.sweep.max_doublings,
            runs: self.sweep.runs,
            seed,
        };
        let store =
            CheckpointStore::open_for(dir, &fingerprint, false).map_err(|e| e.to_string())?;
        let bodies = Arc::new(Mutex::new(Vec::new()));
        let t0 = Instant::now();
        let workers = std::thread::scope(|s| {
            let handles: Vec<_> = WORKERS
                .iter()
                .map(|worker| {
                    let (store, bodies) = (store.clone(), bodies.clone());
                    s.spawn(move || {
                        let t = Instant::now();
                        let swept = self.worker_sweep(worker, seed, store, obs, bodies);
                        (swept, t.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| "a sweep worker panicked".to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        let bodies = bodies.lock().map_err(|_| "body times lock poisoned")?.clone();
        Ok(SweepRun { tag: 0, wall_s, workers, bodies })
    }

    /// One worker's `run_sweep`, configured as `fig4 --steal
    /// --worker-id <worker> --jobs 1` configures it.
    fn worker_sweep(
        &self,
        worker: &str,
        seed: u64,
        store: CheckpointStore,
        obs: &Obs,
        bodies: Arc<Mutex<Vec<(usize, f64)>>>,
    ) -> SupervisedSweep<Cell> {
        let resilience = ResilienceConfig {
            checkpoint: Some(store),
            jitter: Some(RetryJitter { seed, stream: worker.to_string() }),
            obs: Obs::enabled(Clock::wall()),
            ..ResilienceConfig::none()
        };
        let opts = SweepOptions {
            sweep: self.sweep,
            resilience,
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            jobs: 1,
            shard: ShardPolicy::Steal { worker: worker.to_string(), ttl: DEFAULT_LEASE_TTL },
        };
        let (device, runs, cell_obs, span_obs) =
            (self.device.clone(), self.sweep.runs, opts.resilience.obs.clone(), obs.clone());
        run_sweep(
            self.cells.clone(),
            &opts,
            |(_, label, _, _, n)| format!("sweep-steal/{label}/{n}"),
            move |(index, _, params, spec, n), backend, token| {
                let t = Instant::now();
                let m = {
                    let _body = span!(span_obs, "cell.body");
                    measure_algo_traced(
                        &device,
                        &params,
                        spec,
                        n,
                        runs,
                        AlgorithmKind::Pairwise,
                        backend,
                        token,
                        &cell_obs,
                    )
                };
                if let Ok(mut b) = bodies.lock() {
                    b.push((index, t.elapsed().as_secs_f64()));
                }
                m
            },
        )
    }

    /// Every cell resolved, both workers agree cell by cell, and the
    /// measurements equal `first` (the first sweep's) and the set-up's
    /// direct measurements.
    fn check(
        &self,
        run: &SweepRun,
        first: Option<&[Measurement]>,
    ) -> Result<Vec<Measurement>, String> {
        let mut agreed: Option<Vec<Measurement>> = None;
        for (sweep, _) in &run.workers {
            let ms = sweep
                .cells
                .iter()
                .map(|((_, label, _, _, n), o)| match &o.result {
                    CellResult::Done(m) => Ok(m.clone()),
                    other => Err(format!("cell {label}/{n} did not resolve: {other:?}")),
                })
                .collect::<Result<Vec<_>, _>>()?;
            if agreed.as_ref().is_some_and(|a| *a != ms) {
                return Err("the two workers disagree on a measurement".into());
            }
            agreed = Some(ms);
        }
        let ms = agreed.ok_or("no worker ran")?;
        if first.is_some_and(|f| f != ms.as_slice()) {
            return Err("a measurement differs from the first sweep's".into());
        }
        for (i, m) in &self.reference {
            if ms[*i] != *m {
                return Err(format!("cell {i} differs from its direct measurement"));
            }
        }
        Ok(ms)
    }

    /// Sweep `count` times or until `until`, each after `before` (whose
    /// result tags the sweep), checking each against the first sweep
    /// that checked out (kept in `first`); returns the sweeps that
    /// checked out.
    #[allow(clippy::too_many_arguments)] // the loop's bounds plus its shared state
    fn sweeps(
        &self,
        seed: u64,
        dir: &Path,
        count: usize,
        until: Option<Instant>,
        obs: &Obs,
        mut before: impl FnMut() -> usize,
        first: &mut Option<Vec<Measurement>>,
        out: &mut Outcome,
    ) -> Result<Vec<SweepRun>, String> {
        let mut done = Vec::new();
        while done.len() < count && until.is_none_or(|t| Instant::now() < t) {
            let tag = before();
            let mut run = self.sweep(seed, &dir.join(format!("sweep-{}", out.attempted)), obs)?;
            run.tag = tag;
            out.attempted += self.cells.len() as u64;
            match self.check(&run, first.as_deref()) {
                Ok(ms) => {
                    first.get_or_insert(ms);
                    done.push(run);
                }
                Err(e) => {
                    out.failed += self.cells.len() as u64;
                    out.problem(e);
                }
            }
        }
        Ok(done)
    }
}

/// `cells` over the median sweep wall, each wall multiplied by
/// `scale(run)`.
fn cells_per_s(runs: &[SweepRun], cells: usize, scale: impl Fn(&SweepRun) -> f64) -> f64 {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s * scale(r)).collect();
    median(&walls).map_or(f64::NAN, |w| cells as f64 / w)
}

/// The timed run: sweeps back to back for `seconds`, a two-thread
/// calibration sample before every sweep.
///
/// # Errors
///
/// A setup failure or an unusable state directory.
pub fn run(seed: u64, seconds: u64, dir: &Path) -> Result<Outcome, String> {
    let mut cal = Calibration::new(2);
    let (setup_s, s) = median_setup(Some(&mut cal), || setup(seed))?;
    let mut out = Outcome::default();
    let until = Instant::now() + Duration::from_secs(seconds);
    let runs = s.sweeps(
        seed,
        dir,
        usize::MAX,
        Some(until),
        Obs::noop(),
        || cal.sample(),
        &mut None,
        &mut out,
    )?;
    let scale = |r: &SweepRun| cal.scale_near(r.tag, CALIBRATION_RADIUS);
    // Each cell's median over the run's sweeps, then percentiles over
    // the cells: the grid's cell times cluster by size, so a percentile
    // of the pooled runs would land on a cluster edge and read that
    // edge's noisiest run.
    let mut per_cell = vec![Vec::new(); s.cells.len()];
    for r in &runs {
        for &(i, t) in &r.bodies {
            per_cell[i].push(t * 1e3 * scale(r));
        }
    }
    let ms: Vec<f64> = per_cell.iter().filter_map(|v| median(v)).collect();
    out.calibration_ms = Some(cal.kernel_ms());
    out.set("setup_s", setup_s * cal.scale());
    out.set("throughput_per_s", cells_per_s(&runs, s.cells.len(), scale));
    if let (Some(p50), Some(p90)) = (percentile(&ms, 0.5), percentile(&ms, 0.9)) {
        out.set_percentile("latency_p50_ms", p50, ms.len());
        out.set_percentile("latency_p90_ms", p90, ms.len());
    }
    Ok(out)
}

/// The traced section: bare sweeps interleaved with traced ones (a span
/// around every cell body), cell input construction timed per cell, and
/// direct checkpoint and lease calls.
///
/// # Errors
///
/// A setup failure, an unusable state directory or an invalid journal.
pub fn traced(seed: u64, dir: &Path, out_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let section = Section::new("sweep-steal");
    let (mut bare, mut traced, mut first) = (Vec::new(), Vec::new(), None);
    for _ in 0..TRACED_SWEEPS {
        bare.extend(s.sweeps(seed, dir, 1, None, Obs::noop(), || 0, &mut first, out)?);
        traced.extend(s.sweeps(seed, dir, 1, None, &section.obs, || 0, &mut first, out)?);
    }
    for (_, _, params, spec, n) in &s.cells {
        let _cell = span!(section.obs, "builder.cell_input");
        for run in 0..s.sweep.runs {
            spec.with_run_seed(run)
                .generate(*n, params.w, params.e, params.b)
                .map_err(|e| e.to_string())?;
            if matches!(spec, WorkloadSpec::WorstCase) {
                break;
            }
        }
    }
    let sample = traced
        .first()
        .and_then(|r| r.workers.first())
        .and_then(|(w, _)| w.cells.first())
        .map(|(_, o)| o.result.clone())
        .ok_or("no traced sweep completed")?;
    probe_durable_state(&section.obs, &dir.join("durable"), &sample, DURABLE_REPS)?;
    let _ = std::fs::remove_dir_all(dir.join("durable"));
    let p = section.finish(out_dir)?;

    let cells = s.cells.len() as f64;
    let sweeps = traced.len() as f64;
    let body = p.span("cell.body");
    let worker_s: f64 = traced.iter().flat_map(|r| r.workers.iter().map(|(_, w)| w)).sum();
    let longest = traced
        .iter()
        .map(|r| r.bodies.iter().map(|b| b.1).fold(0.0, f64::max) / r.wall_s)
        .fold(0.0, f64::max);
    let replayed: usize = traced
        .iter()
        .flat_map(|r| &r.workers)
        .map(|(w, _)| w.cells.iter().filter(|(_, o)| o.from_checkpoint).count())
        .sum();
    out.set("supervisor.body_frac", body.total_us as f64 / 1e6 / worker_s);
    out.set(
        "supervisor.overhead_ms_per_cell",
        (worker_s - body.total_us as f64 / 1e6) * 1e3 / (cells * sweeps * WORKERS.len() as f64),
    );
    out.set("supervisor.critical_path_frac", longest);
    out.set("shard.replayed_per_sweep", replayed as f64 / sweeps);
    out.set("shard.dup_exec_frac", body.count as f64 / (cells * sweeps) - 1.0);
    let input = p.span("builder.cell_input");
    out.set("builder.cell_input_ms", input.total_us as f64 / 1e3 / input.count as f64);
    for (metric, name) in [
        ("checkpoint.commit_us", "checkpoint.store"),
        ("checkpoint.load_us", "checkpoint.load"),
        ("shard.claim_release_us", "shard.claim_release"),
    ] {
        let t = p.span(name);
        out.set(metric, t.total_us as f64 / t.count as f64);
    }
    out.set(
        "trace.overhead_pct.sweep-steal",
        overhead_pct(
            cells_per_s(&bare, s.cells.len(), |_| 1.0),
            cells_per_s(&traced, s.cells.len(), |_| 1.0),
            true,
        ),
    );
    Ok(())
}
