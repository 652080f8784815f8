//! The figure runners: each reproduces one figure of §IV as a set of
//! labelled series over a doubling size grid.
//!
//! Every cell runs through the parallel sweep supervisor
//! ([`crate::supervisor::run_sweep`]): a work queue over
//! [`SweepOptions::jobs`] worker threads, with per-cell deadlines
//! enforced through cooperative cancellation, checkpoint/resume,
//! quarantine of corrupt checkpoints, and a backend demotion ladder for
//! cells that keep timing out. With `jobs: 1` and
//! [`crate::resilient::ResilienceConfig::none`] that degrades to a
//! plain sequential call — and the parallel path folds its results in
//! submission order, so the CSV is byte-identical either way.

use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::params::SortVariant;
use wcms_mergesort::SortParams;
use wcms_workloads::WorkloadSpec;

use crate::checkpoint::CellResult;
use crate::experiment::measure_algo_traced;
use crate::resilient::{QuarantinedCell, SkippedCell, SweepReport};
use crate::series::Series;
use crate::supervisor::{run_sweep, SweepOptions};

/// Base seed of the figures' random workloads — part of the checkpoint
/// fingerprint: cells measured under a different seed are different
/// cells.
pub const RANDOM_SEED: u64 = 0xC0FFEE;

/// A library/parameter configuration under test.
#[derive(Debug, Clone)]
pub struct Config {
    /// Legend prefix, e.g. `"Thrust"`.
    pub label: String,
    /// Tuning parameters.
    pub params: SortParams,
}

fn series_label(cfg: &Config, wl: &str) -> String {
    format!("{} E={} b={} {}", cfg.label, cfg.params.e, cfg.params.b, wl)
}

/// Run one grid of `(series label, params, spec, n)` cells under the
/// supervisor and fold the outcomes into series + gaps. Demoted cells
/// contribute their (ladder-produced) measurement like any other point.
fn run_grid(
    figure: &str,
    device: &DeviceSpec,
    cells: Vec<(String, SortParams, WorkloadSpec, usize)>,
    runs: u64,
    opts: &SweepOptions,
    series_order: &[String],
) -> SweepReport {
    let dev = device.clone();
    // The cell body owns a clone of the sweep's obs bundle (clones
    // share the recorder/metrics/clock), so per-sort spans and counters
    // land in the same journal as the supervisor's cell spans.
    let obs = opts.resilience.obs.clone();
    let algorithm = opts.algorithm;
    let sweep = run_sweep(
        cells,
        opts,
        |(label, _, _, n)| format!("{figure}/{label}/{n}"),
        move |(_, params, spec, n), backend, token| {
            measure_algo_traced(&dev, &params, spec, n, runs, algorithm, backend, token, &obs)
        },
    );

    let mut report = SweepReport { stats: sweep.stats.clone(), ..SweepReport::default() };
    for wanted in series_order {
        let mut points = Vec::new();
        for ((label, _, _, n), outcome) in &sweep.cells {
            if label != wanted {
                continue;
            }
            match &outcome.result {
                CellResult::Done(m) | CellResult::Demoted { m, .. } => points.push(m.clone()),
                CellResult::Skipped { reason, attempts } => {
                    // Cells another shard owns are not gaps — they are
                    // simply not this process's work.
                    if !reason.starts_with(crate::shard::DEFERRED_PREFIX) {
                        report.skipped.push(SkippedCell {
                            series: label.clone(),
                            n: *n,
                            reason: reason.clone(),
                            attempts: *attempts,
                        });
                    }
                }
            }
            if let Some(reason) = &outcome.quarantined {
                report.quarantined.push(QuarantinedCell {
                    cell: format!("{figure}/{label}/{n}"),
                    reason: reason.clone(),
                });
            }
        }
        report.series.push(Series { label: wanted.clone(), points });
    }
    report
}

/// Sweep `configs × {random, worst-case}` on `device`. Returns one series
/// per (config, workload), worst-case first per config — the layout of
/// Figures 4 and 5. Failed cells become [`SweepReport::skipped`] gaps.
#[must_use]
pub fn throughput_figure(
    figure: &str,
    device: &DeviceSpec,
    configs: &[Config],
    opts: &SweepOptions,
) -> SweepReport {
    let mut cells = Vec::new();
    let mut order = Vec::new();
    for cfg in configs {
        for (wl_label, spec) in [
            ("worst-case", WorkloadSpec::WorstCase),
            ("random", WorkloadSpec::RandomPermutation { seed: RANDOM_SEED }),
        ] {
            order.push(series_label(cfg, wl_label));
            for n in opts.sweep.sizes(&cfg.params) {
                cells.push((series_label(cfg, wl_label), cfg.params, spec, n));
            }
        }
    }
    run_grid(figure, device, cells, opts.sweep.runs, opts, &order)
}

/// Fig. 4: Quadro M4000 — Thrust (E=15, b=512) and Modern GPU
/// (E=15, b=128), random vs. worst-case throughput.
///
/// # Errors
///
/// Returns the parameter-validation error if a library preset does not
/// fit the device (individual cell failures become gaps instead).
pub fn fig4(opts: &SweepOptions) -> Result<SweepReport, WcmsError> {
    let device = DeviceSpec::quadro_m4000();
    let configs = fig4_configs(&device)?;
    Ok(throughput_figure("fig4", &device, &configs, opts))
}

/// The two library presets of Fig. 4 (shared with the cross-validation
/// harness, which sweeps exactly the figure's cells).
///
/// # Errors
///
/// Returns the parameter-validation error if a preset does not fit the
/// device.
pub fn fig4_configs(device: &DeviceSpec) -> Result<Vec<Config>, WcmsError> {
    Ok(vec![
        Config { label: "Thrust".into(), params: SortParams::thrust(device)? },
        Config { label: "ModernGPU".into(), params: SortParams::mgpu(device)? },
    ])
}

/// Fig. 5 (left): RTX 2080 Ti, Thrust with both parameter sets.
///
/// # Errors
///
/// Same conditions as [`fig4`].
pub fn fig5_thrust(opts: &SweepOptions) -> Result<SweepReport, WcmsError> {
    let device = DeviceSpec::rtx_2080_ti();
    let configs = [
        Config { label: "Thrust".into(), params: SortParams::thrust_e15_b512(&device)? },
        Config { label: "Thrust".into(), params: SortParams::thrust(&device)? },
    ];
    Ok(throughput_figure("fig5-thrust", &device, &configs, opts))
}

/// Fig. 5 (right): RTX 2080 Ti, Modern GPU with both parameter sets.
///
/// # Errors
///
/// Same conditions as [`fig4`].
pub fn fig5_mgpu(opts: &SweepOptions) -> Result<SweepReport, WcmsError> {
    let device = DeviceSpec::rtx_2080_ti();
    let configs = [
        Config {
            label: "ModernGPU".into(),
            params: SortParams::new(32, 15, 512)?.with_variant(SortVariant::ModernGpu),
        },
        Config {
            label: "ModernGPU".into(),
            params: SortParams::new(32, 17, 256)?.with_variant(SortVariant::ModernGpu),
        },
    ];
    Ok(throughput_figure("fig5-mgpu", &device, &configs, opts))
}

/// Fig. 6: RTX 2080 Ti, Thrust, worst-case inputs — runtime per element
/// and bank conflicts per element for both parameter sets. Returns the
/// series in the paper's order — project with `m.ms_per_element` /
/// `m.conflicts_per_element`.
///
/// # Errors
///
/// Same conditions as [`fig4`].
pub(crate) fn fig6(opts: &SweepOptions) -> Result<SweepReport, WcmsError> {
    let device = DeviceSpec::rtx_2080_ti();
    let configs = [
        Config { label: "Thrust".into(), params: SortParams::new(32, 15, 512)? },
        Config { label: "Thrust".into(), params: SortParams::new(32, 17, 256)? },
    ];
    let mut cells = Vec::new();
    let mut order = Vec::new();
    for cfg in &configs {
        order.push(series_label(cfg, "worst-case"));
        for n in opts.sweep.sizes(&cfg.params) {
            cells.push((series_label(cfg, "worst-case"), cfg.params, WorkloadSpec::WorstCase, n));
        }
    }
    Ok(run_grid("fig6", &device, cells, 1, opts, &order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::SweepConfig;
    use crate::resilient::ResilienceConfig;
    use crate::shard::ShardPolicy;
    use wcms_mergesort::{AlgorithmKind, BackendKind};

    fn plain(sweep: SweepConfig) -> SweepOptions {
        SweepOptions {
            sweep,
            resilience: ResilienceConfig::none(),
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            jobs: 1,
            shard: ShardPolicy::Off,
        }
    }

    #[test]
    fn throughput_figure_layout() {
        let device = DeviceSpec::test_device();
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let opts = plain(SweepConfig { min_doublings: 1, max_doublings: 2, runs: 1 });
        let report = throughput_figure("t", &device, &configs, &opts);
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        let series = &report.series;
        assert_eq!(series.len(), 2);
        assert!(series[0].label.contains("worst-case"));
        assert!(series[1].label.contains("random"));
        assert_eq!(series[0].points.len(), 2);
        // Same grid.
        assert_eq!(series[0].points[0].n, series[1].points[0].n);
        // The stats cover the whole grid.
        assert_eq!(report.stats.cells, 4);
        assert_eq!(report.stats.done, 4);
    }

    #[test]
    fn worst_case_series_is_slower_pointwise() {
        let device = DeviceSpec::test_device();
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let opts = plain(SweepConfig { min_doublings: 2, max_doublings: 3, runs: 1 });
        let report = throughput_figure("t", &device, &configs, &opts);
        for (w, r) in report.series[0].points.iter().zip(&report.series[1].points) {
            assert!(w.throughput < r.throughput, "n={}", w.n);
        }
    }

    /// The tentpole's cross-backend contract at the figure level: the
    /// analytic backend reproduces the sim sweep *identically* — every
    /// measurement of every cell, not just the totals.
    #[test]
    fn analytic_figure_equals_sim_figure() {
        let device = DeviceSpec::test_device();
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let sweep = SweepConfig { min_doublings: 1, max_doublings: 2, runs: 1 };
        let sim = throughput_figure("t", &device, &configs, &plain(sweep));
        let analytic = throughput_figure(
            "t",
            &device,
            &configs,
            &SweepOptions { backend: BackendKind::Analytic, ..plain(sweep) },
        );
        assert_eq!(sim.series, analytic.series);
    }

    /// The supervisor's determinism contract: four racing workers fold
    /// to the byte-identical CSV of the sequential path.
    #[test]
    fn parallel_sweep_csv_matches_sequential_byte_for_byte() {
        let device = DeviceSpec::test_device();
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let sweep = SweepConfig { min_doublings: 1, max_doublings: 3, runs: 2 };
        let seq = throughput_figure("t", &device, &configs, &plain(sweep));
        let par =
            throughput_figure("t", &device, &configs, &SweepOptions { jobs: 4, ..plain(sweep) });
        assert_eq!(seq.series, par.series);
        assert_eq!(
            seq.csv(|m| m.throughput),
            par.csv(|m| m.throughput),
            "jobs=4 must render the byte-identical CSV of jobs=1"
        );
        assert_eq!(par.stats.jobs, 4);
    }

    /// The `--algorithm` surface at the figure level: a multiway sweep
    /// runs the same grid gap-free and produces a genuinely different
    /// conflict profile than the pairwise sweep.
    #[test]
    fn multiway_figure_runs_and_differs_from_pairwise() {
        let device = DeviceSpec::test_device();
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let sweep = SweepConfig { min_doublings: 2, max_doublings: 3, runs: 1 };
        let pairwise = throughput_figure("t", &device, &configs, &plain(sweep));
        let multiway = throughput_figure(
            "t",
            &device,
            &configs,
            &SweepOptions { algorithm: AlgorithmKind::Multiway, ..plain(sweep) },
        );
        assert!(multiway.skipped.is_empty(), "{:?}", multiway.skipped);
        assert_eq!(pairwise.series.len(), multiway.series.len());
        assert_ne!(
            pairwise.series, multiway.series,
            "multiway must not silently measure the pairwise pipeline"
        );
    }

    #[test]
    fn fig6_series_shapes() {
        let opts = plain(SweepConfig { min_doublings: 1, max_doublings: 2, runs: 1 });
        let report = fig6(&opts).unwrap();
        assert_eq!(report.series.len(), 2);
        for s in &report.series {
            assert_eq!(s.points.len(), 2);
            // Conflicts per element grow with N (log growth, Fig. 6).
            assert!(s.points[1].conflicts_per_element >= s.points[0].conflicts_per_element);
        }
    }

    /// An impossible device geometry skips every cell of the affected
    /// series (with the occupancy reason) instead of panicking — and the
    /// series still appears, empty, so downstream layout is stable.
    #[test]
    fn misfit_config_degrades_to_gaps() {
        let device = DeviceSpec::test_device();
        let tiny_smem = DeviceSpec { shared_mem_per_sm: 64, ..device.clone() };
        let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
        let opts = plain(SweepConfig { min_doublings: 1, max_doublings: 1, runs: 1 });
        let report = throughput_figure("t", &tiny_smem, &configs, &opts);
        assert_eq!(report.series.len(), 2);
        assert!(report.series.iter().all(|s| s.points.is_empty()));
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped[0].reason.contains("shared-memory"), "{:?}", report.skipped);
    }
}
