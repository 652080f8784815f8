//! Cross-validation of the analytic backend against the cycle-accurate
//! simulator: same inputs, same parameters, *integer-identical* reports.
//!
//! The analytic backend's whole value proposition is that it replays the
//! shared Merge Path schedules into a counting accumulator instead of
//! moving data through the simulated shared memory — faster (every run
//! prints the measured ratio) with exactly the same counters. "Exactly"
//! is a strong claim, so this harness runs both backends over the
//! figure-4 grid (padded tiles included) and the paper's worst-case
//! families (small-E Theorem 3, large-E Theorem 9, and the power-of-two
//! case where sorted order *is* the worst case) and compares outputs and
//! full [`SortReport`]s with `==` — no tolerances anywhere.
//!
//! The grid quantifies over the *algorithm* too: every cell runs once
//! per [`AlgorithmKind`], so the k-way multiway rounds are held to the
//! same integer-identity bar as the pairwise rounds. Each cell also
//! checks the CPU reference backend's output (the degrade rung carries
//! no counters, but its sort must agree element for element).

use wcms_error::WcmsError;
use wcms_mergesort::{
    sort_algo_with_report_traced_on, AlgorithmKind, AnalyticBackend, ReferenceBackend, SimBackend,
    SortParams, SortReport,
};
use wcms_obs::Obs;
use wcms_workloads::WorkloadSpec;

use crate::experiment::SweepConfig;
use crate::figures::fig4_configs;

/// One `(params, workload, N)` cell to validate.
#[derive(Debug, Clone)]
pub struct CrossJob {
    /// Cell label for the report table.
    pub(crate) label: String,
    /// Tuning parameters.
    pub(crate) params: SortParams,
    /// Input class.
    pub(crate) spec: WorkloadSpec,
    /// Input size.
    pub(crate) n: usize,
    /// Sort algorithm under validation.
    pub(crate) algorithm: AlgorithmKind,
}

/// The outcome of one validated cell.
#[derive(Debug, Clone)]
pub struct CrossCell {
    /// Cell label.
    pub(crate) label: String,
    /// Input size.
    pub(crate) n: usize,
    /// Total shared-memory cycles as counted by the simulator.
    sim_cycles: usize,
    /// Total shared-memory cycles as counted analytically.
    analytic_cycles: usize,
    /// `None` when output and report match exactly; otherwise what
    /// diverged first.
    pub(crate) mismatch: Option<String>,
}

/// A full cross-validation run: per-cell verdicts plus the wall-clock
/// cost of each backend.
#[derive(Debug, Clone, Default)]
pub struct CrossReport {
    /// Per-cell outcomes.
    pub(crate) cells: Vec<CrossCell>,
    /// Total seconds spent in the sim backend.
    sim_s: f64,
    /// Total seconds spent in the analytic backend.
    analytic_s: f64,
}

impl CrossReport {
    /// Did every cell match exactly?
    #[must_use]
    pub fn all_equal(&self) -> bool {
        self.cells.iter().all(|c| c.mismatch.is_none())
    }

    /// The cells that diverged.
    #[must_use]
    pub fn mismatches(&self) -> Vec<&CrossCell> {
        self.cells.iter().filter(|c| c.mismatch.is_some()).collect()
    }

    /// Wall-clock speedup of the analytic backend over the simulator.
    #[must_use]
    pub(crate) fn speedup(&self) -> f64 {
        if self.analytic_s > 0.0 {
            self.sim_s / self.analytic_s
        } else {
            f64::INFINITY
        }
    }

    /// Render the per-cell table plus the speedup line.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>14} {:>14} {:>8}",
            "cell", "N", "sim cycles", "analytic", "match"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>14} {:>14} {:>8}",
                c.label,
                c.n,
                c.sim_cycles,
                c.analytic_cycles,
                if c.mismatch.is_none() { "exact" } else { "DIFF" }
            );
            if let Some(why) = &c.mismatch {
                let _ = writeln!(out, "    mismatch: {why}");
            }
        }
        let _ = writeln!(
            out,
            "sim {:.3} s, analytic {:.3} s — speedup {:.1}x over {} cells",
            self.sim_s,
            self.analytic_s,
            self.speedup(),
            self.cells.len()
        );
        out
    }
}

fn first_divergence(sim: &SortReport, analytic: &SortReport) -> String {
    if sim.base != analytic.base {
        return format!("base case: sim {:?} vs analytic {:?}", sim.base, analytic.base);
    }
    if sim.rounds.len() != analytic.rounds.len() {
        return format!(
            "round count: sim {} vs analytic {}",
            sim.rounds.len(),
            analytic.rounds.len()
        );
    }
    for (i, (s, a)) in sim.rounds.iter().zip(&analytic.rounds).enumerate() {
        if s != a {
            return format!("global round {i}: sim {s:?} vs analytic {a:?}");
        }
    }
    "reports differ outside base/rounds".into()
}

/// Run both backends over `jobs` and compare.
///
/// # Errors
///
/// Propagates generator errors and sort failures from either backend —
/// a cell that cannot run at all is a harness bug, not a mismatch.
pub fn cross_validate(jobs: &[CrossJob]) -> Result<CrossReport, WcmsError> {
    cross_validate_traced(jobs, Obs::noop())
}

/// [`cross_validate`] under an [`Obs`] bundle: per-backend wall times
/// come from the bundle's [`wcms_obs::Clock`] (so a virtual clock makes
/// the speedup figure deterministic in tests), and each sort's spans
/// and counters land in the trace/metrics when enabled.
///
/// # Errors
///
/// Same conditions as [`cross_validate`].
fn cross_validate_traced(jobs: &[CrossJob], obs: &Obs) -> Result<CrossReport, WcmsError> {
    let mut report = CrossReport::default();
    for job in jobs {
        let input = job.spec.generate(job.n, job.params.w, job.params.e, job.params.b)?;
        let algo = job.algorithm.instance();

        let t0 = obs.clock.now_us();
        let (sim_out, sim_rep) =
            sort_algo_with_report_traced_on(&input, &job.params, algo, &SimBackend, obs)?;
        report.sim_s += obs.clock.elapsed_s(t0);

        let t0 = obs.clock.now_us();
        let (ana_out, ana_rep) =
            sort_algo_with_report_traced_on(&input, &job.params, algo, &AnalyticBackend, obs)?;
        report.analytic_s += obs.clock.elapsed_s(t0);

        let (ref_out, _) =
            sort_algo_with_report_traced_on(&input, &job.params, algo, &ReferenceBackend, obs)?;

        let mismatch = if sim_out != ana_out {
            Some("sorted outputs differ".into())
        } else if ref_out != sim_out {
            Some("reference backend output diverged".into())
        } else if sim_rep != ana_rep {
            Some(first_divergence(&sim_rep, &ana_rep))
        } else {
            None
        };
        report.cells.push(CrossCell {
            label: job.label.clone(),
            n: job.n,
            sim_cycles: sim_rep.total().shared.combined().cycles,
            analytic_cycles: ana_rep.total().shared.combined().cycles,
            mismatch,
        });
    }
    Ok(report)
}

/// The standard validation grid: the Fig. 4 presets (worst-case and
/// random), the Fig. 4 Thrust preset with padded tiles, the three
/// worst-case families — small-E (Theorem 3), large-E (Theorem 9),
/// power-of-two E (where sorted order is worst) — and a sorted-input
/// control.
///
/// # Errors
///
/// Returns parameter-validation errors from the presets.
pub fn default_jobs(sweep: &SweepConfig) -> Result<Vec<CrossJob>, WcmsError> {
    let device = wcms_gpu_sim::DeviceSpec::quadro_m4000();
    let mut cells: Vec<(String, SortParams, WorkloadSpec, usize)> = Vec::new();
    // The figure-4 grid, at the small end of the sweep (the big end is
    // the figure runners' job — here every cell runs twice per
    // algorithm).
    let doublings = sweep.min_doublings..=sweep.max_doublings.min(sweep.min_doublings + 1);
    for cfg in fig4_configs(&device)? {
        for (wl, spec) in [
            ("worst-case", WorkloadSpec::WorstCase),
            ("random", WorkloadSpec::RandomPermutation { seed: 0xC0FFEE }),
        ] {
            for m in doublings.clone() {
                cells.push((
                    format!("fig4/{} E={} b={} {wl}", cfg.label, cfg.params.e, cfg.params.b),
                    cfg.params,
                    spec,
                    cfg.params.block_elems() << m,
                ));
            }
        }
    }
    // Padded tiles at the production tuning, on its worst-case input at
    // the sweep's smallest size: padding moves every shared-memory
    // address, so its schedules need a cell of their own.
    let padded = SortParams::thrust(&device)?.with_padding();
    cells.push((
        format!("fig4/Thrust E={} b={} worst-case padded", padded.e, padded.b),
        padded,
        WorkloadSpec::WorstCase,
        padded.block_elems() << sweep.min_doublings,
    ));
    // The worst-case families of §III, at a bench-friendly block size.
    let families = [
        ("family/small-E (Thm 3)", SortParams::new(32, 3, 64)?, WorkloadSpec::WorstCase),
        ("family/large-E (Thm 9)", SortParams::new(32, 17, 64)?, WorkloadSpec::WorstCase),
        (
            "family/power-of-two E (sorted is worst)",
            SortParams::new(32, 16, 64)?,
            WorkloadSpec::Sorted,
        ),
        ("control/sorted", SortParams::new(32, 15, 64)?, WorkloadSpec::Sorted),
    ];
    for (label, params, spec) in families {
        for m in [2u32, 4] {
            cells.push((label.into(), params, spec, params.block_elems() << m));
        }
    }
    // Quantify over the algorithm: the multiway rounds are held to the
    // same zero-tolerance bar as the pairwise rounds, cell for cell.
    let mut jobs = Vec::new();
    for algorithm in AlgorithmKind::ALL {
        for (label, params, spec, n) in &cells {
            let label = match algorithm {
                AlgorithmKind::Pairwise => label.clone(),
                other => format!("{label} [{other}]"),
            };
            jobs.push(CrossJob { label, params: *params, spec: *spec, n: *n, algorithm });
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_jobs() -> Vec<CrossJob> {
        let mut jobs = Vec::new();
        for algorithm in AlgorithmKind::ALL {
            for (e, spec) in [
                (3usize, WorkloadSpec::WorstCase),
                (7, WorkloadSpec::WorstCase),
                (16, WorkloadSpec::Sorted),
                (15, WorkloadSpec::RandomPermutation { seed: 5 }),
            ] {
                let params = SortParams::new(32, e, 64).unwrap();
                jobs.push(CrossJob {
                    label: format!("E={e} {} [{algorithm}]", spec.label()),
                    params,
                    spec,
                    n: params.block_elems() * 4,
                    algorithm,
                });
            }
        }
        jobs
    }

    #[test]
    fn analytic_matches_sim_on_families_and_random() {
        let report = cross_validate(&tiny_jobs()).unwrap();
        assert!(report.all_equal(), "{}", report.render());
        for c in &report.cells {
            assert_eq!(c.sim_cycles, c.analytic_cycles, "{}", c.label);
            assert!(c.sim_cycles > 0, "{}: zero cycles means nothing was counted", c.label);
        }
    }

    #[test]
    fn default_grid_covers_presets_families_and_algorithms() {
        let jobs = default_jobs(&SweepConfig::quick()).unwrap();
        for needle in ["fig4/Thrust", "fig4/ModernGPU", "small-E", "large-E", "power-of-two"] {
            assert!(jobs.iter().any(|j| j.label.contains(needle)), "missing {needle}");
        }
        assert!(jobs.iter().any(|j| matches!(j.spec, WorkloadSpec::Sorted)));
        // Every cell appears once per algorithm, the padded one included.
        for kind in AlgorithmKind::ALL {
            assert!(
                jobs.iter().any(|j| j.algorithm == kind && j.params.smem_padding),
                "missing a padded cell under {kind}"
            );
            assert_eq!(
                jobs.iter().filter(|j| j.algorithm == kind).count(),
                jobs.len() / AlgorithmKind::ALL.len(),
                "the grid must quantify evenly over algorithms"
            );
        }
        assert!(
            jobs.iter().any(|j| j.algorithm == AlgorithmKind::Multiway
                && j.label.contains("small-E")
                && j.label.contains("multiway")),
            "the worst-case families must run under multiway too"
        );
    }

    #[test]
    fn render_reports_divergence() {
        let mut report = cross_validate(&tiny_jobs()[..1]).unwrap();
        report.cells[0].mismatch = Some("synthetic".into());
        assert!(!report.all_equal());
        assert_eq!(report.mismatches().len(), 1);
        assert!(report.render().contains("DIFF"));
        assert!(report.render().contains("synthetic"));
    }

    /// The analytic backend must be cheaper in wall-clock terms too —
    /// the acceptance bar is ≥5x on the release-mode default sweep;
    /// here (debug mode, tiny inputs) we only pin the direction, with a
    /// workload big enough that the gap dominates timer noise.
    #[test]
    fn analytic_is_faster_than_sim() {
        let params = SortParams::new(32, 15, 128).unwrap();
        let jobs = vec![CrossJob {
            label: "speedup probe".into(),
            params,
            spec: WorkloadSpec::WorstCase,
            n: params.block_elems() << 4,
            algorithm: AlgorithmKind::Pairwise,
        }];
        let report = cross_validate(&jobs).unwrap();
        assert!(report.all_equal(), "{}", report.render());
        assert!(
            report.speedup() > 1.0,
            "analytic must beat sim: sim {:.3}s analytic {:.3}s",
            report.sim_s,
            report.analytic_s
        );
    }
}
