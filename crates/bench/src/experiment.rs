//! The measurement core: one `(device, params, workload, N)` point.
//!
//! A measurement runs the full simulated sort, takes the *measured*
//! conflict and traffic counters, and converts them to modelled time via
//! the documented cost model. Random workloads are averaged over several
//! seeded runs, mirroring the paper's 10-run averages (and, unlike most
//! GPU papers — as §II-C complains — we also keep the spread).

use serde::{Deserialize, Serialize};
use wcms_dmm::stats::Summary;
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::{CostModel, DeviceSpec, Occupancy};
use wcms_mergesort::{
    sort_algo_with_report_traced_on, AlgorithmKind, BackendKind, Cancellable, SortParams,
    SortReport,
};
use wcms_obs::Obs;
use wcms_workloads::WorkloadSpec;

/// One measured point of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Input size.
    pub n: usize,
    /// Modelled throughput, elements/second (mean over runs).
    pub throughput: f64,
    /// Modelled runtime, milliseconds (mean over runs).
    pub ms: f64,
    /// Spread of the modelled throughput over runs.
    pub throughput_spread: Summary,
    /// Mean merge-phase conflict degree of the global rounds (Karsin β₂).
    pub beta2: f64,
    /// Mean partition-phase conflict degree of the global rounds (β₁).
    pub beta1: f64,
    /// Bank-conflict extra cycles per element (Fig. 6 right axis).
    pub conflicts_per_element: f64,
    /// Modelled milliseconds per element (Fig. 6 left axis).
    pub ms_per_element: f64,
}

/// Sweep configuration shared by the figure runners.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Smallest size as `bE · 2^min_doublings`.
    pub min_doublings: u32,
    /// Largest size as `bE · 2^max_doublings`.
    pub max_doublings: u32,
    /// Runs to average for seeded workloads (the paper uses 10).
    pub runs: u64,
}

impl SweepConfig {
    /// Quick sweep for CI / smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self { min_doublings: 1, max_doublings: 5, runs: 2 }
    }

    /// The default figure sweep.
    #[must_use]
    pub fn standard() -> Self {
        Self { min_doublings: 1, max_doublings: 8, runs: 3 }
    }

    /// Large sweep approaching the paper's sizes (minutes of CPU time).
    #[must_use]
    pub fn full() -> Self {
        Self { min_doublings: 1, max_doublings: 11, runs: 3 }
    }

    /// The sizes of this sweep for a given parameter set.
    #[must_use]
    pub fn sizes(&self, params: &SortParams) -> Vec<usize> {
        (self.min_doublings..=self.max_doublings).map(|m| params.block_elems() << m).collect()
    }
}

/// Convert a sort report into modelled time on `device`.
///
/// # Errors
///
/// Returns [`WcmsError::OccupancyMisfit`] / [`WcmsError::SharedMemOverflow`]
/// naming the `(E, b, device)` triple when the tuning cannot launch on
/// the device.
pub fn model_time(
    device: &DeviceSpec,
    params: &SortParams,
    report: &SortReport,
) -> Result<f64, WcmsError> {
    let occ = Occupancy::compute(device, params.b, params.shared_bytes()).map_err(|e| match e {
        // The occupancy layer knows b and the tile, not the tuning; add
        // E so a sweep log names the full (E, b, device) cell.
        WcmsError::OccupancyMisfit { device, block_threads, shared_bytes, reason } => {
            WcmsError::OccupancyMisfit {
                device,
                block_threads,
                shared_bytes,
                reason: format!("E={}: {reason}", params.e),
            }
        }
        other => other,
    })?;
    let model = CostModel::default();
    let t = model.estimate(device, &occ, &report.kernel_counters(), report.blocks_launched());
    Ok(t.total_s)
}

/// Measure one point on `backend`, averaging seeded workloads over
/// `runs` runs. The sim and analytic backends yield identical
/// measurements (their counters agree integer for integer); the
/// reference backend models no GPU work and reports zero time and
/// throughput — it exists for output validation, not measurement.
///
/// # Errors
///
/// Propagates generator errors (bad `(w, E, b, n)`), kernel-detected
/// corruption from the simulated sort, and occupancy misfits from the
/// cost model.
pub fn measure_on(
    device: &DeviceSpec,
    params: &SortParams,
    spec: WorkloadSpec,
    n: usize,
    runs: u64,
    backend: BackendKind,
) -> Result<Measurement, WcmsError> {
    measure_algo_on(device, params, spec, n, runs, AlgorithmKind::Pairwise, backend)
}

/// [`measure_on`] for an explicit algorithm — the ad-hoc binaries'
/// entry point for `--algorithm` sweeps.
///
/// # Errors
///
/// Same conditions as [`measure_on`].
pub fn measure_algo_on(
    device: &DeviceSpec,
    params: &SortParams,
    spec: WorkloadSpec,
    n: usize,
    runs: u64,
    algorithm: AlgorithmKind,
    backend: BackendKind,
) -> Result<Measurement, WcmsError> {
    measure_algo_traced(
        device,
        params,
        spec,
        n,
        runs,
        algorithm,
        backend,
        &CancelToken::never(),
        Obs::noop(),
    )
}

/// Measure one point of `algorithm` on `backend` — the fully general
/// cell: `(device, params, workload, N, algorithm, backend)` under a
/// [`CancelToken`] and an [`Obs`] bundle. Multiway runs fewer, wider
/// global rounds than pairwise and reports its own conflict profile.
///
/// The token is threaded into the backend's per-unit checks (and polled
/// between runs), so a supervisor deadline stops the measurement at the
/// next work-unit boundary instead of after the whole cell. Every
/// sort's spans and per-round counter events land in the trace, and its
/// merge-step / conflict counters in the metrics registry; the
/// measurement itself is byte-identical to the untraced path
/// (observation is read-only).
///
/// # Errors
///
/// Same conditions as [`measure_on`], plus [`WcmsError::Cancelled`]
/// when the token fires mid-measurement.
#[allow(clippy::too_many_arguments)] // the cell tuple plus token and obs
pub fn measure_algo_traced(
    device: &DeviceSpec,
    params: &SortParams,
    spec: WorkloadSpec,
    n: usize,
    runs: u64,
    algorithm: AlgorithmKind,
    backend: BackendKind,
    token: &CancelToken,
    obs: &Obs,
) -> Result<Measurement, WcmsError> {
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs as usize);
    let mut beta1 = Vec::new();
    let mut beta2 = Vec::new();
    let mut cpe = Vec::new();
    let gated = Cancellable::new(backend, token.clone());
    for run in 0..runs {
        token.check()?;
        let input = spec.with_run_seed(run).generate(n, params.w, params.e, params.b)?;
        let (out, report) =
            sort_algo_with_report_traced_on(&input, params, algorithm.instance(), &gated, obs)?;
        debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // The reference backend does no GPU work at all, so the cost
        // model does not apply — not even its per-launch overhead floor.
        times.push(if backend == BackendKind::Reference {
            0.0
        } else {
            model_time(device, params, &report)?
        });
        beta1.push(report.global_beta1().unwrap_or(1.0));
        beta2.push(report.global_beta2().unwrap_or(1.0));
        cpe.push(report.conflicts_per_element());
        // Deterministic classes need only one run.
        if matches!(
            spec,
            WorkloadSpec::Sorted
                | WorkloadSpec::Reverse
                | WorkloadSpec::WorstCase
                | WorkloadSpec::ConflictHeavy { .. }
                | WorkloadSpec::Sawtooth { .. }
        ) {
            break;
        }
    }
    // The reference backend charges no counters, so its modelled time is
    // zero; keep the throughput finite (zero) rather than infinite.
    let throughputs: Vec<f64> =
        times.iter().map(|t| if *t > 0.0 { n as f64 / t } else { 0.0 }).collect();
    // `runs` is clamped to ≥ 1 above, so the sample is never empty.
    let spread = Summary::of(&throughputs).ok_or(WcmsError::ZeroParam { name: "runs" })?;
    let mean_time = times.iter().sum::<f64>() / times.len() as f64;
    Ok(Measurement {
        n,
        throughput: spread.mean,
        ms: mean_time * 1e3,
        throughput_spread: spread,
        beta1: beta1.iter().sum::<f64>() / beta1.len() as f64,
        beta2: beta2.iter().sum::<f64>() / beta2.len() as f64,
        conflicts_per_element: cpe.iter().sum::<f64>() / cpe.len() as f64,
        ms_per_element: mean_time * 1e3 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (DeviceSpec, SortParams) {
        (DeviceSpec::test_device(), SortParams::new(32, 7, 64).unwrap())
    }

    #[test]
    fn measure_random_point() {
        let (d, p) = tiny();
        let n = p.block_elems() * 4;
        let m =
            measure_on(&d, &p, WorkloadSpec::RandomPermutation { seed: 1 }, n, 2, BackendKind::Sim)
                .unwrap();
        assert_eq!(m.n, n);
        assert!(m.throughput > 0.0);
        assert!(m.ms > 0.0);
        assert!(m.beta2 >= 1.0);
        assert_eq!(m.throughput_spread.n, 2);
    }

    #[test]
    fn worst_case_slower_than_random() {
        let (d, p) = tiny();
        let n = p.block_elems() * 8;
        let worst = measure_on(&d, &p, WorkloadSpec::WorstCase, n, 1, BackendKind::Sim).unwrap();
        let random =
            measure_on(&d, &p, WorkloadSpec::RandomPermutation { seed: 3 }, n, 2, BackendKind::Sim)
                .unwrap();
        assert!(
            worst.throughput < random.throughput,
            "worst {} !< random {}",
            worst.throughput,
            random.throughput
        );
        assert!(worst.beta2 > random.beta2);
    }

    #[test]
    fn deterministic_specs_run_once() {
        let (d, p) = tiny();
        let n = p.block_elems() * 2;
        let m = measure_on(&d, &p, WorkloadSpec::Sorted, n, 5, BackendKind::Sim).unwrap();
        assert_eq!(m.throughput_spread.n, 1);
    }

    #[test]
    fn analytic_backend_measures_identically() {
        let (d, p) = tiny();
        let n = p.block_elems() * 4;
        let spec = WorkloadSpec::RandomPermutation { seed: 11 };
        let sim = measure_on(&d, &p, spec, n, 2, BackendKind::Sim).unwrap();
        let analytic = measure_on(&d, &p, spec, n, 2, BackendKind::Analytic).unwrap();
        assert_eq!(sim, analytic, "identical counters must yield identical measurements");
    }

    #[test]
    fn reference_backend_reports_zero_time() {
        let (d, p) = tiny();
        let n = p.block_elems() * 2;
        let m = measure_on(&d, &p, WorkloadSpec::Sorted, n, 1, BackendKind::Reference).unwrap();
        assert_eq!(m.throughput, 0.0);
        assert_eq!(m.ms, 0.0);
    }

    #[test]
    fn live_token_measures_identically() {
        let (d, p) = tiny();
        let n = p.block_elems() * 4;
        let spec = WorkloadSpec::RandomPermutation { seed: 5 };
        let plain = measure_on(&d, &p, spec, n, 2, BackendKind::Sim).unwrap();
        let token = CancelToken::new("cell");
        let gated = measure_algo_traced(
            &d,
            &p,
            spec,
            n,
            2,
            AlgorithmKind::Pairwise,
            BackendKind::Sim,
            &token,
            Obs::noop(),
        )
        .unwrap();
        assert_eq!(plain, gated, "an unfired token must not perturb the measurement");
    }

    #[test]
    fn fired_token_cancels_the_measurement() {
        let (d, p) = tiny();
        let n = p.block_elems() * 2;
        let token = CancelToken::new("cell-x");
        token.cancel();
        let err = measure_algo_traced(
            &d,
            &p,
            WorkloadSpec::Sorted,
            n,
            1,
            AlgorithmKind::Pairwise,
            BackendKind::Sim,
            &token,
            Obs::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, WcmsError::Cancelled { ref cell } if cell == "cell-x"), "{err}");
    }

    #[test]
    fn pairwise_algo_measurement_is_the_legacy_measurement() {
        let (d, p) = tiny();
        let n = p.block_elems() * 4;
        let spec = WorkloadSpec::RandomPermutation { seed: 9 };
        let legacy = measure_on(&d, &p, spec, n, 2, BackendKind::Sim).unwrap();
        let algo =
            measure_algo_on(&d, &p, spec, n, 2, AlgorithmKind::Pairwise, BackendKind::Sim).unwrap();
        assert_eq!(legacy, algo, "pairwise through the generic driver must measure identically");
    }

    #[test]
    fn multiway_measures_identically_on_both_counting_backends() {
        let (d, p) = tiny();
        let n = p.block_elems() * 8;
        let spec = WorkloadSpec::RandomPermutation { seed: 13 };
        let sim =
            measure_algo_on(&d, &p, spec, n, 2, AlgorithmKind::Multiway, BackendKind::Sim).unwrap();
        let analytic =
            measure_algo_on(&d, &p, spec, n, 2, AlgorithmKind::Multiway, BackendKind::Analytic)
                .unwrap();
        assert_eq!(sim, analytic, "multiway counters must agree across backends");
        let pairwise =
            measure_algo_on(&d, &p, spec, n, 2, AlgorithmKind::Pairwise, BackendKind::Sim).unwrap();
        assert_ne!(
            sim, pairwise,
            "multiway runs fewer, wider rounds — its profile must differ from pairwise"
        );
    }

    #[test]
    fn sweep_sizes_double() {
        let p = SortParams::new(32, 7, 64).unwrap();
        let sizes = SweepConfig::quick().sizes(&p);
        assert_eq!(sizes.len(), 5);
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
        assert!(p.valid_len(sizes[0]));
    }
}
