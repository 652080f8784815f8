//! `sort-large`: one large analytic sort after another on one thread.
//!
//! One big sort spends nearly all its time in backend replay, the
//! schedule walk, Merge Path partitioning and the sort driver's round loop,
//! with nothing else running — the workload in-sort parallelism and
//! backend optimisations must show on.

use std::path::Path;
use std::time::{Duration, Instant};

use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{
    sort_with_report_on, AnalyticBackend, ExecBackend, SimBackend, SortParams, SortReport,
};
use wcms_obs::{span, Obs};
use wcms_workloads::WorkloadSpec;

use crate::calib::Calibration;
use crate::probe::Probe;
use crate::report::Outcome;
use crate::stats::percentile;
use crate::trace::{Profile, Section};
use crate::{median_setup, overhead_pct};

/// Input length: `bE·2⁶` on the Quadro M4000 Thrust tuning (491,520).
const DOUBLINGS: u32 = 6;
/// Calibration samples on each side of a sort that scale it (a sort
/// takes about 0.2 s).
const CALIBRATION_RADIUS: usize = 1;
/// Sorts in each half (bare, probed) of the traced run.
const TRACED_SORTS: usize = 10;
/// The sim backend is probed on the input's first `bE·2⁵` keys, a
/// length both Fig. 4 tunings accept (127 Modern GPU partition units).
const SIM_DOUBLINGS: u32 = 5;

struct Setup {
    params: SortParams,
    input: Vec<u32>,
    expected: Vec<u32>,
    report: SortReport,
}

/// Build the input, its expected output and the reference counters,
/// then run the second warm-up sort.
fn setup(seed: u64) -> Result<Setup, String> {
    let params = SortParams::thrust(&DeviceSpec::quadro_m4000()).map_err(|e| e.to_string())?;
    let n = params.block_elems() << DOUBLINGS;
    let input = WorkloadSpec::WorstCaseFamily { seed }
        .generate(n, params.w, params.e, params.b)
        .map_err(|e| e.to_string())?;
    let mut expected = input.clone();
    expected.sort_unstable();
    let (out, report) =
        sort_with_report_on(&input, &params, &AnalyticBackend).map_err(|e| e.to_string())?;
    if out != expected {
        return Err("warm-up sort returned a wrong output".into());
    }
    let s = Setup { params, input, expected, report };
    s.check(sort_with_report_on(&s.input, &s.params, &AnalyticBackend))?;
    Ok(s)
}

impl Setup {
    /// Sorted, the input's multiset, and the first sort's counters.
    fn check(
        &self,
        result: Result<(Vec<u32>, SortReport), wcms_error::WcmsError>,
    ) -> Result<(), String> {
        let (out, report) = result.map_err(|e| e.to_string())?;
        if out != self.expected {
            return Err("sort output is not the sorted input".into());
        }
        if report != self.report {
            return Err("sort counters differ from the first sort's".into());
        }
        Ok(())
    }

    /// Sort until `count` sorts or `until`, whichever comes first, each
    /// after `before` (whose result tags the sort) and inside a `sort`
    /// span on `obs`; returns each correct sort's wall time in seconds
    /// with its tag.
    #[allow(clippy::too_many_arguments)] // the loop's bounds plus its hooks
    fn sorts(
        &self,
        backend: &impl ExecBackend,
        count: usize,
        until: Option<Instant>,
        obs: &Obs,
        mut before: impl FnMut() -> usize,
        out: &mut Outcome,
    ) -> Vec<(f64, usize)> {
        let mut times = Vec::new();
        while times.len() < count && until.is_none_or(|t| Instant::now() < t) {
            let tag = before();
            let t0 = Instant::now();
            let result = {
                let _sort = span!(obs, "sort");
                sort_with_report_on(&self.input, &self.params, backend)
            };
            let dt = t0.elapsed().as_secs_f64();
            out.attempted += 1;
            match self.check(result) {
                Ok(()) => times.push((dt, tag)),
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("sort {}: {e}", out.attempted));
                }
            }
        }
        times
    }
}

/// The timed run: a closed loop for `seconds`, a calibration sample
/// before every sort.
///
/// # Errors
///
/// A setup failure (nothing was measured).
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut cal = Calibration::new(1);
    let (setup_s, s) = median_setup(Some(&mut cal), || setup(seed))?;
    let mut out = Outcome::default();
    let until = Instant::now() + Duration::from_secs(seconds);
    let sorts =
        s.sorts(&AnalyticBackend, usize::MAX, Some(until), Obs::noop(), || cal.sample(), &mut out);
    let ms: Vec<f64> =
        sorts.iter().map(|&(t, i)| t * 1e3 * cal.scale_near(i, CALIBRATION_RADIUS)).collect();
    out.calibration_ms = Some(cal.kernel_ms());
    out.set("setup_s", setup_s * cal.scale());
    out.set("throughput_per_s", 1e3 * ms.len() as f64 / ms.iter().sum::<f64>());
    if let (Some(p50), Some(p90)) = (percentile(&ms, 0.5), percentile(&ms, 0.9)) {
        out.set_percentile("latency_p50_ms", p50, ms.len());
        out.set_percentile("latency_p90_ms", p90, ms.len());
    }
    Ok(out)
}

/// The traced section: [`TRACED_SORTS`] bare sorts interleaved with as
/// many through [`Probe`] (so machine drift hits both alike); the sim
/// backend probed under both Fig. 4 tunings; and worst-case input
/// construction timed directly.
///
/// # Errors
///
/// A setup failure or an invalid journal.
pub fn traced(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let s = setup(seed)?;
    let section = Section::new("sort-large");
    let probe = Probe::new(AnalyticBackend, &section.obs);
    let (mut bare, mut probed) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_SORTS {
        bare.extend(s.sorts(&AnalyticBackend, 1, None, Obs::noop(), || 0, out).iter().map(|t| t.0));
        probed.extend(s.sorts(&probe, 1, None, &section.obs, || 0, out).iter().map(|t| t.0));
    }
    let analytic = section.finish(dir)?;

    let section = Section::new("sort-large-sim");
    let device = DeviceSpec::quadro_m4000();
    let mgpu = SortParams::mgpu(&device).map_err(|e| e.to_string())?;
    let input = &s.input[..s.params.block_elems() << SIM_DOUBLINGS];
    for params in [s.params, mgpu] {
        let (keys, _) = {
            let _sort = span!(section.obs, "sort");
            sort_with_report_on(input, &params, &Probe::new(SimBackend, &section.obs))
                .map_err(|e| e.to_string())?
        };
        if !keys.windows(2).all(|w| w[0] <= w[1]) {
            out.problem("probed sim sort returned unsorted keys");
        }
    }
    for _ in 0..3 {
        let keys = {
            let _build = span!(section.obs, "builder.worst_case");
            WorkloadSpec::WorstCaseFamily { seed }.generate(
                s.input.len(),
                s.params.w,
                s.params.e,
                s.params.b,
            )
        };
        if keys.map_err(|e| e.to_string())? != s.input {
            out.problem("worst-case construction is not deterministic");
        }
    }
    let sim = section.finish(dir)?;

    analytic_layers(&analytic, out);
    backend_layers("backend.sim", &sim, out);
    let partition = sim.span("backend.partition_unit");
    out.set("backend.partition_unit_us", partition.self_us as f64 / partition.count as f64);
    let build = sim.span("builder.worst_case");
    out.set(
        "builder.worst_case_keys_per_s",
        (build.count as f64 * s.input.len() as f64) / (build.total_us as f64 / 1e6),
    );
    let mean = |times: &[f64]| times.iter().sum::<f64>() / times.len() as f64;
    out.set(
        "trace.overhead_pct.sort-large",
        overhead_pct(1.0 / mean(&bare), 1.0 / mean(&probed), true),
    );
    // The driver's and the backend's self time should add up to a bare
    // sort: probe re-runs nest inside the backend spans, so they are
    // excluded from both.
    let attributed_s = ["sort", "backend.base_block", "backend.merge_unit"]
        .iter()
        .map(|n| analytic.span(n).self_us)
        .sum::<u64>() as f64
        / 1e6
        / probed.len() as f64;
    out.set("driver.attribution_gap_pct", overhead_pct(mean(&bare), attributed_s, false));
    Ok(())
}

/// Unit costs of one backend from a probed profile.
fn backend_layers(prefix: &str, p: &Profile, out: &mut Outcome) {
    let base = p.span("backend.base_block");
    let merge = p.span("backend.merge_unit");
    out.set(&format!("{prefix}.base_block_us"), base.self_us as f64 / base.count as f64);
    out.set(&format!("{prefix}.merge_unit_us"), merge.self_us as f64 / merge.count as f64);
    out.set(
        &format!("{prefix}.ns_per_merge_step"),
        merge.self_us as f64 * 1e3 / p.count("merge-unit.steps") as f64,
    );
}

/// The analytic sort's layers: driver, backend, Merge Path, schedule.
fn analytic_layers(p: &Profile, out: &mut Outcome) {
    let sorts = p.span("sort");
    let merge = p.span("backend.merge_unit");
    let corank = p.span("mergepath.corank");
    let walk = p.span("schedule.walk");
    out.set("driver.self_ms_per_sort", sorts.self_us as f64 / 1e3 / sorts.count as f64);
    backend_layers("backend.analytic", p, out);
    // The share of a merge unit left after its Merge Path search and
    // schedule walk: the conflict accounting itself.
    out.set(
        "backend.analytic.replay_self_frac",
        1.0 - (corank.total_us + walk.total_us) as f64 / merge.self_us as f64,
    );
    let bare_us = sorts.total_us.saturating_sub(corank.total_us + walk.total_us);
    out.set("mergepath.corank_ns", corank.total_us as f64 * 1e3 / corank.count as f64);
    out.set("mergepath.busy_frac", corank.total_us as f64 / bare_us as f64);
    out.set("schedule.walk_ns_per_step", walk.total_us as f64 * 1e3 / p.count("walk.steps") as f64);
}
