//! Cross-check — the symbolic verdicts against the measured world.
//!
//! The bound verifier ([`crate::bounds`]) is pure arithmetic; this
//! module pins it to reality from two sides so the static story and the
//! measured story can never silently drift apart:
//!
//! * **Layer A (exact, per warp)** — for every `E < w` the symbolic
//!   alignment must agree *element-for-element* with
//!   [`wcms_core::evaluate::evaluate`]'s DMM measurement of the same
//!   assignment:
//!   same aligned count, same per-step window multiplicity, and the
//!   static `min_cycles` must lower-bound the measured cycles.
//! * **Layer B (full sort, Fig. 4 grid)** — run the `AnalyticBackend`
//!   (counter-identical to the lockstep simulator) on worst-case inputs
//!   under the paper's library tunings and check the whole-sort merge
//!   counters against the per-warp verdict: every global round performs
//!   exactly `n/w` merge steps, its serialized merge cycles equal
//!   `n/(wE)` warp-stages times the per-warp worst-case cycles, the
//!   static `min_cycles` scales to a valid lower bound, and the
//!   worst-case input's global `β₂` dominates sorted input's.
//!
//! For regimes where the paper's explicit construction exists (odd `E`
//! co-prime with `w`) the adversarial permutation drives the sort; in
//! the shared-factor regimes sorted order *is* the reference worst case,
//! so the sorted workload is measured instead.

use crate::bounds::{classify, reference_assignment, BoundCase};
use wcms_core::evaluate::evaluate;
use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{sort_with_report_on, AnalyticBackend, SortParams};
use wcms_workloads::WorkloadSpec;

/// Layer A: diff the symbolic pass against the DMM oracle for every
/// `E < w`. Returns one disagreement string per mismatch (empty = the
/// two derivations agree exactly).
///
/// # Errors
///
/// Propagates construction/evaluation errors (inadmissible `w`).
pub fn warp_grid_disagreements(w: usize) -> Result<Vec<String>, WcmsError> {
    let mut diffs = Vec::new();
    for e in 1..w {
        let asg = reference_assignment(w, e)?;
        let sym = crate::bounds::alignment_of_assignment(&asg);
        let ev = evaluate(&asg)?;
        if sym.aligned != ev.aligned {
            diffs.push(format!(
                "w={w} E={e}: symbolic aligned {} != measured {}",
                sym.aligned, ev.aligned
            ));
        }
        if sym.multiplicity != ev.window_multiplicity {
            diffs.push(format!(
                "w={w} E={e}: symbolic multiplicity {:?} != measured {:?}",
                sym.multiplicity, ev.window_multiplicity
            ));
        }
        if sym.min_cycles > ev.cycles() {
            diffs.push(format!(
                "w={w} E={e}: static min_cycles {} exceeds measured cycles {}",
                sym.min_cycles,
                ev.cycles()
            ));
        }
    }
    Ok(diffs)
}

/// Layer B outcome for one `(params, workload)` cell.
#[derive(Debug, Clone)]
pub struct CellCheck {
    /// Display label (`thrust E=15 b=512`, …).
    pub label: String,
    /// Input size (`bE · 2^doublings`).
    pub n: usize,
    /// Global merge rounds measured.
    pub rounds: usize,
    /// Measured merge-phase cycles per global round.
    pub merge_cycles: Vec<usize>,
    /// Predicted per-round merge cycles: `n/(wE) ×` per-warp worst-case
    /// cycles.
    pub predicted_cycles: usize,
    /// Global-round `β₂` of the worst-case workload.
    pub beta2_worst: Option<f64>,
    /// Global-round `β₂` of the sorted control (only when the worst
    /// case differs from sorted order).
    pub beta2_sorted: Option<f64>,
    /// Everything that disagreed (empty = the cell checks out).
    pub failures: Vec<String>,
}

impl CellCheck {
    /// True iff the static and measured stories agree.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The workload whose merge rounds realize the reference worst case for
/// these parameters.
fn worst_workload(w: usize, e: usize) -> WorkloadSpec {
    match classify(w, e) {
        BoundCase::SmallOdd | BoundCase::LargeOdd { .. } => WorkloadSpec::WorstCase,
        BoundCase::PowerOfTwo | BoundCase::Sorted { .. } => WorkloadSpec::Sorted,
    }
}

/// Cross-check one cell: sort `bE · 2^doublings` worst-case keys on the
/// analytic backend and compare its merge counters against the symbolic
/// per-warp verdict.
///
/// # Errors
///
/// Propagates generation and sort errors (inadmissible parameters).
pub fn crosscheck_cell(
    label: &str,
    params: &SortParams,
    doublings: usize,
) -> Result<CellCheck, WcmsError> {
    let (w, e, b) = (params.w, params.e, params.b);
    let n = params.block_elems() << doublings;
    let spec = worst_workload(w, e);
    let input = spec.generate(n, w, e, b)?;

    let (out, report) = sort_with_report_on(&input, params, &AnalyticBackend)?;
    let asg = reference_assignment(w, e)?;
    let sym = crate::bounds::alignment_of_assignment(&asg);
    let ev = evaluate(&asg)?;
    let warp_stages = n / (w * e);
    let predicted_cycles = warp_stages * ev.cycles();
    let static_floor = warp_stages * sym.min_cycles;

    let mut failures = Vec::new();
    if !out.iter().enumerate().all(|(i, &v)| v == i as u32) {
        failures.push(format!("{label}: output is not the sorted permutation"));
    }
    if report.rounds.len() != doublings {
        failures.push(format!(
            "{label}: expected {doublings} global rounds, measured {}",
            report.rounds.len()
        ));
    }
    let merge_cycles: Vec<usize> = report.rounds.iter().map(|r| r.shared.merge.cycles).collect();
    for (i, r) in report.rounds.iter().enumerate() {
        if r.shared.merge.steps != n / w {
            failures.push(format!(
                "{label} round {i}: merge steps {} != n/w = {}",
                r.shared.merge.steps,
                n / w
            ));
        }
        if r.shared.merge.cycles != predicted_cycles {
            failures.push(format!(
                "{label} round {i}: merge cycles {} != {warp_stages} warp-stages × {} \
                 per-warp worst-case cycles = {predicted_cycles}",
                r.shared.merge.cycles,
                ev.cycles()
            ));
        }
        if r.shared.merge.cycles < static_floor {
            failures.push(format!(
                "{label} round {i}: merge cycles {} below the static floor {static_floor}",
                r.shared.merge.cycles
            ));
        }
    }

    // β₂ dominance: the adversarial permutation must not be beaten by
    // the sorted control (only meaningful when they differ).
    let beta2_worst = report.global_beta2();
    let beta2_sorted = if spec == WorkloadSpec::WorstCase {
        let sorted_input = WorkloadSpec::Sorted.generate(n, w, e, b)?;
        let (_, sorted_report) = sort_with_report_on(&sorted_input, params, &AnalyticBackend)?;
        let bs = sorted_report.global_beta2();
        if let (Some(worst), Some(sorted)) = (beta2_worst, bs) {
            if worst < sorted {
                failures.push(format!(
                    "{label}: worst-case β₂ {worst:.4} below sorted control {sorted:.4}"
                ));
            }
        }
        bs
    } else {
        None
    };

    Ok(CellCheck {
        label: label.to_string(),
        n,
        rounds: report.rounds.len(),
        merge_cycles,
        predicted_cycles,
        beta2_worst,
        beta2_sorted,
        failures,
    })
}

/// Layer B over the Fig. 4 grid: both library tunings on the Quadro
/// M4000 (Thrust `E=15, b=512`; Modern GPU `E=15, b=128`), worst-case
/// inputs, `doublings` global rounds each.
///
/// # Errors
///
/// Propagates cell errors.
pub fn crosscheck_fig4(doublings: usize) -> Result<Vec<CellCheck>, WcmsError> {
    let device = DeviceSpec::quadro_m4000();
    let thrust = SortParams::thrust(&device)?;
    let mgpu = SortParams::mgpu(&device)?;
    Ok(vec![
        crosscheck_cell("fig4/thrust", &thrust, doublings)?,
        crosscheck_cell("fig4/mgpu", &mgpu, doublings)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_a_has_no_disagreements_at_w32() {
        let diffs = warp_grid_disagreements(32).unwrap();
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn fig4_cells_check_out() {
        for cell in crosscheck_fig4(2).unwrap() {
            assert!(cell.holds(), "{}: {:?}", cell.label, cell.failures);
            assert_eq!(cell.rounds, 2, "{}", cell.label);
        }
    }

    #[test]
    fn shared_factor_cell_checks_out_on_sorted_input() {
        // E = 8 (power of two): sorted order is the reference worst case.
        let p = SortParams::new(32, 8, 64).unwrap();
        let cell = crosscheck_cell("pow2/E=8", &p, 2).unwrap();
        assert!(cell.holds(), "{:?}", cell.failures);
        assert!(cell.beta2_sorted.is_none());
    }
}
