//! Phase-tagged counters and the per-sort report.
//!
//! The paper's two shared-memory phases have distinct conflict statistics
//! (`β₁` for the mutual binary searches of the partitioning stage, `β₂`
//! for the merging scans), so the simulator tags every shared access with
//! its phase and reports per-phase totals.

use serde::{Deserialize, Serialize};
use wcms_dmm::ConflictTotals;
use wcms_gpu_sim::{GlobalTotals, KernelCounters};

use crate::params::SortParams;

/// Shared-memory totals split by kernel phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// Tile loads / stores and staging writes.
    pub(crate) transfer: ConflictTotals,
    /// Merge Path mutual binary searches (β₁'s phase).
    pub partition: ConflictTotals,
    /// Sequential merging scans (β₂'s phase).
    pub merge: ConflictTotals,
}

impl PhaseTotals {
    /// All phases combined.
    #[must_use]
    pub fn combined(&self) -> ConflictTotals {
        let mut t = self.transfer;
        t.merge(&self.partition);
        t.merge(&self.merge);
        t
    }

    /// Fold in another block/round (parallel-reducible).
    pub(crate) fn absorb(&mut self, other: &PhaseTotals) {
        self.transfer.merge(&other.transfer);
        self.partition.merge(&other.partition);
        self.merge.merge(&other.merge);
    }

    /// Average partition-phase degree (Karsin's `β₁`).
    #[must_use]
    pub(crate) fn beta1(&self) -> Option<f64> {
        self.partition.beta()
    }

    /// Average merge-phase degree (Karsin's `β₂`).
    #[must_use]
    pub(crate) fn beta2(&self) -> Option<f64> {
        self.merge.beta()
    }
}

/// Counters of one kernel (the base case, or one global merge round).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundCounters {
    /// Phase-tagged shared-memory totals.
    pub shared: PhaseTotals,
    /// Global-memory traffic.
    pub global: GlobalTotals,
    /// Thread blocks launched.
    pub blocks: usize,
    /// Register comparators evaluated (base case only).
    pub comparators: usize,
}

impl RoundCounters {
    /// Fold in another block's counters.
    pub(crate) fn absorb(&mut self, other: &RoundCounters) {
        self.shared.absorb(&other.shared);
        self.global.merge(&other.global);
        self.blocks += other.blocks;
        self.comparators += other.comparators;
    }

    /// Collapse to the cost model's generic bundle.
    #[must_use]
    pub(crate) fn to_kernel(self) -> KernelCounters {
        KernelCounters { shared: self.shared.combined(), global: self.global }
    }
}

/// Full instrumentation of one simulated sort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortReport {
    /// Tuning parameters used.
    pub(crate) params: SortParams,
    /// Input size.
    pub n: usize,
    /// Base-case kernel counters.
    pub base: RoundCounters,
    /// One entry per global merge round.
    pub rounds: Vec<RoundCounters>,
}

impl SortReport {
    /// Sum of the base case and all global rounds.
    #[must_use]
    pub fn total(&self) -> RoundCounters {
        let mut t = self.base;
        for r in &self.rounds {
            t.absorb(r);
        }
        t
    }

    /// Aggregate kernel counters for the cost model.
    #[must_use]
    pub fn kernel_counters(&self) -> KernelCounters {
        self.total().to_kernel()
    }

    /// Total blocks launched across all kernels.
    #[must_use]
    pub fn blocks_launched(&self) -> usize {
        self.base.blocks + self.rounds.iter().map(|r| r.blocks).sum::<usize>()
    }

    /// β₂ of the global rounds only (the phase the worst-case input
    /// attacks).
    #[must_use]
    pub fn global_beta2(&self) -> Option<f64> {
        let mut t = PhaseTotals::default();
        for r in &self.rounds {
            t.absorb(&r.shared);
        }
        t.beta2()
    }

    /// β₁ of the global rounds only.
    #[must_use]
    pub fn global_beta1(&self) -> Option<f64> {
        let mut t = PhaseTotals::default();
        for r in &self.rounds {
            t.absorb(&r.shared);
        }
        t.beta1()
    }

    /// Bank-conflict extra cycles per element (Fig. 6's right axis unit).
    #[must_use]
    pub fn conflicts_per_element(&self) -> f64 {
        self.total().shared.combined().extra_cycles as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(steps: usize, cycles: usize) -> ConflictTotals {
        ConflictTotals { steps, cycles, extra_cycles: cycles - steps, ..Default::default() }
    }

    #[test]
    fn phase_combination_and_betas() {
        let p = PhaseTotals {
            transfer: totals(10, 10),
            partition: totals(4, 12),
            merge: totals(5, 11),
        };
        assert_eq!(p.combined().cycles, 33);
        assert_eq!(p.combined().steps, 19);
        assert!((p.beta1().unwrap() - 3.0).abs() < 1e-12);
        assert!((p.beta2().unwrap() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn report_totals_roll_up() {
        let mk = |c: usize| RoundCounters {
            shared: PhaseTotals { merge: totals(c, c), ..Default::default() },
            global: GlobalTotals { requests: 1, sectors: 4, accesses: 32 },
            blocks: 2,
            comparators: 0,
        };
        let report = SortReport {
            params: SortParams::new(32, 15, 512).unwrap(),
            n: 7680,
            base: mk(5),
            rounds: vec![mk(7), mk(9)],
        };
        assert_eq!(report.total().shared.merge.cycles, 21);
        assert_eq!(report.blocks_launched(), 6);
        assert_eq!(report.kernel_counters().global.sectors, 12);
        assert!((report.global_beta2().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(report.global_beta1(), None);
    }
}
