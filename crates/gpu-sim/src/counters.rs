//! Counter bundles aggregated across kernels and merge rounds.

use wcms_dmm::ConflictTotals;

use crate::gmem::GlobalTotals;

/// All traffic of one kernel launch (or any additive unit of work).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KernelCounters {
    /// Shared-memory conflict totals.
    pub shared: ConflictTotals,
    /// Global-memory traffic totals.
    pub global: GlobalTotals,
}

impl KernelCounters {
    /// Add this bundle to `metrics` under `{prefix}_…` counter names —
    /// the bridge from per-kernel counts to the session-wide metrics
    /// registry (`{prefix}_conflict_extra_cycles_total` is the number
    /// the paper's figures plot).
    pub fn observe(&self, metrics: &wcms_obs::MetricsRegistry, prefix: &str) {
        metrics.counter(format!("{prefix}_shared_steps_total")).add(self.shared.steps as u64);
        metrics.counter(format!("{prefix}_shared_cycles_total")).add(self.shared.cycles as u64);
        metrics
            .counter(format!("{prefix}_conflict_extra_cycles_total"))
            .add(self.shared.extra_cycles as u64);
        metrics.counter(format!("{prefix}_gmem_requests_total")).add(self.global.requests as u64);
        metrics.counter(format!("{prefix}_gmem_sectors_total")).add(self.global.sectors as u64);
    }
}

/// Bookkeeping of injected faults and the recovery work they triggered.
///
/// Maintained by whichever driver wires a
/// [`crate::fault::FaultInjector`] through a kernel pipeline (the fault
/// guard of `wcms-mergesort`'s round loop, which counts each window's
/// faults in window order on the calling thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultCounters {
    /// Tile bit-flip faults that fired.
    pub tile_faults: usize,
    /// Individual bits flipped across all tile faults.
    pub bits_flipped: usize,
    /// Co-rank corruption faults that fired.
    pub corank_faults: usize,
    /// Faults *detected* — by a typed kernel error or a failed
    /// round-level sortedness/permutation check. Can be lower than the
    /// injected total: a flip in data no block reads is harmless.
    pub detected: usize,
    /// Retries performed after a detection.
    pub retries: usize,
    /// Work units degraded to the CPU reference path after the retry
    /// budget ran out.
    pub cpu_fallbacks: usize,
}

impl FaultCounters {
    /// True if any fault fired (whether or not it was detected).
    #[must_use]
    pub fn any_injected(&self) -> bool {
        self.tile_faults > 0 || self.corank_faults > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(cycles: usize, steps: usize) -> ConflictTotals {
        ConflictTotals { steps, cycles, extra_cycles: cycles - steps, ..Default::default() }
    }

    #[test]
    fn observe_exports_every_counter_under_the_prefix() {
        let k = KernelCounters {
            shared: shared(14, 9),
            global: GlobalTotals { requests: 2, sectors: 12, accesses: 64 },
        };
        let metrics = wcms_obs::MetricsRegistry::new();
        k.observe(&metrics, "sort");
        k.observe(&metrics, "sort"); // counters accumulate
        assert_eq!(metrics.counter("sort_shared_steps_total").get(), 18);
        assert_eq!(metrics.counter("sort_shared_cycles_total").get(), 28);
        assert_eq!(metrics.counter("sort_conflict_extra_cycles_total").get(), 10);
        assert_eq!(metrics.counter("sort_gmem_requests_total").get(), 4);
        assert_eq!(metrics.counter("sort_gmem_sectors_total").get(), 24);
    }
}
