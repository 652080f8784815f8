//! The cycle cost model: measured counters → estimated runtime.
//!
//! The paper's own result (Fig. 6) is that runtime *tracks* the
//! bank-conflict count; this model encodes the simplest mechanism with
//! that property, and is used only to reproduce the figures' shapes:
//!
//! * **Shared memory.** A warp's shared access serializes into `degree`
//!   cycles (measured, never assumed — it is [`ConflictTotals::cycles`]
//!   from the simulation). Each SM's load/store pipe retires one shared
//!   warp-access per clock, so the device drains `sm_count` cycles of
//!   shared work per clock — scaled by a latency-hiding factor that grows
//!   with resident warps (thread oversubscription, §I of the paper).
//! * **Global memory.** Sector traffic is drained at the device
//!   bandwidth, scaled by an occupancy-dependent hiding factor (full
//!   bandwidth only at full residency). This makes low occupancy hurt
//!   the global term — the effect behind the paper's E=17/b=256 (75%)
//!   vs. E=15/b=512 (100%) comparison on the 2080 Ti.
//! * **Overlap.** The merge loop is a dependent load–compare chain, so
//!   the two streams barely overlap: the total is the larger stream plus
//!   an `overlap` fraction (default 1 = fully additive) of the smaller,
//!   plus a fixed per-block launch overhead.
//!
//! Calibration constants are documented in EXPERIMENTS.md; all tests here
//! assert *relational* properties (monotonicity), not absolute times.
//!
//! [`ConflictTotals::cycles`]: wcms_dmm::ConflictTotals::cycles

use crate::counters::KernelCounters;
use crate::device::DeviceSpec;
use crate::occupancy::Occupancy;

/// Tunable constants of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostModel {
    /// Fraction of the smaller (shared vs. global) stream that is *not*
    /// hidden behind the larger one, in `[0, 1]`. 1 = fully additive
    /// (dependent-chain, latency-bound — the default), 0 = perfect
    /// overlap.
    pub overlap: f64,
    /// Resident warps per SM needed to fully hide shared-memory issue
    /// latency.
    pub warps_to_hide_shared: f64,
    /// Occupancy fraction at which global-memory latency is fully hidden
    /// (1.0: full bandwidth needs full residency).
    pub occupancy_knee: f64,
    /// Per-thread-block fixed overhead, microseconds (launch + partition
    /// searches not otherwise modelled).
    pub block_overhead_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            overlap: 1.0,
            warps_to_hide_shared: 16.0,
            occupancy_knee: 1.0,
            block_overhead_us: 0.06,
        }
    }
}

/// Estimated time, split by resource.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimeBreakdown {
    /// Seconds spent draining serialized shared-memory cycles.
    shared_s: f64,
    /// Seconds spent draining global-memory sectors.
    global_s: f64,
    /// Fixed overhead seconds.
    overhead_s: f64,
    /// Modelled total.
    pub total_s: f64,
}

impl CostModel {
    /// Estimate the runtime of work described by `counters`, launched as
    /// `blocks_launched` thread blocks with per-block occupancy `occ` on
    /// `device`.
    #[must_use]
    pub fn estimate(
        &self,
        device: &DeviceSpec,
        occ: &Occupancy,
        counters: &KernelCounters,
        blocks_launched: usize,
    ) -> TimeBreakdown {
        let clock_hz = device.clock_ghz * 1e9;

        // Shared stream: measured serialized cycles drained at one warp
        // access per SM per clock, derated when too few warps are
        // resident to hide issue latency.
        let warps = occ.warps_per_sm(device.warp_size) as f64;
        let hide_shared = (warps / self.warps_to_hide_shared).clamp(0.05, 1.0);
        let shared_s =
            counters.shared.cycles as f64 / (device.sm_count as f64 * clock_hz * hide_shared);

        // Global stream: sector bytes at bandwidth, derated below the
        // occupancy knee.
        let hide_global = (occ.fraction / self.occupancy_knee).clamp(0.05, 1.0);
        let global_s =
            counters.global.bytes() as f64 / (device.mem_bandwidth_gbs * 1e9 * hide_global);

        // Device-wide block-launch overhead, spread across the SMs.
        let waves = blocks_launched as f64 / device.sm_count as f64;
        let overhead_s = waves.max(1.0) * self.block_overhead_us * 1e-6;

        let (hi, lo) =
            if shared_s >= global_s { (shared_s, global_s) } else { (global_s, shared_s) };
        let total_s = hi + self.overlap * lo + overhead_s;
        TimeBreakdown { shared_s, global_s, overhead_s, total_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::GlobalTotals;
    use wcms_dmm::ConflictTotals;
    use wcms_error::WcmsError;

    fn counters(shared_cycles: usize, sectors: usize) -> KernelCounters {
        KernelCounters {
            shared: ConflictTotals {
                steps: shared_cycles,
                cycles: shared_cycles,
                ..Default::default()
            },
            global: GlobalTotals { requests: sectors / 4, sectors, accesses: sectors * 8 },
        }
    }

    fn occ_full(device: &DeviceSpec) -> Result<Occupancy, WcmsError> {
        Occupancy::compute(device, 512, 512 * 15 * 4)
    }

    #[test]
    fn more_shared_cycles_cost_more_time() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = occ_full(&d)?;
        let m = CostModel::default();
        let t1 = m.estimate(&d, &o, &counters(1_000_000, 1000), 100);
        let t2 = m.estimate(&d, &o, &counters(2_000_000, 1000), 100);
        assert!(t2.total_s > t1.total_s);
        assert!(t2.shared_s > t1.shared_s);
        Ok(())
    }

    #[test]
    fn more_sectors_cost_more_time() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = occ_full(&d)?;
        let m = CostModel::default();
        let t1 = m.estimate(&d, &o, &counters(1000, 1_000_000), 100);
        let t2 = m.estimate(&d, &o, &counters(1000, 4_000_000), 100);
        assert!(t2.total_s > t1.total_s);
        Ok(())
    }

    #[test]
    fn higher_occupancy_is_never_slower() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let full = Occupancy::compute(&d, 512, 30720)?; // 100%
        let partial = Occupancy::compute(&d, 256, 17408)?; // 75%
        let m = CostModel::default();
        let c = counters(10_000_000, 10_000_000);
        let t_full = m.estimate(&d, &full, &c, 1000);
        let t_partial = m.estimate(&d, &partial, &c, 1000);
        assert!(t_full.total_s <= t_partial.total_s);
        Ok(())
    }

    #[test]
    fn faster_device_is_faster() -> Result<(), WcmsError> {
        let m4000 = DeviceSpec::quadro_m4000();
        let rtx = DeviceSpec::rtx_2080_ti();
        let m = CostModel::default();
        let c = counters(50_000_000, 20_000_000);
        let o_m = Occupancy::compute(&m4000, 512, 30720)?;
        let o_r = Occupancy::compute(&rtx, 512, 30720)?;
        let t_m = m.estimate(&m4000, &o_m, &c, 1000).total_s;
        let t_r = m.estimate(&rtx, &o_r, &c, 1000).total_s;
        assert!(t_r < t_m, "2080 Ti should beat M4000 on equal work");
        Ok(())
    }

    #[test]
    fn breakdown_sums_to_total_when_one_stream_dominates() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = occ_full(&d)?;
        let m = CostModel { overlap: 0.0, block_overhead_us: 0.0, ..CostModel::default() };
        let t = m.estimate(&d, &o, &counters(10_000_000, 4), 1);
        assert!((t.total_s - t.shared_s).abs() / t.total_s < 1e-9);
        Ok(())
    }
}
