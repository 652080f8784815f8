//! Occupancy calculation (§IV-A of the paper).
//!
//! The number of thread blocks resident on one SM is limited by three
//! resources: shared memory, the resident-thread ceiling and the
//! resident-block ceiling. The paper works this out by hand for the
//! RTX 2080 Ti: with `E = 17, b = 256` each block needs 17 KiB of shared
//! memory, so 3 blocks (768 threads) fit — 75% occupancy; with
//! `E = 15, b = 512` each block needs 30 KiB, so 2 blocks (1024 threads)
//! fit — 100% occupancy. [`Occupancy::compute`] reproduces exactly that
//! arithmetic for any device.

use crate::device::DeviceSpec;
use wcms_error::WcmsError;

/// Resident-block and occupancy figures for one kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Occupancy {
    /// Thread blocks resident per SM.
    pub blocks_per_sm: usize,
    /// Resident threads per SM (`blocks_per_sm · block_threads`).
    pub threads_per_sm: usize,
    /// Fraction of the device's resident-thread ceiling in `[0, 1]`.
    pub fraction: f64,
    /// Which resource bound: `"shared-memory"`, `"threads"`, or `"blocks"`.
    pub limiter: &'static str,
}

impl Occupancy {
    /// Occupancy of a kernel using `block_threads` threads and
    /// `shared_bytes` of shared memory per block on `device`.
    ///
    /// ```
    /// use wcms_gpu_sim::{DeviceSpec, Occupancy};
    ///
    /// // The paper's §IV-A arithmetic: E=17, b=256 on the RTX 2080 Ti
    /// // needs 17 KiB per block → 3 resident blocks → 75% occupancy.
    /// let device = DeviceSpec::rtx_2080_ti();
    /// let occ = Occupancy::compute(&device, 256, 17 * 1024)?;
    /// assert_eq!(occ.blocks_per_sm, 3);
    /// assert_eq!(occ.fraction, 0.75);
    /// # Ok::<(), wcms_error::WcmsError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::SharedMemOverflow`] if one block's tile
    /// alone exceeds the SM's shared memory, and
    /// [`WcmsError::OccupancyMisfit`] (naming the device and the
    /// `(block_threads, shared_bytes)` request) if even a single block
    /// cannot be resident for any other reason.
    pub fn compute(
        device: &DeviceSpec,
        block_threads: usize,
        shared_bytes: usize,
    ) -> Result<Self, WcmsError> {
        let misfit = |reason: &str| WcmsError::OccupancyMisfit {
            device: device.name.to_string(),
            block_threads,
            shared_bytes,
            reason: reason.to_string(),
        };
        if block_threads == 0 {
            return Err(misfit("block must have at least one thread"));
        }
        if shared_bytes > device.shared_mem_per_sm {
            return Err(WcmsError::SharedMemOverflow {
                required: shared_bytes,
                available: device.shared_mem_per_sm,
                device: device.name.to_string(),
            });
        }
        let by_threads = device.max_threads_per_sm / block_threads;
        let by_smem = device.shared_mem_per_sm.checked_div(shared_bytes).unwrap_or(usize::MAX);
        let by_blocks = device.max_blocks_per_sm;
        let blocks = by_threads.min(by_smem).min(by_blocks);
        if blocks == 0 {
            return Err(misfit("block exceeds the resident-thread ceiling"));
        }
        let limiter = if blocks == by_smem && by_smem <= by_threads && by_smem <= by_blocks {
            "shared-memory"
        } else if blocks == by_threads && by_threads <= by_blocks {
            "threads"
        } else {
            "blocks"
        };
        let threads = blocks * block_threads;
        Ok(Self {
            blocks_per_sm: blocks,
            threads_per_sm: threads,
            fraction: threads as f64 / device.max_threads_per_sm as f64,
            limiter,
        })
    }

    /// Resident warps per SM.
    #[must_use]
    pub(crate) fn warps_per_sm(&self, warp_size: usize) -> usize {
        self.threads_per_sm / warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §IV-A: "each thread block requires 17 KiB of shared memory space,
    /// thus, 3 thread blocks (768 total threads) … can be resident on each
    /// SM" — 75% theoretical occupancy.
    #[test]
    fn occupancy_rtx_e17_b256_is_75_percent() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let smem = 256 * 17 * 4;
        assert_eq!(smem, 17408); // 17 KiB
        let o = Occupancy::compute(&d, 256, smem)?;
        assert_eq!(o.blocks_per_sm, 3);
        assert_eq!(o.threads_per_sm, 768);
        assert!((o.fraction - 0.75).abs() < 1e-12);
        assert_eq!(o.limiter, "shared-memory");
        Ok(())
    }

    /// §IV-A: "Compared to E = 15 and b = 512, each thread block uses
    /// 30 KiB … 2 resident thread blocks (1024 total threads)" — 100%.
    #[test]
    fn occupancy_rtx_e15_b512_is_100_percent() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let smem = 512 * 15 * 4;
        assert_eq!(smem, 30720); // 30 KiB
        let o = Occupancy::compute(&d, 512, smem)?;
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.threads_per_sm, 1024);
        assert!((o.fraction - 1.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn occupancy_m4000_thrust_params() -> Result<(), WcmsError> {
        let d = DeviceSpec::quadro_m4000();
        let o = Occupancy::compute(&d, 512, 512 * 15 * 4)?;
        // 96 KiB / 30 KiB = 3 blocks = 1536 of 2048 threads = 75%.
        assert_eq!(o.blocks_per_sm, 3);
        assert!((o.fraction - 0.75).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn thread_limited_when_no_shared_memory() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = Occupancy::compute(&d, 256, 0)?;
        assert_eq!(o.blocks_per_sm, 4); // 1024 / 256
        assert_eq!(o.limiter, "threads");
        Ok(())
    }

    #[test]
    fn block_limited_with_tiny_blocks() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = Occupancy::compute(&d, 32, 0)?;
        assert_eq!(o.blocks_per_sm, d.max_blocks_per_sm);
        assert_eq!(o.limiter, "blocks");
        Ok(())
    }

    #[test]
    fn oversize_block_does_not_fit() {
        let d = DeviceSpec::rtx_2080_ti();
        let err = Occupancy::compute(&d, 2048, 0).unwrap_err();
        assert!(matches!(err, WcmsError::OccupancyMisfit { block_threads: 2048, .. }), "{err}");
        assert!(err.to_string().contains(d.name), "{err}");
        let err = Occupancy::compute(&d, 256, 128 * 1024).unwrap_err();
        assert!(matches!(err, WcmsError::SharedMemOverflow { .. }), "{err}");
        assert!(Occupancy::compute(&d, 0, 0).is_err());
    }

    #[test]
    fn warps_per_sm() -> Result<(), WcmsError> {
        let d = DeviceSpec::rtx_2080_ti();
        let o = Occupancy::compute(&d, 512, 512 * 15 * 4)?;
        assert_eq!(o.warps_per_sm(32), 32);
        Ok(())
    }
}
