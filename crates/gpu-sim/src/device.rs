//! Device parameter presets.
//!
//! The figures in the paper are produced on a Quadro M4000 (compute
//! capability 5.2) and an RTX 2080 Ti (7.5); the conflict-heavy prior work
//! (Karsin et al.) used a GTX 770 (3.0). The numbers below are the
//! published hardware parameters; the two timing constants
//! (`clock_ghz`, `mem_bandwidth_gbs`) feed only the cost model.

/// Static description of a GPU.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Compute capability, e.g. `(7, 5)`.
    pub compute_capability: (u8, u8),
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM (`P = sm_count · cores_per_sm`).
    pub cores_per_sm: usize,
    /// Warp width and shared-memory bank count (32 on all real devices).
    pub warp_size: usize,
    /// Warp schedulers per SM (hardware datum; the cost model drains
    /// shared accesses at one warp access per SM per clock regardless).
    pub schedulers_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Shared memory usable by resident blocks, bytes per SM.
    pub shared_mem_per_sm: usize,
    /// Core clock, GHz (cost model only).
    pub clock_ghz: f64,
    /// Global-memory bandwidth, GB/s (cost model only).
    pub mem_bandwidth_gbs: f64,
    /// Global-memory minimum transaction (sector) size in bytes.
    pub sector_bytes: usize,
}

impl DeviceSpec {
    /// Quadro M4000 (Maxwell, cc 5.2): 13 SMs × 128 cores = 1664 cores,
    /// 96 KiB shared memory per SM — the paper's first test GPU.
    #[must_use]
    pub fn quadro_m4000() -> Self {
        Self {
            name: "Quadro M4000",
            compute_capability: (5, 2),
            sm_count: 13,
            cores_per_sm: 128,
            warp_size: 32,
            schedulers_per_sm: 4,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_sm: 96 * 1024,
            clock_ghz: 0.773,
            mem_bandwidth_gbs: 192.0,
            sector_bytes: 32,
        }
    }

    /// RTX 2080 Ti (Turing, cc 7.5): 68 SMs × 64 cores = 4352 cores.
    /// The unified 96 KiB L1/shared is configured as 64 KiB shared +
    /// 32 KiB L1 (the configuration the paper's occupancy arithmetic in
    /// §IV-A uses: 3 × 17 KiB = 51 KiB resident). Turing allows at most
    /// 1024 resident threads per SM.
    #[must_use]
    pub fn rtx_2080_ti() -> Self {
        Self {
            name: "RTX 2080 Ti",
            compute_capability: (7, 5),
            sm_count: 68,
            cores_per_sm: 64,
            warp_size: 32,
            schedulers_per_sm: 4,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            shared_mem_per_sm: 64 * 1024,
            clock_ghz: 1.545,
            mem_bandwidth_gbs: 616.0,
            sector_bytes: 32,
        }
    }

    /// GTX 770 (Kepler, cc 3.0): the GPU of Karsin et al.'s conflict-heavy
    /// experiments, included for the prior-work comparison.
    #[must_use]
    pub fn gtx_770() -> Self {
        Self {
            name: "GTX 770",
            compute_capability: (3, 0),
            sm_count: 8,
            cores_per_sm: 192,
            warp_size: 32,
            schedulers_per_sm: 4,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            clock_ghz: 1.046,
            mem_bandwidth_gbs: 224.0,
            sector_bytes: 32,
        }
    }

    /// A deliberately small synthetic device for fast tests: `w = 32`,
    /// 2 SMs, tiny shared memory.
    #[must_use]
    pub fn test_device() -> Self {
        Self {
            name: "test-device",
            compute_capability: (0, 0),
            sm_count: 2,
            cores_per_sm: 64,
            warp_size: 32,
            schedulers_per_sm: 2,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 4,
            shared_mem_per_sm: 16 * 1024,
            clock_ghz: 1.0,
            mem_bandwidth_gbs: 100.0,
            sector_bytes: 32,
        }
    }

    /// All real presets (for sweeps).
    #[must_use]
    pub fn presets() -> Vec<Self> {
        vec![Self::quadro_m4000(), Self::rtx_2080_ti(), Self::gtx_770()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m4000_matches_paper_description() {
        let d = DeviceSpec::quadro_m4000();
        // "1664 physical processors across 13 SM's … 96 KiB of shared
        // memory per SM" (§IV-A).
        assert_eq!(d.sm_count * d.cores_per_sm, 1664);
        assert_eq!(d.sm_count, 13);
        assert_eq!(d.shared_mem_per_sm, 98304);
        assert_eq!(d.compute_capability, (5, 2));
    }

    #[test]
    fn rtx_matches_paper_description() {
        let d = DeviceSpec::rtx_2080_ti();
        // "4352 physical processors across 68 SM's" (§IV-A); 64 KiB shared
        // config; 1024 resident threads per SM.
        assert_eq!(d.sm_count * d.cores_per_sm, 4352);
        assert_eq!(d.sm_count, 68);
        assert_eq!(d.shared_mem_per_sm, 65536);
        assert_eq!(d.max_threads_per_sm, 1024);
        assert_eq!(d.compute_capability, (7, 5));
    }

    #[test]
    fn gtx770_compute_capability() {
        assert_eq!(DeviceSpec::gtx_770().compute_capability, (3, 0));
    }

    #[test]
    fn all_presets_have_32_wide_warps() {
        for d in DeviceSpec::presets() {
            assert_eq!(d.warp_size, 32, "{}", d.name);
            assert_eq!(d.sector_bytes, 32, "{}", d.name);
        }
    }
}
