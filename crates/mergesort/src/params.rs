//! Sort tuning parameters `(w, E, b)` and the per-device tables the
//! paper's experiments use (§IV-A).

use serde::{Deserialize, Serialize};
use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;

/// Which library's kernel structure to model.
///
/// Both libraries run the same pairwise merge sort; they differ in how a
/// global round finds its block quantiles. Thrust fuses the mutual
/// binary search into the merge kernel (each block searches its own
/// start diagonal); Modern GPU launches a *separate partition kernel*
/// per round that writes a co-rank array which the merge kernel then
/// reads — extra kernel launches and extra global traffic, part of why
/// Thrust outperforms Modern GPU at equal tuning (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortVariant {
    /// Fused partitioning (Thrust-style).
    Thrust,
    /// Separate partition kernel per round (Modern-GPU-style).
    ModernGpu,
}

/// Tuning parameters of the pairwise merge sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortParams {
    /// Warp width / bank count (32 on all real GPUs).
    pub w: usize,
    /// Elements merged per thread per round.
    pub e: usize,
    /// Threads per thread block (a power of two).
    pub b: usize,
    /// Kernel structure to model.
    pub variant: SortVariant,
    /// Apply the Dotsenko shared-memory padding (the classic conflict
    /// mitigation; costs `1/w` extra shared memory per tile).
    pub smem_padding: bool,
}

impl SortParams {
    /// New parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::ZeroParam`] if `w` or `E` is zero and
    /// [`WcmsError::InvalidBlock`] if `b` is not a power of two or
    /// `b < 2w`.
    pub fn new(w: usize, e: usize, b: usize) -> Result<Self, WcmsError> {
        if w == 0 {
            return Err(WcmsError::ZeroParam { name: "w" });
        }
        if e == 0 {
            return Err(WcmsError::ZeroParam { name: "E" });
        }
        if !b.is_power_of_two() {
            return Err(WcmsError::InvalidBlock {
                b,
                w,
                reason: "b must be a power of two".into(),
            });
        }
        if b < 2 * w {
            return Err(WcmsError::InvalidBlock {
                b,
                w,
                reason: "need at least two warps per block (b >= 2w)".into(),
            });
        }
        Ok(Self { w, e, b, variant: SortVariant::Thrust, smem_padding: false })
    }

    /// The same tuning with padded shared-memory tiles.
    #[must_use]
    pub fn with_padding(mut self) -> Self {
        self.smem_padding = true;
        self
    }

    /// The same tuning with a different kernel structure.
    #[must_use]
    pub fn with_variant(mut self, variant: SortVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Thrust's parameters for a device: `E = 15, b = 512` for compute
    /// capability 5.2 (Quadro M4000); the library leaves Turing (7.5)
    /// undefined and falls back to the cc 6.0 defaults `E = 17, b = 256`
    /// (§IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidBlock`] if the library tuning does
    /// not fit the device's warp width.
    pub fn thrust(device: &DeviceSpec) -> Result<Self, WcmsError> {
        match device.compute_capability {
            (5, _) => Self::new(device.warp_size, 15, 512),
            _ => Self::new(device.warp_size, 17, 256),
        }
    }

    /// The override the paper additionally benchmarks on the RTX 2080 Ti:
    /// Thrust's Maxwell tuning `E = 15, b = 512`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidBlock`] if the tuning does not fit
    /// the device's warp width.
    pub fn thrust_e15_b512(device: &DeviceSpec) -> Result<Self, WcmsError> {
        Self::new(device.warp_size, 15, 512)
    }

    /// Modern GPU's parameters: `E = 15, b = 128` for the Quadro M4000;
    /// undefined for Turing, where the paper runs the same two sets as
    /// Thrust (§IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidBlock`] if the library tuning does
    /// not fit the device's warp width.
    pub fn mgpu(device: &DeviceSpec) -> Result<Self, WcmsError> {
        match device.compute_capability {
            (5, _) => {
                Ok(Self::new(device.warp_size, 15, 128)?.with_variant(SortVariant::ModernGpu))
            }
            _ => Ok(Self::new(device.warp_size, 17, 256)?.with_variant(SortVariant::ModernGpu)),
        }
    }

    /// Elements per block tile (`bE`).
    #[must_use]
    pub fn block_elems(&self) -> usize {
        self.b * self.e
    }

    /// Shared-memory bytes per block (4-byte keys), including the pad
    /// words when padding is enabled.
    #[must_use]
    pub fn shared_bytes(&self) -> usize {
        if self.smem_padding {
            wcms_dmm::padded_len(self.block_elems(), self.w) * 4
        } else {
            self.block_elems() * 4
        }
    }

    /// Warps per block.
    #[must_use]
    pub fn warps_per_block(&self) -> usize {
        self.b / self.w
    }

    /// True if `n` fits the sort structure (`n = bE·2^m`).
    #[must_use]
    pub fn valid_len(&self, n: usize) -> bool {
        let be = self.block_elems();
        n >= be && n.is_multiple_of(be) && (n / be).is_power_of_two()
    }

    /// Smallest valid size ≥ `n`.
    #[must_use]
    pub fn next_valid_len(&self, n: usize) -> usize {
        let be = self.block_elems();
        be * n.div_ceil(be).max(1).next_power_of_two()
    }

    /// Global merge rounds for an `n`-element sort (`log₂(n/bE)`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a valid length.
    #[must_use]
    pub fn global_rounds(&self, n: usize) -> usize {
        assert!(self.valid_len(n), "n = {n} is not bE·2^m");
        (n / self.block_elems()).trailing_zeros() as usize
    }

    /// In-block merge rounds of the base case (`log₂ b`).
    #[must_use]
    pub(crate) fn block_rounds(&self) -> usize {
        self.b.trailing_zeros() as usize
    }

    /// Thread blocks launched per kernel for `n` elements.
    #[must_use]
    pub fn blocks_for(&self, n: usize) -> usize {
        n / self.block_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thrust_table_matches_paper() {
        let p = SortParams::thrust(&DeviceSpec::quadro_m4000()).unwrap();
        assert_eq!((p.e, p.b), (15, 512));
        let p = SortParams::thrust(&DeviceSpec::rtx_2080_ti()).unwrap();
        assert_eq!((p.e, p.b), (17, 256));
        let p = SortParams::thrust_e15_b512(&DeviceSpec::rtx_2080_ti()).unwrap();
        assert_eq!((p.e, p.b), (15, 512));
    }

    #[test]
    fn mgpu_table_matches_paper() {
        let p = SortParams::mgpu(&DeviceSpec::quadro_m4000()).unwrap();
        assert_eq!((p.e, p.b), (15, 128));
        assert_eq!(p.variant, SortVariant::ModernGpu);
        assert_eq!(
            SortParams::thrust(&DeviceSpec::quadro_m4000()).unwrap().variant,
            SortVariant::Thrust
        );
    }

    #[test]
    fn shared_bytes_match_papers_arithmetic() {
        // §IV-A: E=17,b=256 → 17 KiB; E=15,b=512 → 30 KiB.
        assert_eq!(SortParams::new(32, 17, 256).unwrap().shared_bytes(), 17 * 1024);
        assert_eq!(SortParams::new(32, 15, 512).unwrap().shared_bytes(), 30 * 1024);
    }

    #[test]
    fn length_arithmetic() {
        let p = SortParams::new(32, 15, 512).unwrap();
        let be = 7680;
        assert_eq!(p.block_elems(), be);
        assert!(p.valid_len(be));
        assert!(p.valid_len(be * 1024));
        assert!(!p.valid_len(be * 3));
        assert_eq!(p.global_rounds(be), 0);
        assert_eq!(p.global_rounds(be * 1024), 10);
        assert_eq!(p.next_valid_len(be * 3), be * 4);
        assert_eq!(p.blocks_for(be * 8), 8);
        // The paper's 7,864,320-element peak point is 1024 blocks.
        assert!(p.valid_len(7_864_320));
        assert_eq!(p.global_rounds(7_864_320), 10);
    }

    #[test]
    fn block_rounds_is_log_b() {
        assert_eq!(SortParams::new(32, 15, 512).unwrap().block_rounds(), 9);
        assert_eq!(SortParams::new(32, 17, 256).unwrap().block_rounds(), 8);
        assert_eq!(SortParams::new(32, 15, 128).unwrap().block_rounds(), 7);
    }

    #[test]
    fn rejects_bad_geometry() {
        let err = SortParams::new(32, 15, 384).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidBlock { b: 384, .. }), "{err}");
        let err = SortParams::new(32, 15, 32).unwrap_err();
        assert!(err.to_string().contains("b >= 2w"), "{err}");
        assert!(matches!(
            SortParams::new(32, 0, 512).unwrap_err(),
            WcmsError::ZeroParam { name: "E" }
        ));
        assert!(matches!(
            SortParams::new(0, 15, 512).unwrap_err(),
            WcmsError::ZeroParam { name: "w" }
        ));
    }
}
