//! Global (device) memory with a sector-based coalescing model.
//!
//! Since compute capability 5.x, an Nvidia L1TEX global access is broken
//! into 32-byte *sectors*; a warp's 32 requests cost as many transactions
//! as distinct sectors they touch. Fully coalesced word accesses by a warp
//! (lane `i` → word `base + i`) touch `32·4 / 32 = 4` sectors; a strided or
//! scattered pattern touches up to 32.
//!
//! The counter tracks *requests* (warp-level instructions), *sectors*
//! (transactions — the `A_g` unit of Karsin et al. up to a constant), and
//! raw *word accesses*. Word size is taken as 4 bytes (the paper sorts
//! 4-byte integers).

use wcms_error::WcmsError;

/// Running totals of global-memory traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GlobalTotals {
    /// Warp-level access instructions issued.
    pub requests: usize,
    /// 32-byte sectors transferred.
    pub sectors: usize,
    /// Individual word accesses.
    pub accesses: usize,
}

impl GlobalTotals {
    /// Merge totals from an independent kernel (associative/commutative).
    pub fn merge(&mut self, other: &GlobalTotals) {
        self.requests += other.requests;
        self.sectors += other.sectors;
        self.accesses += other.accesses;
    }

    /// Bytes transferred (sectors × 32).
    #[must_use]
    pub(crate) fn bytes(&self) -> usize {
        self.sectors * 32
    }
}

/// Traffic of a warp-granular coalesced transfer of `count` contiguous
/// 4-byte words starting at word `offset`, issued by lanes of width
/// `warp`. Standalone so that parallel per-block simulations can account
/// traffic without sharing a [`GlobalMemory`].
#[must_use]
pub fn tile_traffic(offset: usize, count: usize, warp: usize) -> GlobalTotals {
    tile_traffic_words(offset, count, warp, 4)
}

/// As [`tile_traffic`] for keys of `word_bytes` bytes (8-byte keys touch
/// twice the sectors of 4-byte keys).
///
/// # Panics
///
/// Panics if `word_bytes` is 0 or exceeds the 32-byte sector.
#[must_use]
pub fn tile_traffic_words(
    offset: usize,
    count: usize,
    warp: usize,
    word_bytes: usize,
) -> GlobalTotals {
    assert!((1..=32).contains(&word_bytes), "word must fit a sector");
    let words_per_sector = 32 / word_bytes;
    let mut totals = GlobalTotals { requests: 0, sectors: 0, accesses: count };
    let mut pos = 0usize;
    while pos < count {
        let lanes = (count - pos).min(warp);
        let first = (offset + pos) / words_per_sector;
        let last = (offset + pos + lanes - 1) / words_per_sector;
        totals.requests += 1;
        totals.sectors += last - first + 1;
        pos += lanes;
    }
    totals
}

/// Traffic of one scalar (single-lane) word access.
#[must_use]
pub fn scalar_traffic() -> GlobalTotals {
    GlobalTotals { requests: 1, sectors: 1, accesses: 1 }
}

/// Device memory with coalescing-aware accounting.
#[derive(Debug, Clone)]
pub struct GlobalMemory<T> {
    data: Vec<T>,
    totals: GlobalTotals,
    word_bytes: usize,
    sector_bytes: usize,
    scratch: Vec<usize>,
}

impl<T: Copy> GlobalMemory<T> {
    /// Wrap `data` as device memory (4-byte words, 32-byte sectors).
    #[must_use]
    pub fn new(data: Vec<T>) -> Self {
        Self {
            data,
            totals: GlobalTotals::default(),
            word_bytes: 4,
            sector_bytes: 32,
            scratch: Vec::with_capacity(64),
        }
    }

    fn charge(&mut self, addrs: impl Iterator<Item = usize>) {
        self.scratch.clear();
        let words_per_sector = self.sector_bytes / self.word_bytes;
        self.scratch.extend(addrs.map(|a| a / words_per_sector));
        if self.scratch.is_empty() {
            return;
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.totals.requests += 1;
        self.totals.sectors += self.scratch.len();
    }

    /// One warp read: lane `i` reads word `addrs[i]` into `out[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::BufferMismatch`] if `out` is shorter than
    /// `addrs`; nothing is read or charged in that case.
    pub fn read_warp(
        &mut self,
        addrs: &[Option<usize>],
        out: &mut [Option<T>],
    ) -> Result<(), WcmsError> {
        if out.len() < addrs.len() {
            return Err(WcmsError::BufferMismatch {
                what: "read_warp output",
                need: addrs.len(),
                got: out.len(),
            });
        }
        let mut n = 0usize;
        for (lane, addr) in addrs.iter().enumerate() {
            out[lane] = addr.map(|a| self.data[a]);
            n += usize::from(addr.is_some());
        }
        self.totals.accesses += n;
        self.charge(addrs.iter().flatten().copied());
        Ok(())
    }

    /// Coalesced tile load: a block of `threads` lanes reads
    /// `src[offset .. offset + count]` with the canonical round-robin
    /// pattern (lane `i` of pass `k` reads word `offset + k·threads + i`),
    /// charging one request per warp pass. Returns the words read.
    pub fn read_tile(
        &mut self,
        offset: usize,
        count: usize,
        threads: usize,
        warp: usize,
    ) -> Vec<T> {
        let out = self.data[offset..offset + count].to_vec();
        self.totals.accesses += count;
        // Charge warp-granular requests without materialising lane vectors.
        let mut pos = 0usize;
        while pos < count {
            let lanes = (count - pos).min(warp.min(threads));
            self.charge(offset + pos..offset + pos + lanes);
            pos += lanes;
        }
        out
    }

    /// Traffic totals.
    #[must_use]
    pub fn totals(&self) -> GlobalTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_warp_read_is_four_sectors() -> Result<(), WcmsError> {
        let mut g = GlobalMemory::new((0u32..1024).collect());
        let addrs: Vec<Option<usize>> = (0..32).map(Some).collect();
        let mut out = vec![None; 32];
        g.read_warp(&addrs, &mut out)?;
        assert_eq!(g.totals().requests, 1);
        // 32 contiguous 4-byte words = 128 bytes = 4 sectors.
        assert_eq!(g.totals().sectors, 4);
        assert_eq!(out[31], Some(31));
        Ok(())
    }

    #[test]
    fn strided_warp_read_is_32_sectors() -> Result<(), WcmsError> {
        let mut g = GlobalMemory::new(vec![0u32; 32 * 64]);
        let addrs: Vec<Option<usize>> = (0..32).map(|i| Some(i * 64)).collect();
        let mut out = vec![None; 32];
        g.read_warp(&addrs, &mut out)?;
        assert_eq!(g.totals().sectors, 32);
        Ok(())
    }

    #[test]
    fn broadcast_read_is_one_sector() -> Result<(), WcmsError> {
        let mut g = GlobalMemory::new(vec![7u32; 64]);
        let addrs: Vec<Option<usize>> = (0..32).map(|_| Some(5)).collect();
        let mut out = vec![None; 32];
        g.read_warp(&addrs, &mut out)?;
        assert_eq!(g.totals().sectors, 1);
        Ok(())
    }

    #[test]
    fn short_output_buffer_is_typed() {
        let mut g = GlobalMemory::new(vec![0u32; 8]);
        let mut out = vec![None; 1];
        let err = g.read_warp(&[Some(0), Some(1)], &mut out).unwrap_err();
        assert!(matches!(err, WcmsError::BufferMismatch { need: 2, got: 1, .. }), "{err}");
        assert_eq!(g.totals(), GlobalTotals::default());
    }

    #[test]
    fn tile_roundtrip_counts_warp_requests() {
        let mut g = GlobalMemory::new((0u32..256).collect());
        let tile = g.read_tile(64, 128, 128, 32);
        assert_eq!(tile.len(), 128);
        assert_eq!(tile[0], 64);
        // 128 words in 32-lane passes = 4 requests, each 4 sectors.
        assert_eq!(g.totals().requests, 4);
        assert_eq!(g.totals().sectors, 16);
    }

    #[test]
    fn tile_traffic_matches_global_memory() {
        for (offset, count) in [(0usize, 128usize), (64, 128), (5, 100), (7, 31), (0, 1)] {
            let mut g = GlobalMemory::new((0u32..4096).collect());
            let _ = g.read_tile(offset, count, 256, 32);
            assert_eq!(
                g.totals(),
                tile_traffic(offset, count, 32),
                "offset={offset} count={count}"
            );
        }
    }

    #[test]
    fn scalar_traffic_is_one_sector() {
        assert_eq!(scalar_traffic(), GlobalTotals { requests: 1, sectors: 1, accesses: 1 });
    }

    #[test]
    fn totals_merge() {
        let mut a = GlobalTotals { requests: 1, sectors: 4, accesses: 32 };
        a.merge(&GlobalTotals { requests: 2, sectors: 8, accesses: 64 });
        assert_eq!(a, GlobalTotals { requests: 3, sectors: 12, accesses: 96 });
        assert_eq!(a.bytes(), 12 * 32);
    }
}
