//! Banked shared memory with per-step conflict accounting.
//!
//! A [`SharedMemory`] models one thread block's shared-memory tile: a flat
//! array of words whose bank layout follows the DMM mapping (`addr mod w`).
//! Kernels drive it one warp step at a time; each step is analysed by a
//! [`wcms_dmm::ConflictCounter`].
//!
//! Warps of one block are independent in the merge sort (each works on its
//! own `wE`-element slice), so the block simulation issues their steps
//! sequentially into the same tile; totals are additive.

use wcms_dmm::{
    pad_address, padded_len, Access, BankModel, ConflictCounter, ConflictTotals, StepConflicts,
};
use wcms_error::WcmsError;

/// A shared-memory tile with conflict accounting.
///
/// With [`SharedMemory::new_padded`], addresses presented to the tile
/// stay *logical* (contiguous), but the conflict counter sees the
/// physical addresses of the Dotsenko padding layout — the standard
/// mitigation that trades `1/w` extra shared memory for conflict
/// freedom on columnar access patterns.
///
/// Each step's lanes are staged straight into the counter, which packs
/// them into `u32` physical addresses ([`wcms_dmm::Access`]); a tile's
/// physical words must therefore fit in that domain (2³² words), so
/// every address it accepts is exact in the count.
#[derive(Debug, Clone)]
pub struct SharedMemory<T> {
    data: Vec<T>,
    counter: ConflictCounter,
    padded: bool,
}

impl<T: Copy + Default> SharedMemory<T> {
    /// A zeroed tile of `words` words on the given bank model.
    ///
    /// # Panics
    ///
    /// Panics if the tile's physical words exceed the counter's 2³²-word
    /// address domain.
    #[must_use]
    pub fn new(model: BankModel, words: usize) -> Self {
        Self::with_layout(model, words, false)
    }

    /// A tile whose *physical* layout pads one word per `w` logical
    /// words. Callers keep using logical addresses.
    ///
    /// # Panics
    ///
    /// As [`SharedMemory::new`], counting the padding words.
    #[must_use]
    pub fn new_padded(model: BankModel, words: usize) -> Self {
        Self::with_layout(model, words, true)
    }

    fn with_layout(model: BankModel, words: usize, padded: bool) -> Self {
        let physical = if padded { padded_len(words, model.banks()) } else { words };
        assert!(
            physical as u64 <= 1 << 32,
            "a {physical}-word tile exceeds the conflict counter's u32 address domain"
        );
        Self { data: vec![T::default(); words], counter: ConflictCounter::new(model), padded }
    }

    /// Physical address of the in-bounds logical address `addr`. Exact
    /// in `u32`: the constructor bounds the tile's physical words.
    #[inline]
    fn physical(&self, addr: usize) -> u32 {
        let p = if self.padded { pad_address(addr, self.counter.model().banks()) } else { addr };
        p as u32
    }

    /// Uncounted bulk initialisation (simulator setup, not kernel work).
    pub fn fill_from(&mut self, src: &[T]) {
        self.data[..src.len()].copy_from_slice(src);
    }

    /// Uncounted read-only view (simulator introspection).
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// One warp read step: lane `i` reads `addrs[i]` (or idles on `None`);
    /// values are written into `out[i]`. Returns the step's metrics.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::SmemOutOfBounds`] if any lane addresses past
    /// the tile (a corrupted co-rank or offset), or
    /// [`WcmsError::BufferMismatch`] if `out` is shorter than `addrs`.
    /// Either way the step is not counted.
    pub fn read_step(
        &mut self,
        addrs: &[Option<usize>],
        out: &mut [Option<T>],
    ) -> Result<StepConflicts, WcmsError> {
        if out.len() < addrs.len() {
            return Err(WcmsError::BufferMismatch {
                what: "read_step output",
                need: addrs.len(),
                got: out.len(),
            });
        }
        self.counter.begin_step();
        for (lane, addr) in addrs.iter().enumerate() {
            out[lane] = None;
            if let Some(a) = *addr {
                let Some(&v) = self.data.get(a) else {
                    return Err(WcmsError::SmemOutOfBounds { address: a, words: self.data.len() });
                };
                self.counter.stage(Access::read(self.physical(a)));
                out[lane] = Some(v);
            }
        }
        let s = self.counter.scan();
        self.counter.record(s);
        Ok(s)
    }

    /// One warp write step: lane `i` writes `writes[i] = (addr, value)`.
    /// Returns the step's metrics.
    ///
    /// The tile enforces the DMM's CREW discipline: the machine is
    /// concurrent-read, *exclusive*-write, and the merge kernels never
    /// legitimately double-write an address within one step, so a
    /// collision is always corruption (e.g. an injected co-rank fault).
    /// The counter's own scan finds a collision before anything is
    /// stored.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::CrewViolation`] if a lane writes an address
    /// an earlier lane of this step wrote, or
    /// [`WcmsError::SmemOutOfBounds`] if a lane addresses past the tile —
    /// whichever lane comes first. Either way nothing is stored and the
    /// step is not counted.
    pub fn write_step(
        &mut self,
        writes: &[Option<(usize, T)>],
    ) -> Result<StepConflicts, WcmsError> {
        self.counter.begin_step();
        let mut in_bounds = true;
        for &(a, _) in writes.iter().flatten() {
            if a >= self.data.len() {
                in_bounds = false;
                break;
            }
            self.counter.stage(Access::write(self.physical(a)));
        }
        let s = self.counter.scan();
        if !in_bounds || s.crew_violations > 0 {
            // Padding is injective, so the scan's physical collision is a
            // logical one: the lane-order rule names every refusal.
            self.check_lane_order(writes)?;
        }
        for &(a, v) in writes.iter().flatten() {
            self.data[a] = v;
        }
        self.counter.record(s);
        Ok(s)
    }

    /// The lane-order rule of a write step: the first lane that addresses
    /// past the tile or repeats an earlier lane's address is refused,
    /// with `step` the number of steps counted since the last drain.
    #[cold]
    fn check_lane_order(&self, writes: &[Option<(usize, T)>]) -> Result<(), WcmsError> {
        for (i, w) in writes.iter().enumerate() {
            if let Some((a, _)) = *w {
                if a >= self.data.len() {
                    return Err(WcmsError::SmemOutOfBounds { address: a, words: self.data.len() });
                }
                if writes[..i].iter().flatten().any(|&(prev, _)| prev == a) {
                    let step = self.counter.totals().steps;
                    return Err(WcmsError::CrewViolation { step, address: a });
                }
            }
        }
        Ok(())
    }

    /// Return the running totals and reset them.
    /// Lets a kernel attribute each phase's accesses to its own bucket.
    pub fn drain_totals(&mut self) -> ConflictTotals {
        let t = self.counter.totals();
        self.counter.reset();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smem(words: usize) -> SharedMemory<u32> {
        SharedMemory::new(BankModel::gpu32(), words)
    }

    #[test]
    fn read_step_returns_values_and_counts() -> Result<(), WcmsError> {
        let mut m = smem(64);
        m.fill_from(&(0..64).map(|x| x * 10).collect::<Vec<u32>>());
        let addrs: Vec<Option<usize>> = vec![Some(0), Some(32), None, Some(3)];
        let mut out = vec![None; 4];
        let s = m.read_step(&addrs, &mut out)?;
        assert_eq!(out, vec![Some(0), Some(320), None, Some(30)]);
        // 0 and 32 share bank 0 → 2-way conflict.
        assert_eq!(s.degree, 2);
        assert_eq!(s.active_lanes, 3);
        assert_eq!(m.drain_totals().steps, 1);
        Ok(())
    }

    #[test]
    fn short_output_buffer_is_typed() {
        let mut m = smem(8);
        let mut out = vec![None; 1];
        let err = m.read_step(&[Some(0), Some(1)], &mut out).unwrap_err();
        assert!(matches!(err, WcmsError::BufferMismatch { need: 2, got: 1, .. }), "{err}");
    }

    #[test]
    fn write_step_stores_values() -> Result<(), WcmsError> {
        let mut m = smem(64);
        let s = m.write_step(&[Some((5, 7u32)), Some((6, 8)), None])?;
        assert_eq!(m.as_slice()[5], 7);
        assert_eq!(m.as_slice()[6], 8);
        assert_eq!(s.degree, 1);
        assert_eq!(s.crew_violations, 0);
        Ok(())
    }

    #[test]
    fn crew_violation_detected_on_write_race() {
        let mut m = smem(8);
        let err = m.write_step(&[Some((3, 1u32)), Some((3, 2))]).unwrap_err();
        assert!(matches!(err, WcmsError::CrewViolation { address: 3, .. }), "{err}");
        // Nothing was stored: the tile is untouched.
        assert_eq!(m.as_slice()[3], 0);
    }

    #[test]
    fn padded_tile_defeats_columnar_conflicts() -> Result<(), WcmsError> {
        // Four lanes reading one logical bank column: flat layout → 4-way
        // conflict; padded layout → conflict-free.
        let addrs: Vec<Option<usize>> = (0..4).map(|i| Some(i * 32)).collect();
        let mut out = vec![None; 4];

        let mut flat = smem(256);
        assert_eq!(flat.read_step(&addrs, &mut out)?.degree, 4);

        let mut padded = SharedMemory::<u32>::new_padded(BankModel::gpu32(), 256);
        assert_eq!(padded.read_step(&addrs, &mut out)?.degree, 1);
        Ok(())
    }

    #[test]
    fn padded_tile_keeps_logical_data() -> Result<(), WcmsError> {
        let mut m = SharedMemory::<u32>::new_padded(BankModel::gpu32(), 64);
        m.write_step(&[Some((33, 7u32))])?;
        let mut out = vec![None; 1];
        m.read_step(&[Some(33)], &mut out)?;
        assert_eq!(out[0], Some(7));
        assert_eq!(m.as_slice()[33], 7);
        Ok(())
    }

    #[test]
    fn out_of_bounds_read_is_typed() {
        let mut m = smem(4);
        let mut out = vec![None; 1];
        let err = m.read_step(&[Some(4)], &mut out).unwrap_err();
        assert!(matches!(err, WcmsError::SmemOutOfBounds { address: 4, words: 4 }), "{err}");
        let err = m.write_step(&[Some((9, 1u32))]).unwrap_err();
        assert!(matches!(err, WcmsError::SmemOutOfBounds { address: 9, .. }), "{err}");
    }
}
