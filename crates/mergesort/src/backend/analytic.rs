//! The analytic backend: exact conflict totals without a simulated tile.
//!
//! The lockstep simulator spends most of its time on machinery the
//! counters do not need — moving every lane's `Option` request and value
//! through the shared tile, a sort of one key per lane inside every
//! step's conflict analysis (the scan that also catches CREW races),
//! and a materialised per-stage schedule. This backend's tile skips all
//! of it: thread schedules are *streamed* from the shared walkers in
//! [`crate::schedule`] (the same construction the simulator
//! materialises) straight into a [`StepAccumulator`] in `O(active
//! lanes + w)` per step, buffering only one warp's addresses at a time
//! in reused flat scratch — no per-thread allocation anywhere. Data
//! movement is plain slice copies. Counters come out integer-for-integer
//! equal to [`super::SimBackend`] because the two backends run the same
//! kernels ([`super::kernel`]) over the same schedules, and the
//! accumulator reproduces the [`wcms_dmm::ConflictCounter`] arithmetic
//! exactly — including the padded physical layout, which is applied
//! per address rather than approximated with a closed form (a fill that
//! crosses a padding boundary is *not* conflict-free, and a formula
//! would miss that).

use wcms_dmm::{padded_len, BankModel, ConflictTotals, StepAccumulator, StepConflicts};
use wcms_error::WcmsError;
use wcms_gpu_sim::GpuKey;

use crate::instrument::{PhaseTotals, RoundCounters};
use crate::params::SortParams;
use crate::schedule::{ScheduleSink, Stage, ThreadSlices};

use super::kernel::Tile;
use super::ExecBackend;

/// Schedule-replay conflict prediction: identical counters to
/// [`super::SimBackend`], 2.6–2.8× faster over `crossval`'s 34 cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

/// Conflict accounting for one thread block's tile, mirroring the step
/// structure of the lockstep helpers in [`crate::warp_exec`] exactly:
/// same warp chunking, same per-step lane membership, same idle lanes —
/// only the accounting engine differs.
struct TileCounter {
    acc: StepAccumulator,
    padded: bool,
    banks: usize,
}

impl TileCounter {
    fn new(params: &SortParams, words: usize) -> Self {
        let padded = params.smem_padding;
        let physical = if padded { padded_len(words, params.w) } else { words };
        Self {
            acc: StepAccumulator::new(BankModel::new(params.w), physical),
            padded,
            banks: params.w,
        }
    }

    /// Logical → physical address, matching `SharedMemory::physical`.
    #[inline]
    fn phys(&self, addr: usize) -> usize {
        if self.padded {
            wcms_dmm::pad_address(addr, self.banks)
        } else {
            addr
        }
    }

    /// Replay one warp's flattened sequences with the lockstep step
    /// structure of `lockstep_reads` / `lockstep_probe` /
    /// `lockstep_writes` (identical for race-free schedules: both
    /// serialize on distinct addresses per bank and broadcast-dedupe
    /// repeats): step `j` accesses address `j` of every thread whose
    /// sequence is that long; exhausted lanes idle.
    /// `DISTINCT` marks phases whose per-step addresses are disjoint by
    /// construction (the merge reads: consumed input positions partition
    /// the input across threads), selecting the accumulator's dedupe-free
    /// fast path at compile time; probe phases broadcast and must take
    /// the general one.
    fn replay_warp<const DISTINCT: bool>(&mut self, seqs: ThreadSlices<'_, usize>) {
        let lanes = seqs.threads();
        if lanes == 0 {
            return;
        }
        let addrs = seqs.items();
        // Equal-length sequences (always true for the merge phase — every
        // thread consumes exactly E inputs — and for most probe warps):
        // no lane ever idles, so the per-lane bounds bookkeeping drops
        // out of the transpose.
        let len = seqs.thread(0).len();
        if seqs.iter().all(|seq| seq.len() == len) {
            for j in 0..len {
                self.acc.begin_step();
                let mut k = j;
                for _ in 0..lanes {
                    let p = self.phys(addrs[k]);
                    if DISTINCT {
                        self.acc.access_distinct(p);
                    } else {
                        self.acc.access(p);
                    }
                    k += len;
                }
                self.acc.end_step();
            }
            return;
        }
        let steps = seqs.iter().map(<[usize]>::len).max().unwrap_or(0);
        for j in 0..steps {
            self.acc.begin_step();
            for seq in seqs.iter() {
                if let Some(&addr) = seq.get(j) {
                    let p = self.phys(addr);
                    if DISTINCT {
                        self.acc.access_distinct(p);
                    } else {
                        self.acc.access(p);
                    }
                }
            }
            self.acc.end_step();
        }
    }

    /// Replay one warp's contiguous write windows (`start`, `len` per
    /// lane) with the same lockstep structure — the staging phase's
    /// addresses are ranges, so no buffer is needed at all.
    ///
    /// Unpadded, with equal window lengths (every merge stage: each
    /// thread stages exactly `E` elements), step `j+1` is step `j`
    /// shifted by one address — a bank rotation — so all steps have the
    /// metrics of the first and only one is replayed.
    fn replay_warp_ranges(&mut self, ranges: &[(usize, usize)]) {
        let steps = ranges.iter().map(|r| r.1).max().unwrap_or(0);
        if steps == 0 {
            return;
        }
        if !self.padded && ranges.iter().all(|r| r.1 == steps) {
            self.acc.begin_step();
            for &(start, _) in ranges {
                self.acc.access_distinct(start);
            }
            let s = self.acc.end_step();
            self.acc.repeat_step(s, steps - 1);
            return;
        }
        for j in 0..steps {
            self.acc.begin_step();
            for &(start, len) in ranges {
                if j < len {
                    let p = self.phys(start + j);
                    self.acc.access_distinct(p);
                }
            }
            self.acc.end_step();
        }
    }

    /// Charge the register sort's strided accesses (thread `t` touches
    /// `tE + j` at step `j`) with `lockstep_reads`'s warp chunking —
    /// generated arithmetically, never materialised. Unpadded, the `E`
    /// steps of a warp chunk are +1 address shifts of each other (bank
    /// rotations), so one step is counted and `E−1` folded.
    fn count_strided(&mut self, b: usize, e: usize, warp: usize) {
        let mut t0 = 0usize;
        while t0 < b {
            let lanes = warp.min(b - t0);
            if self.padded {
                for j in 0..e {
                    self.acc.begin_step();
                    for l in 0..lanes {
                        let p = self.phys((t0 + l) * e + j);
                        self.acc.access_distinct(p);
                    }
                    self.acc.end_step();
                }
            } else {
                self.acc.begin_step();
                for l in 0..lanes {
                    self.acc.access_distinct((t0 + l) * e);
                }
                let s = self.acc.end_step();
                self.acc.repeat_step(s, e - 1);
            }
            t0 += lanes;
        }
    }

    /// Charge a coalesced block fill with `coalesced_fill`'s step
    /// structure (`min(warp, block_threads)` contiguous lanes per step).
    /// Unpadded, ≤ w contiguous addresses always land in distinct banks,
    /// so every step is conflict-free and fills fold in O(1).
    fn count_fill(&mut self, dst: usize, len: usize, block_threads: usize, warp: usize) {
        let chunk = warp.min(block_threads);
        if !self.padded {
            let conflict_free = |lanes: usize| StepConflicts {
                degree: 1,
                conflicting_accesses: 0,
                crew_violations: 0,
                active_lanes: lanes,
            };
            self.acc.repeat_step(conflict_free(chunk), len / chunk);
            self.acc.repeat_step(conflict_free(len % chunk), 1);
            return;
        }
        let mut pos = 0usize;
        while pos < len {
            let lanes = (len - pos).min(chunk);
            self.acc.begin_step();
            for l in 0..lanes {
                let p = self.phys(dst + pos + l);
                self.acc.access_distinct(p);
            }
            self.acc.end_step();
            pos += lanes;
        }
    }

    fn drain(&mut self) -> ConflictTotals {
        self.acc.drain_totals()
    }
}

/// Warp-granular buffers and per-phase totals of one merge stage's
/// streamed schedules. The walkers feed it through [`StageSink`], which
/// appends each thread's addresses directly to these flat buffers (no
/// intermediate per-thread storage, the [`ThreadSlices`] layout of the
/// simulator's materialised schedules) and replays a warp's three
/// phases into the tile counter the moment its last lane completes.
struct StageCounter {
    probe_addrs: Vec<usize>,
    probe_ends: Vec<usize>,
    merge_addrs: Vec<usize>,
    merge_ends: Vec<usize>,
    writes: Vec<(usize, usize)>,
    /// The stage's totals so far, by phase.
    phases: PhaseTotals,
    warp: usize,
}

impl StageCounter {
    fn new(warp: usize) -> Self {
        Self {
            probe_addrs: Vec::new(),
            probe_ends: Vec::new(),
            merge_addrs: Vec::new(),
            merge_ends: Vec::new(),
            writes: Vec::with_capacity(warp),
            phases: PhaseTotals::default(),
            warp,
        }
    }

    /// Replay the buffered warp, phase by phase, and clear the buffers.
    fn flush(&mut self, tc: &mut TileCounter) {
        if self.writes.is_empty() {
            return;
        }
        tc.replay_warp::<false>(ThreadSlices::new(&self.probe_addrs, &self.probe_ends));
        self.phases.partition.merge(&tc.drain());
        tc.replay_warp::<true>(ThreadSlices::new(&self.merge_addrs, &self.merge_ends));
        self.phases.merge.merge(&tc.drain());
        tc.replay_warp_ranges(&self.writes);
        self.phases.transfer.merge(&tc.drain());
        self.probe_addrs.clear();
        self.probe_ends.clear();
        self.merge_addrs.clear();
        self.merge_ends.clear();
        self.writes.clear();
    }
}

/// The walkers' streaming consumer for one merge stage: probe and read
/// addresses append to the [`StageCounter`]'s warp buffers as they are
/// generated, merged values land directly in `out` (emit order *is*
/// staging order), and a completed warp is replayed immediately.
struct StageSink<'a, K> {
    stage: &'a mut StageCounter,
    tc: &'a mut TileCounter,
    out: &'a mut [K],
    write_start: usize,
    cursor: usize,
}

impl<K: Copy> ScheduleSink<K> for StageSink<'_, K> {
    fn begin_thread(&mut self, write_start: usize) {
        self.write_start = write_start;
        self.cursor = write_start;
    }

    fn probe(&mut self, a_addr: usize, b_addr: usize) {
        self.stage.probe_addrs.push(a_addr);
        self.stage.probe_addrs.push(b_addr);
    }

    fn probe_at(&mut self, addr: usize) {
        self.stage.probe_addrs.push(addr);
    }

    fn merge_read(&mut self, addr: usize, val: K) {
        self.stage.merge_addrs.push(addr);
        self.out[self.cursor] = val;
        self.cursor += 1;
    }

    fn end_thread(&mut self) {
        self.stage.probe_ends.push(self.stage.probe_addrs.len());
        self.stage.merge_ends.push(self.stage.merge_addrs.len());
        self.stage.writes.push((self.write_start, self.cursor - self.write_start));
        if self.stage.writes.len() == self.stage.warp {
            self.stage.flush(self.tc);
        }
    }
}

impl<'a, K> StageSink<'a, K> {
    fn new(stage: &'a mut StageCounter, tc: &'a mut TileCounter, out: &'a mut [K]) -> Self {
        Self { stage, tc, out, write_start: 0, cursor: 0 }
    }
}

/// The analytic tile: the tile's contents as a plain buffer, and every
/// warp step the kernels issue counted by a [`TileCounter`] — the
/// fills, strided passes and staging windows in closed form, the
/// schedules streamed a warp at a time through a [`StageSink`].
struct CountTile<K> {
    counter: TileCounter,
    stage: StageCounter,
    data: Vec<K>,
    /// An in-block round's staging buffer, which then takes `data`'s
    /// place (every round stages all `bE` words).
    spare: Vec<K>,
}

impl<K: GpuKey> Tile<K> for CountTile<K> {
    fn new(params: &SortParams) -> Self {
        let be = params.block_elems();
        Self {
            counter: TileCounter::new(params, be),
            stage: StageCounter::new(params.w),
            data: Vec::with_capacity(be),
            spare: Vec::new(),
        }
    }

    fn load(&mut self, values: &[K], params: &SortParams) -> Result<(), WcmsError> {
        self.counter.count_fill(self.data.len(), values.len(), params.b, params.w);
        self.data.extend_from_slice(values);
        Ok(())
    }

    fn register_pass(
        &mut self,
        params: &SortParams,
        f: impl FnOnce(&mut [K]),
    ) -> Result<(), WcmsError> {
        // Strided reads and the write-back to the same addresses, both
        // generated arithmetically; the registers are the tile itself.
        self.counter.count_strided(params.b, params.e, params.w);
        f(&mut self.data);
        self.counter.count_strided(params.b, params.e, params.w);
        Ok(())
    }

    fn merge_stage(
        &mut self,
        stage: Stage<'_, K>,
        params: &SortParams,
    ) -> Result<PhaseTotals, WcmsError> {
        let Self { counter, stage: buffers, data, spare } = self;
        if let Stage::InBlock(_) = stage {
            // Threads of a pair read what others overwrite: stage into
            // the second buffer, then swap.
            spare.resize(data.len(), K::default());
            stage.walk(data, params, &mut StageSink::new(buffers, counter, spare));
            std::mem::swap(data, spare);
        } else {
            // A global stage reads the global lists, so its staged
            // values land in the tile directly.
            stage.walk(&[], params, &mut StageSink::new(buffers, counter, data));
        }
        buffers.flush(counter);
        Ok(std::mem::take(&mut buffers.phases))
    }

    fn drain(&mut self) -> ConflictTotals {
        self.counter.drain()
    }

    fn into_vec(self) -> Vec<K> {
        self.data
    }
}

impl ExecBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        CountTile::base_block(chunk, global_offset, params)
    }

    fn merge_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        a_offset: usize,
        b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        CountTile::merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)
    }

    fn merge_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        run_offsets: &[usize],
        out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        CountTile::merge_unit_multi(runs, run_offsets, out_offset, block_index, params, precomputed)
    }
}

#[cfg(test)]
mod tests {
    use super::super::SimBackend;
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    /// Every tile path: flat and padded layouts, aligned and misaligned
    /// global offsets.
    #[test]
    fn base_block_matches_sim_exactly() {
        for p in [params(), params().with_padding()] {
            let input: Vec<u32> =
                (0..p.block_elems() as u32).map(|i| i.wrapping_mul(2_654_435_761) % 977).collect();
            for offset in [0, 4] {
                let (sim_out, sim_c) = SimBackend.base_block(&input, offset, &p).unwrap();
                let (ana_out, ana_c) = AnalyticBackend.base_block(&input, offset, &p).unwrap();
                let case = format!("padding={} offset={offset}", p.smem_padding);
                assert_eq!(ana_out, sim_out, "{case}");
                assert_eq!(ana_c, sim_c, "{case}");
            }
        }
    }

    /// Every tile path: flat and padded layouts, fused (Thrust) and
    /// precomputed (Modern GPU) co-ranks.
    #[test]
    fn merge_unit_matches_sim_exactly() {
        for p in [params(), params().with_padding()] {
            let be = p.block_elems();
            let mut a: Vec<u32> = (0..be as u32).map(|x| x * 3 % 101).collect();
            let mut b: Vec<u32> = (0..be as u32).map(|x| x * 7 % 103).collect();
            a.sort_unstable();
            b.sort_unstable();
            let (coranks, _) = SimBackend.partition_unit(&a, &b, 2, &p);
            for (j, &corank) in coranks.iter().enumerate() {
                for pre in [None, Some(corank)] {
                    let (sim_out, sim_c) =
                        SimBackend.merge_unit(&a, &b, 0, be, j, &p, pre).unwrap();
                    let (ana_out, ana_c) =
                        AnalyticBackend.merge_unit(&a, &b, 0, be, j, &p, pre).unwrap();
                    let case = format!("block {j} padding={} pre={pre:?}", p.smem_padding);
                    assert_eq!(ana_out, sim_out, "{case}");
                    assert_eq!(ana_c, sim_c, "{case}");
                }
            }
        }
    }

    /// Every tile path of the k-way unit: flat and padded layouts, fused
    /// and precomputed co-ranks.
    #[test]
    fn merge_unit_multi_matches_sim_exactly() {
        for p in [params(), params().with_padding()] {
            let be = p.block_elems();
            let runs: Vec<Vec<u32>> =
                (0..3u32).map(|r| (0..be as u32).map(|x| (x * (r + 3)) % 251).collect()).collect();
            let mut runs = runs;
            for r in &mut runs {
                r.sort_unstable();
            }
            let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
            let offsets: Vec<usize> = (0..3).map(|i| i * be).collect();
            let (coranks, _) = SimBackend.partition_unit_multi(&refs, 3, &p);
            for (j, corank) in coranks.iter().enumerate() {
                for pre in [None, Some(corank.as_slice())] {
                    let (sim_out, sim_c) =
                        SimBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, pre).unwrap();
                    let (ana_out, ana_c) =
                        AnalyticBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, pre).unwrap();
                    let case = format!("block {j} padding={} pre={pre:?}", p.smem_padding);
                    assert_eq!(ana_out, sim_out, "{case}");
                    assert_eq!(ana_c, sim_c, "{case}");
                }
            }
        }
    }

    #[test]
    fn rejects_wrong_block_size() {
        let err = AnalyticBackend.base_block(&[1u32, 2, 3], 0, &params()).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{err}");
    }

    #[test]
    fn corrupted_corank_is_a_typed_error() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).collect();
        let b: Vec<u32> = (0..be as u32).collect();
        let err = AnalyticBackend.merge_unit(&a, &b, 0, be, 0, &p, Some((be + 9, 0))).unwrap_err();
        assert!(matches!(err, WcmsError::PartitionValidation { .. }), "{err}");
    }
}
