//! The analytic backend: exact conflict totals without a simulated tile.
//!
//! The lockstep simulator spends most of its time on machinery the
//! counters do not need — moving every lane's `Option` request and value
//! through the shared tile, a sort of one key per lane inside every
//! step's conflict analysis (the scan that also catches CREW races),
//! and a materialised per-stage schedule. This backend skips all of it:
//! thread schedules are *streamed* from the shared walkers in
//! [`crate::schedule`] (the same construction the simulator
//! materialises) straight into a [`StepAccumulator`] in `O(active
//! lanes + w)` per step, buffering only one warp's addresses at a time
//! in reused flat scratch — no per-thread allocation anywhere. Data
//! movement is plain slice copies. Counters come out integer-for-integer
//! equal to [`super::SimBackend`] because the two backends share
//! schedule construction and the accumulator reproduces the
//! [`wcms_dmm::ConflictCounter`] arithmetic exactly — including the
//! padded physical layout, which is applied per address rather than
//! approximated with a closed form (a fill that crosses a padding
//! boundary is *not* conflict-free, and a formula would miss that).

use wcms_dmm::{padded_len, BankModel, ConflictTotals, StepAccumulator, StepConflicts};
use wcms_error::WcmsError;
use wcms_gpu_sim::{tile_traffic_words, GpuKey};

use crate::instrument::RoundCounters;
use crate::network::odd_even_sort;
use crate::params::SortParams;
use crate::schedule::{
    find_block_coranks, find_block_coranks_multi, validate_coranks, validate_coranks_multi,
    walk_block_merge, walk_in_block_round, walk_multiway_merge, ScheduleSink,
};

use super::ExecBackend;

/// Schedule-replay conflict prediction: identical counters to
/// [`super::SimBackend`], 2.6–2.8× faster over `crossval --quick`'s 34
/// cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticBackend;

/// One warp's per-thread address sequences, flattened (CSR-style): the
/// addresses of thread `t` of the warp are
/// `addrs[ends[t-1]..ends[t]]`. Reused across warps, rounds and blocks.
#[derive(Default)]
struct WarpSeqs {
    addrs: Vec<usize>,
    ends: Vec<usize>,
}

impl WarpSeqs {
    fn clear(&mut self) {
        self.addrs.clear();
        self.ends.clear();
    }
}

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
    fn replay_warp<const DISTINCT: bool>(&mut self, warp: &WarpSeqs) {
        let lanes = warp.ends.len();
        if lanes == 0 {
            return;
        }
        // Equal-length sequences (always true for the merge phase — every
        // thread consumes exactly E inputs — and for most probe warps):
        // no lane ever idles, so the per-lane bounds bookkeeping drops
        // out of the transpose.
        let len = warp.ends[0];
        if warp.ends.iter().enumerate().all(|(l, &end)| end == (l + 1) * len) {
            for j in 0..len {
                self.acc.begin_step();
                let mut k = j;
                for _ in 0..lanes {
                    let p = self.phys(warp.addrs[k]);
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
        let mut steps = 0usize;
        let mut start = 0usize;
        for &end in &warp.ends {
            steps = steps.max(end - start);
            start = end;
        }
        for j in 0..steps {
            self.acc.begin_step();
            let mut start = 0usize;
            for &end in &warp.ends[..lanes] {
                if j < end - start {
                    let p = self.phys(warp.addrs[start + j]);
                    if DISTINCT {
                        self.acc.access_distinct(p);
                    } else {
                        self.acc.access(p);
                    }
                }
                start = end;
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
/// intermediate per-thread storage) and replays a warp's three phases
/// into the tile counter the moment its last lane completes.
struct StageCounter {
    probe: WarpSeqs,
    merge: WarpSeqs,
    writes: Vec<(usize, usize)>,
    partition: ConflictTotals,
    merging: ConflictTotals,
    transfer: ConflictTotals,
    warp: usize,
}

impl StageCounter {
    fn new(warp: usize) -> Self {
        Self {
            probe: WarpSeqs::default(),
            merge: WarpSeqs::default(),
            writes: Vec::with_capacity(warp),
            partition: ConflictTotals::default(),
            merging: ConflictTotals::default(),
            transfer: ConflictTotals::default(),
            warp,
        }
    }

    /// Replay the buffered warp, phase by phase, and clear the buffers.
    fn flush(&mut self, tc: &mut TileCounter) {
        if self.writes.is_empty() {
            return;
        }
        tc.replay_warp::<false>(&self.probe);
        self.partition.merge(&tc.drain());
        tc.replay_warp::<true>(&self.merge);
        self.merging.merge(&tc.drain());
        tc.replay_warp_ranges(&self.writes);
        self.transfer.merge(&tc.drain());
        self.probe.clear();
        self.merge.clear();
        self.writes.clear();
    }

    /// Fold the stage's per-phase totals into the round counters and
    /// reset them for the next stage.
    fn charge(&mut self, counters: &mut RoundCounters) {
        counters.shared.partition.merge(&self.partition);
        counters.shared.merge.merge(&self.merging);
        counters.shared.transfer.merge(&self.transfer);
        self.partition = ConflictTotals::default();
        self.merging = ConflictTotals::default();
        self.transfer = ConflictTotals::default();
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
        self.stage.probe.addrs.push(a_addr);
        self.stage.probe.addrs.push(b_addr);
    }

    fn probe_at(&mut self, addr: usize) {
        self.stage.probe.addrs.push(addr);
    }

    fn merge_read(&mut self, addr: usize, val: K) {
        self.stage.merge.addrs.push(addr);
        self.out[self.cursor] = val;
        self.cursor += 1;
    }

    fn end_thread(&mut self) {
        self.stage.probe.ends.push(self.stage.probe.addrs.len());
        self.stage.merge.ends.push(self.stage.merge.addrs.len());
        self.stage.writes.push((self.write_start, self.cursor - self.write_start));
        if self.stage.writes.len() == self.stage.warp {
            self.stage.flush(self.tc);
        }
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
        let be = params.block_elems();
        if chunk.len() != be {
            return Err(WcmsError::InvalidLength { n: chunk.len(), block_elems: be });
        }
        let (w, e, b) = (params.w, params.e, params.b);

        let mut counters = RoundCounters { blocks: 1, ..Default::default() };
        let mut tc = TileCounter::new(params, be);
        let mut tile = chunk.to_vec();

        // Tile load: global (coalesced) → shared (round-robin).
        counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
        tc.count_fill(0, be, b, w);

        // Register sort: strided reads, odd–even network, write-back to
        // the same addresses — both passes generated arithmetically.
        tc.count_strided(b, e, w);
        for run in tile.chunks_mut(e) {
            counters.comparators += odd_even_sort(run);
        }
        tc.count_strided(b, e, w);
        counters.shared.transfer.merge(&tc.drain());

        // In-block pairwise merge rounds: stream the shared schedule
        // walker warp by warp into the accumulator; staged values land in
        // a double buffer (threads of a pair read what others overwrite).
        let mut out = tile.clone();
        let mut stage = StageCounter::new(w);
        for round in 1..=params.block_rounds() {
            walk_in_block_round(
                &tile,
                round,
                params,
                &mut StageSink {
                    stage: &mut stage,
                    tc: &mut tc,
                    out: &mut out,
                    write_start: 0,
                    cursor: 0,
                },
            );
            stage.flush(&mut tc);
            stage.charge(&mut counters);
            // Every round stages all bE positions, so the buffers swap
            // roles instead of copying.
            std::mem::swap(&mut tile, &mut out);
        }

        // Store: shared → global (coalesced).
        counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
        Ok((tile, counters))
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
        let be = params.block_elems();
        let w = params.w;
        let mut counters = RoundCounters { blocks: 1, ..Default::default() };

        // Stage 1: block partition in global memory (shared code path).
        let diag_start = block_index * be;
        let diag_end = diag_start + be;
        let (ca_start, ca_end) =
            find_block_coranks(a, b, diag_start, diag_end, precomputed, &mut counters);
        validate_coranks((ca_start, ca_end), diag_start, diag_end, a.len(), b.len(), block_index)?;
        let (cb_start, cb_end) = (diag_start - ca_start, diag_end - ca_end);

        let a_part = &a[ca_start..ca_end];
        let b_part = &b[cb_start..cb_end];
        let la = a_part.len();

        // Stage 2: tile load (A at 0, B at la).
        counters.global.merge(&tile_traffic_words(a_offset + ca_start, la, w, K::WORD_BYTES));
        counters.global.merge(&tile_traffic_words(
            b_offset + cb_start,
            b_part.len(),
            w,
            K::WORD_BYTES,
        ));
        let mut tc = TileCounter::new(params, be);
        tc.count_fill(0, la, params.b, w);
        tc.count_fill(la, b_part.len(), params.b, w);
        counters.shared.transfer.merge(&tc.drain());

        // Stages 3 & 4: GPU Merge Path streamed from the shared walker;
        // the staged writes cover the whole tile, so assembling them in
        // `out` is exactly the simulator's final tile content.
        let mut out = vec![K::default(); be];
        let mut stage = StageCounter::new(w);
        walk_block_merge(
            a_part,
            b_part,
            params,
            &mut StageSink {
                stage: &mut stage,
                tc: &mut tc,
                out: &mut out,
                write_start: 0,
                cursor: 0,
            },
        );
        stage.flush(&mut tc);
        stage.charge(&mut counters);
        counters.global.merge(&tile_traffic_words(a_offset + diag_start, be, w, K::WORD_BYTES));
        Ok((out, counters))
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
        let be = params.block_elems();
        let w = params.w;
        let mut counters = RoundCounters { blocks: 1, ..Default::default() };

        // Stage 1: block partition in global memory (shared code path).
        let diag_start = block_index * be;
        let diag_end = diag_start + be;
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let pairs =
            find_block_coranks_multi(runs, diag_start, diag_end, precomputed, &mut counters);
        validate_coranks_multi(&pairs, diag_start, diag_end, &lens, block_index)?;

        // Stage 2: tile load, segment i right after segment i−1.
        let parts: Vec<&[K]> = runs.iter().zip(&pairs).map(|(r, &(s, e))| &r[s..e]).collect();
        let mut tc = TileCounter::new(params, be);
        let mut base = 0usize;
        for ((part, &(s, _)), &off) in parts.iter().zip(&pairs).zip(run_offsets) {
            counters.global.merge(&tile_traffic_words(off + s, part.len(), w, K::WORD_BYTES));
            tc.count_fill(base, part.len(), params.b, w);
            base += part.len();
        }
        counters.shared.transfer.merge(&tc.drain());

        // Stages 3 & 4: the k-way merge streamed from the shared walker.
        let mut out = vec![K::default(); be];
        let mut stage = StageCounter::new(w);
        walk_multiway_merge(
            &parts,
            params,
            &mut StageSink {
                stage: &mut stage,
                tc: &mut tc,
                out: &mut out,
                write_start: 0,
                cursor: 0,
            },
        );
        stage.flush(&mut tc);
        stage.charge(&mut counters);
        counters.global.merge(&tile_traffic_words(out_offset + diag_start, be, w, K::WORD_BYTES));
        Ok((out, counters))
    }
}

#[cfg(test)]
mod tests {
    use super::super::SimBackend;
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    #[test]
    fn base_block_matches_sim_exactly() {
        for p in [params(), params().with_padding()] {
            let input: Vec<u32> =
                (0..p.block_elems() as u32).map(|i| i.wrapping_mul(2_654_435_761) % 977).collect();
            let (sim_out, sim_c) = SimBackend.base_block(&input, 0, &p).unwrap();
            let (ana_out, ana_c) = AnalyticBackend.base_block(&input, 0, &p).unwrap();
            assert_eq!(ana_out, sim_out);
            assert_eq!(ana_c, sim_c, "padding={}", p.smem_padding);
        }
    }

    #[test]
    fn merge_unit_matches_sim_exactly() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).map(|x| x * 3 % 101).collect();
        let b: Vec<u32> = (0..be as u32).map(|x| x * 7 % 103).collect();
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        for j in 0..2 {
            let (sim_out, sim_c) = SimBackend.merge_unit(&a, &b, 0, be, j, &p, None).unwrap();
            let (ana_out, ana_c) = AnalyticBackend.merge_unit(&a, &b, 0, be, j, &p, None).unwrap();
            assert_eq!(ana_out, sim_out, "block {j}");
            assert_eq!(ana_c, sim_c, "block {j}");
        }
    }

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
            for j in 0..3 {
                let (sim_out, sim_c) =
                    SimBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
                let (ana_out, ana_c) =
                    AnalyticBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
                assert_eq!(ana_out, sim_out, "block {j} padding={}", p.smem_padding);
                assert_eq!(ana_c, sim_c, "block {j} padding={}", p.smem_padding);
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
