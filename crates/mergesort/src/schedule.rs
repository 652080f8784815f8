//! Per-thread address schedules of the merge kernels — the single source
//! of truth shared by every execution backend.
//!
//! A merge stage's shared-memory behaviour is a deterministic function of
//! the tile data: which addresses each thread probes during its mutual
//! binary search (the β₁ phase), which it reads during its sequential
//! merge (β₂), where it stages its output and which values it stages.
//! Both the cycle-accurate lockstep simulator
//! ([`crate::backend::SimBackend`]) and the fast analytic counter
//! ([`crate::backend::AnalyticBackend`]) consume the schedules built
//! here; they differ only in *how their tile accounts* the identical
//! schedule — the simulator's replays it against a
//! [`wcms_gpu_sim::SharedMemory`], the analytic one feeds it to a
//! [`wcms_dmm::StepAccumulator`]. That is what makes the analytic
//! counters exactly (integer-for-integer) equal to the simulated ones:
//! the two backends cannot drift apart in schedule construction, because
//! there is only one construction.
//!
//! The block partitioning in global memory lives here too: each merge
//! block's co-rank search ([`find_block_coranks`]) and its validation,
//! and the Modern GPU partition kernels that precompute every block's
//! co-ranks in one pass (`partition_pass`, `partition_pass_multi`).

use wcms_gpu_sim::scalar_traffic;
use wcms_mergepath::diagonal::{merge_path, merge_path_trace, merge_path_visit};
use wcms_mergepath::multiway::{multiway_emit, multiway_select};
use wcms_mergepath::serial::{merge_emit, MergeSource};

use crate::instrument::RoundCounters;
use crate::params::SortParams;

/// Streaming consumer of the schedule walkers. Per thread, in thread
/// order, a walker issues exactly: one [`ScheduleSink::begin_thread`],
/// one [`ScheduleSink::probe`] per mutual-binary-search iteration (in
/// search order), one [`ScheduleSink::merge_read`] per merged element
/// (in emit order — also the staging order, so the `k`-th call stages
/// its value at `write_start + k`), then one [`ScheduleSink::end_thread`].
///
/// Both backends consume the walkers through this trait — the
/// materialised [`MergeSchedule`] for the simulator, a warp-streaming
/// accumulator for the analytic engine — so there is exactly one
/// schedule construction for counters to agree on.
pub trait ScheduleSink<K> {
    /// Start of one thread's schedule; its contiguous staging window
    /// begins at tile address `write_start`.
    fn begin_thread(&mut self, write_start: usize);
    /// One mutual-binary-search iteration: the A- and B-probe addresses,
    /// in the interleaved order the kernel touches them.
    fn probe(&mut self, a_addr: usize, b_addr: usize);
    /// One single-address probe of a k-way multisequence selection (the
    /// multiway algorithm's partition phase touches one run per
    /// comparison, where the pairwise mutual search touches two).
    fn probe_at(&mut self, addr: usize);
    /// One sequential-merge read: the tile address and the value read.
    fn merge_read(&mut self, addr: usize, val: K);
    /// End of the thread's schedule.
    fn end_thread(&mut self);
}

/// Build one thread's schedule — thread merging `count` elements at
/// output diagonal `diag` of the sub-lists at tile offsets `a_base` /
/// `b_base`, staging to `out_base + diag` — and stream it into `sink`.
/// This is the single construction every backend shares.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's merge-window state
fn thread_schedule<K: Copy + Ord>(
    a: &[K],
    b: &[K],
    a_base: usize,
    b_base: usize,
    out_base: usize,
    diag: usize,
    count: usize,
    sink: &mut impl ScheduleSink<K>,
) {
    sink.begin_thread(out_base + diag);
    let corank = merge_path_visit(
        diag,
        a.len(),
        b.len(),
        |i| a[i],
        |j| b[j],
        |ai, bi| sink.probe(a_base + ai, b_base + bi),
    );
    let (a0, b0) = (corank, diag - corank);
    merge_emit(
        a0,
        b0,
        a.len(),
        b.len(),
        count,
        |i| a[i],
        |j| b[j],
        |_, src, idx| match src {
            MergeSource::A => sink.merge_read(a_base + idx, a[idx]),
            MergeSource::B => sink.merge_read(b_base + idx, b[idx]),
        },
    );
    sink.end_thread();
}

/// Stream the schedule of in-block merge round `round` of the base case
/// thread by thread, in thread order, into `sink` — no per-thread
/// allocation. `2^round` threads cooperate per pair of
/// `2^{round−1}·E`-element runs, all addresses relative to the block
/// tile `tile`.
pub(crate) fn walk_in_block_round<K: Copy + Ord>(
    tile: &[K],
    round: usize,
    params: &SortParams,
    sink: &mut impl ScheduleSink<K>,
) {
    let (e, b) = (params.e, params.b);
    let threads_per_pair = 1usize << round;
    let half = (threads_per_pair / 2) * e;
    for t in 0..b {
        let pair = t / threads_per_pair;
        let within = t % threads_per_pair;
        let pair_base = pair * threads_per_pair * e;
        let a = &tile[pair_base..pair_base + half];
        let bl = &tile[pair_base + half..pair_base + 2 * half];
        thread_schedule(a, bl, pair_base, pair_base + half, pair_base, within * e, e, sink);
    }
}

/// Stream the schedule of one global-merge block's tile stage thread by
/// thread into `sink`: `b` threads merge the block's quantile from its
/// loaded sub-ranges (`a_part` at tile offset 0, `b_part` at
/// `a_part.len()`).
pub fn walk_block_merge<K: Copy + Ord>(
    a_part: &[K],
    b_part: &[K],
    params: &SortParams,
    sink: &mut impl ScheduleSink<K>,
) {
    let la = a_part.len();
    for t in 0..params.b {
        thread_schedule(a_part, b_part, 0, la, 0, t * params.e, params.e, sink);
    }
}

/// Build one thread's k-way schedule — the thread merging `count`
/// elements at output diagonal `diag` of the `g` tile segments `segs`
/// (segment `i` loaded at tile offset `seg_bases[i]`), staging to
/// `out_base + diag` — and stream it into `sink`. The k-way analogue of
/// [`thread_schedule`]: every selection probe is a single-address
/// [`ScheduleSink::probe_at`], every merged element one
/// [`ScheduleSink::merge_read`].
fn thread_schedule_multi<K: Copy + Ord>(
    segs: &[&[K]],
    seg_bases: &[usize],
    out_base: usize,
    diag: usize,
    count: usize,
    sink: &mut impl ScheduleSink<K>,
) {
    sink.begin_thread(out_base + diag);
    let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
    let cut = multiway_select(&lens, diag, |i, j| {
        sink.probe_at(seg_bases[i] + j);
        segs[i][j]
    });
    multiway_emit(
        &lens,
        &cut,
        count,
        |i, j| segs[i][j],
        |_, run, idx| sink.merge_read(seg_bases[run] + idx, segs[run][idx]),
    );
    sink.end_thread();
}

/// Stream the schedule of one multiway global-merge block's tile stage
/// thread by thread into `sink`: `b` threads merge the block's `bE`-wide
/// quantile from its `g` loaded segments (`parts[i]` at the tile offset
/// where the previous segments end). The k-way analogue of
/// [`walk_block_merge`], and the single construction both counting
/// backends share for the multiway algorithm.
pub(crate) fn walk_multiway_merge<K: Copy + Ord>(
    parts: &[&[K]],
    params: &SortParams,
    sink: &mut impl ScheduleSink<K>,
) {
    let mut bases = Vec::with_capacity(parts.len());
    let mut off = 0usize;
    for p in parts {
        bases.push(off);
        off += p.len();
    }
    for t in 0..params.b {
        thread_schedule_multi(parts, &bases, 0, t * params.e, params.e, sink);
    }
}

/// Which merge stage a tile runs: the schedule walker to stream, with
/// the sources it reads. Only an in-block round reads the tile it
/// stages into; a global stage reads the global lists the tile was
/// loaded from.
#[derive(Debug)]
pub(crate) enum Stage<'a, K> {
    /// In-block merge round `round` of the base case, over the tile's
    /// own contents ([`walk_in_block_round`]).
    InBlock(usize),
    /// A global pairwise merge of the block's sub-ranges, `A` loaded at
    /// tile offset 0 and `B` after it ([`walk_block_merge`]).
    Pair(&'a [K], &'a [K]),
    /// A global k-way merge of the block's segments, loaded end to end
    /// ([`walk_multiway_merge`]).
    Multi(&'a [&'a [K]]),
}

impl<K: Copy + Ord> Stage<'_, K> {
    /// Stream this stage's schedule into `sink`. `tile` is the tile's
    /// current contents, which only an in-block round reads.
    pub(crate) fn walk(&self, tile: &[K], params: &SortParams, sink: &mut impl ScheduleSink<K>) {
        match *self {
            Stage::InBlock(round) => walk_in_block_round(tile, round, params, sink),
            Stage::Pair(a, b) => walk_block_merge(a, b, params, sink),
            Stage::Multi(parts) => walk_multiway_merge(parts, params, sink),
        }
    }
}

/// Per-thread sequences stored end to end in one flat buffer: thread
/// `t`'s items are `items[ends[t − 1]..ends[t]]` (`items[..ends[0]]` for
/// thread 0).
#[derive(Debug, Clone, Copy)]
pub struct ThreadSlices<'a, T> {
    items: &'a [T],
    ends: &'a [usize],
}

impl<'a, T> ThreadSlices<'a, T> {
    /// View `items` split at the per-thread `ends` (non-decreasing, the
    /// last equal to `items.len()`).
    #[must_use]
    pub(crate) fn new(items: &'a [T], ends: &'a [usize]) -> Self {
        debug_assert_eq!(ends.last().copied().unwrap_or(0), items.len());
        Self { items, ends }
    }

    /// Every thread's items, end to end.
    #[must_use]
    pub(crate) fn items(&self) -> &'a [T] {
        self.items
    }

    /// Number of threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.ends.len()
    }

    /// Thread `t`'s sequence.
    #[must_use]
    pub fn thread(&self, t: usize) -> &'a [T] {
        &self.items[self.span(t)]
    }

    /// Where thread `t`'s sequence lies in the flat buffer.
    #[must_use]
    pub(crate) fn span(&self, t: usize) -> std::ops::Range<usize> {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        start..self.ends[t]
    }

    /// Every thread's sequence, in thread order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [T]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let seq = &self.items[start..end];
            start = end;
            seq
        })
    }
}

/// The complete shared-memory schedule of one merge stage of one thread
/// block, in flat per-stage buffers (one set per stage, not per thread).
///
/// Thread `t` probes `probe_seqs().thread(t)` in its partition phase,
/// reads `merge_seqs().thread(t)` in its merge phase, and stages the
/// values it read — its merged window, `merged_vals().thread(t)`, in emit
/// order — to the contiguous addresses from `write_starts()[t]`.
#[derive(Debug, Clone)]
pub struct MergeSchedule<K> {
    /// β₁: interleaved A/B probe addresses of the mutual binary search.
    probe_addrs: Vec<usize>,
    probe_ends: Vec<usize>,
    /// β₂: the sequential merge's read addresses, in increasing key order.
    merge_addrs: Vec<usize>,
    /// The value each merge read returns: the thread's merged window.
    merged_vals: Vec<K>,
    merge_ends: Vec<usize>,
    /// First staging address of each thread.
    write_starts: Vec<usize>,
}

/// Materialising sink: appends the stream to a [`MergeSchedule`]'s flat
/// buffers.
struct Materializer<K>(MergeSchedule<K>);

impl<K: Copy> ScheduleSink<K> for Materializer<K> {
    fn begin_thread(&mut self, write_start: usize) {
        self.0.write_starts.push(write_start);
    }

    fn probe(&mut self, a_addr: usize, b_addr: usize) {
        self.0.probe_addrs.extend([a_addr, b_addr]);
    }

    fn probe_at(&mut self, addr: usize) {
        self.0.probe_addrs.push(addr);
    }

    fn merge_read(&mut self, addr: usize, val: K) {
        self.0.merge_addrs.push(addr);
        self.0.merged_vals.push(val);
    }

    fn end_thread(&mut self) {
        self.0.probe_ends.push(self.0.probe_addrs.len());
        self.0.merge_ends.push(self.0.merge_addrs.len());
    }
}

impl<K: Copy + Ord> MergeSchedule<K> {
    /// Materialise `stage`'s walk over the tile contents `tile`: `b`
    /// threads of `E` merge reads each. The walker is the construction.
    #[must_use]
    pub(crate) fn of(stage: &Stage<'_, K>, tile: &[K], params: &SortParams) -> Self {
        let (threads, reads) = (params.b, params.block_elems());
        let mut m = Materializer(Self {
            probe_addrs: Vec::new(),
            probe_ends: Vec::with_capacity(threads),
            merge_addrs: Vec::with_capacity(reads),
            merged_vals: Vec::with_capacity(reads),
            merge_ends: Vec::with_capacity(threads),
            write_starts: Vec::with_capacity(threads),
        });
        stage.walk(tile, params, &mut m);
        m.0
    }

    /// The schedule of one *multiway* global-merge block's tile stage:
    /// `b` threads merge the block's quantile from its `g` loaded
    /// segments. Materialised from `walk_multiway_merge`.
    #[must_use]
    pub fn multiway_merge(parts: &[&[K]], params: &SortParams) -> Self {
        Self::of(&Stage::Multi(parts), &[], params)
    }
}

impl<K> MergeSchedule<K> {
    /// β₁: each thread's probe addresses.
    #[must_use]
    pub(crate) fn probe_seqs(&self) -> ThreadSlices<'_, usize> {
        ThreadSlices::new(&self.probe_addrs, &self.probe_ends)
    }

    /// β₂: each thread's merge-read addresses.
    #[must_use]
    pub fn merge_seqs(&self) -> ThreadSlices<'_, usize> {
        ThreadSlices::new(&self.merge_addrs, &self.merge_ends)
    }

    /// Each thread's staged values (its merged window, in emit order).
    #[must_use]
    pub(crate) fn merged_vals(&self) -> ThreadSlices<'_, K> {
        ThreadSlices::new(&self.merged_vals, &self.merge_ends)
    }

    /// Each thread's first staging address; thread `t` writes its `k`-th
    /// merged value to `write_starts()[t] + k`.
    #[must_use]
    pub(crate) fn write_starts(&self) -> &[usize] {
        &self.write_starts
    }
}

/// Find one merge block's `(ca_start, ca_end)` co-ranks for the output
/// window `[diag_start, diag_end)`, charging the stage's global traffic
/// into `counters`: a precomputed pair (the Modern GPU partition array)
/// costs two scalar fetches; the fused Thrust search costs two scalar
/// probe reads per binary-search iteration (the end co-rank arrives from
/// the neighbouring block's search and is not charged twice).
pub fn find_block_coranks<K: Copy + Ord>(
    a: &[K],
    b: &[K],
    diag_start: usize,
    diag_end: usize,
    precomputed: Option<(usize, usize)>,
    counters: &mut RoundCounters,
) -> (usize, usize) {
    match precomputed {
        Some((start, end)) => {
            // Fetch the co-rank pair written by the partition kernel.
            counters.global.merge(&scalar_traffic());
            counters.global.merge(&scalar_traffic());
            (start, end)
        }
        None => {
            let (start, probes) =
                merge_path_trace(diag_start, a.len(), b.len(), |i| a[i], |j| b[j]);
            for _ in probes {
                // One A-probe and one B-probe per iteration, each a
                // scalar read.
                counters.global.merge(&scalar_traffic());
                counters.global.merge(&scalar_traffic());
            }
            let end = merge_path(diag_end, a.len(), b.len(), |i| a[i], |j| b[j]);
            (start, end)
        }
    }
}

/// Find one *multiway* merge block's per-run `(start, end)` co-ranks for
/// the output window `[diag_start, diag_end)`, charging the stage's
/// global traffic into `counters`: a precomputed vector (the
/// Modern-GPU-style partition array) costs `2g` scalar fetches; the
/// fused search costs one scalar read per selection probe (single-run
/// probes, unlike the pairwise mutual search's A/B pair — the end
/// co-ranks arrive from the neighbouring block's search and are not
/// charged twice).
pub(crate) fn find_block_coranks_multi<K: Copy + Ord>(
    runs: &[&[K]],
    diag_start: usize,
    diag_end: usize,
    precomputed: Option<&[(usize, usize)]>,
    counters: &mut RoundCounters,
) -> Vec<(usize, usize)> {
    let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
    match precomputed {
        Some(pairs) => {
            for _ in 0..2 * pairs.len() {
                counters.global.merge(&scalar_traffic());
            }
            pairs.to_vec()
        }
        None => {
            let starts = multiway_select(&lens, diag_start, |i, j| {
                counters.global.merge(&scalar_traffic());
                runs[i][j]
            });
            let ends = multiway_select(&lens, diag_end, |i, j| runs[i][j]);
            starts.into_iter().zip(ends).collect()
        }
    }
}

/// The Modern GPU partition kernel: one mutual binary search per merge
/// block, the co-rank written to a partition array in global memory.
/// Returns each block's `(ca_start, ca_end)` and the kernel's counters
/// (probe reads + one array write per diagonal, plus the launch cost of
/// `⌈blocks/b⌉` partition thread blocks).
pub(crate) fn partition_pass<K: Copy + Ord>(
    a: &[K],
    b: &[K],
    num_blocks: usize,
    params: &SortParams,
) -> (Vec<(usize, usize)>, RoundCounters) {
    let be = params.block_elems();
    let mut counters = RoundCounters {
        // The searches are packed one-per-thread into partition blocks.
        blocks: (num_blocks + 1).div_ceil(params.b),
        ..Default::default()
    };
    // Diagonals 0, bE, 2bE, …, num_blocks·bE (the last one closes the
    // final block's window).
    let mut coranks = Vec::with_capacity(num_blocks + 1);
    for j in 0..=num_blocks {
        let (c, probes) = merge_path_trace(j * be, a.len(), b.len(), |i| a[i], |x| b[x]);
        for _ in probes {
            counters.global.merge(&scalar_traffic());
            counters.global.merge(&scalar_traffic());
        }
        // Store the co-rank to the partition array.
        counters.global.merge(&scalar_traffic());
        coranks.push(c);
    }
    let pairs = coranks.windows(2).map(|w| (w[0], w[1])).collect();
    (pairs, counters)
}

/// The Modern-GPU-style partition kernel for a *multiway* group: one
/// multisequence selection per merge-block diagonal, the `g` co-ranks of
/// each written to a partition array in global memory. Returns each
/// block's per-run `(start, end)` pairs and the kernel's counters (one
/// scalar probe read per selection probe plus `g` array writes per
/// diagonal, and the launch cost of `⌈(blocks+1)/b⌉` partition thread
/// blocks).
pub(crate) fn partition_pass_multi<K: Copy + Ord>(
    runs: &[&[K]],
    num_blocks: usize,
    params: &SortParams,
) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
    let be = params.block_elems();
    let g = runs.len();
    let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
    let mut counters = RoundCounters {
        // The selections are packed one-per-thread into partition blocks.
        blocks: (num_blocks + 1).div_ceil(params.b),
        ..Default::default()
    };
    let mut cuts = Vec::with_capacity(num_blocks + 1);
    for j in 0..=num_blocks {
        let cut = multiway_select(&lens, j * be, |i, x| {
            counters.global.merge(&scalar_traffic());
            runs[i][x]
        });
        // Store the g co-ranks to the partition array.
        for _ in 0..g {
            counters.global.merge(&scalar_traffic());
        }
        cuts.push(cut);
    }
    let pairs =
        cuts.windows(2).map(|w| w[0].iter().zip(&w[1]).map(|(&s, &e)| (s, e)).collect()).collect();
    (pairs, counters)
}

/// Structural validation of a multiway co-rank vector against its output
/// window — the k-way analogue of [`validate_coranks`], with the same
/// typed-error contract. The reported co-rank pair is the offending
/// per-run pair, or the `(Σ start, Σ end)` sums when the vector's shape
/// or totals are wrong.
///
/// # Errors
///
/// Returns [`wcms_error::WcmsError::PartitionValidation`] naming the
/// block and the offending pair.
pub(crate) fn validate_coranks_multi(
    pairs: &[(usize, usize)],
    diag_start: usize,
    diag_end: usize,
    lens: &[usize],
    block_index: usize,
) -> Result<(), wcms_error::WcmsError> {
    let bad = |corank| {
        Err(wcms_error::WcmsError::PartitionValidation { round: 0, block: block_index, corank })
    };
    if pairs.len() != lens.len() {
        return bad((pairs.len(), lens.len()));
    }
    let (mut sum_start, mut sum_end) = (0usize, 0usize);
    for (&(s, e), &len) in pairs.iter().zip(lens) {
        if s > e || e > len {
            return bad((s, e));
        }
        sum_start += s;
        sum_end += e;
    }
    if sum_start != diag_start || sum_end != diag_end {
        return bad((sum_start, sum_end));
    }
    Ok(())
}

/// Structural validation of a co-rank pair against its output window. A
/// corrupted pair (fault injection, flaky partition kernel) must surface
/// as this typed error, never as a slice panic downstream.
///
/// # Errors
///
/// Returns [`wcms_error::WcmsError::PartitionValidation`] naming the
/// block and the offending pair.
pub(crate) fn validate_coranks(
    (ca_start, ca_end): (usize, usize),
    diag_start: usize,
    diag_end: usize,
    a_len: usize,
    b_len: usize,
    block_index: usize,
) -> Result<(), wcms_error::WcmsError> {
    if ca_start > ca_end
        || ca_end > a_len
        || ca_start > diag_start
        || ca_end > diag_end
        || diag_start - ca_start > b_len
        || diag_end - ca_end > b_len
        || diag_start - ca_start > diag_end - ca_end
    {
        return Err(wcms_error::WcmsError::PartitionValidation {
            round: 0,
            block: block_index,
            corank: (ca_start, ca_end),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    /// Each thread's staging addresses: its window from its start, one
    /// address per staged value.
    fn write_addrs<K>(s: &MergeSchedule<K>) -> Vec<std::ops::Range<usize>> {
        s.write_starts().iter().zip(s.merged_vals().iter()).map(|(&w, v)| w..w + v.len()).collect()
    }

    #[test]
    fn block_merge_schedule_covers_the_tile() {
        let p = params();
        let a: Vec<u32> = (0..24).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..24).map(|x| x * 2 + 1).collect();
        let s = MergeSchedule::of(&Stage::Pair(&a, &b), &[], &p);
        assert_eq!(s.write_starts().len(), p.b);
        let mut covered: Vec<usize> = write_addrs(&s).into_iter().flatten().collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..p.block_elems()).collect::<Vec<_>>());
        // Staged values assemble to the merged pair.
        let mut out = vec![0u32; p.block_elems()];
        for (addrs, vals) in write_addrs(&s).into_iter().zip(s.merged_vals().iter()) {
            for (addr, &v) in addrs.zip(vals) {
                out[addr] = v;
            }
        }
        assert_eq!(out, wcms_mergepath::cpu::merge_ref(&a, &b));
    }

    #[test]
    fn in_block_round_merges_adjacent_runs() {
        let p = params();
        // Round 1: runs of length E = 3; make each run sorted.
        let mut tile: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        for run in tile.chunks_mut(p.e) {
            run.sort_unstable();
        }
        let s = MergeSchedule::of(&Stage::InBlock(1), &tile, &p);
        let mut out = vec![0u32; p.block_elems()];
        for (addrs, vals) in write_addrs(&s).into_iter().zip(s.merged_vals().iter()) {
            for (addr, &v) in addrs.zip(vals) {
                out[addr] = v;
            }
        }
        for pair in out.chunks(2 * p.e) {
            assert!(pair.windows(2).all(|w| w[0] <= w[1]), "{pair:?}");
        }
    }

    #[test]
    fn corank_validation_rejects_corruption() {
        // Window [0, 4) of two 4-element lists: ca_end beyond A is bad.
        assert!(validate_coranks((0, 9), 0, 4, 4, 4, 0).is_err());
        assert!(validate_coranks((3, 1), 0, 4, 4, 4, 0).is_err());
        assert!(validate_coranks((0, 2), 0, 4, 4, 4, 0).is_ok());
    }

    #[test]
    fn multiway_merge_schedule_covers_the_tile() {
        let p = params();
        // Three segments summing to the tile: 18 + 18 + 12 = 48 = bE.
        let s0: Vec<u32> = (0..18).map(|x| x * 3).collect();
        let s1: Vec<u32> = (0..18).map(|x| x * 3 + 1).collect();
        let s2: Vec<u32> = (0..12).map(|x| x * 3 + 2).collect();
        let parts: Vec<&[u32]> = vec![&s0, &s1, &s2];
        let s = MergeSchedule::multiway_merge(&parts, &p);
        assert_eq!(s.write_starts().len(), p.b);
        let mut covered: Vec<usize> = write_addrs(&s).into_iter().flatten().collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..p.block_elems()).collect::<Vec<_>>());
        // Staged values assemble to the merged segments.
        let mut out = vec![0u32; p.block_elems()];
        for (addrs, vals) in write_addrs(&s).into_iter().zip(s.merged_vals().iter()) {
            for (addr, &v) in addrs.zip(vals) {
                out[addr] = v;
            }
        }
        let mut want: Vec<u32> = [s0, s1, s2].concat();
        want.sort_unstable();
        assert_eq!(out, want);
        // Selection probes are single addresses within the tile.
        assert!(s.probe_seqs().iter().flatten().all(|&a| a < p.block_elems()));
        // Merge reads are one per staged element, like the pairwise path.
        for (m, v) in s.merge_seqs().iter().zip(s.merged_vals().iter()) {
            assert_eq!(m.len(), v.len());
        }
    }

    #[test]
    fn two_way_multiway_schedule_matches_block_merge_reads() {
        // At g = 2 the k-way walker must merge identically (same merge
        // reads, same staged values) — only the probe phase differs
        // (single-address selection vs the interleaved mutual search).
        let p = params();
        let a: Vec<u32> = (0..24).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..24).map(|x| x * 2 + 1).collect();
        let pair = MergeSchedule::of(&Stage::Pair(&a, &b), &[], &p);
        let parts: Vec<&[u32]> = vec![&a, &b];
        let multi = MergeSchedule::multiway_merge(&parts, &p);
        assert!(pair.merge_seqs().iter().eq(multi.merge_seqs().iter()));
        assert!(pair.merged_vals().iter().eq(multi.merged_vals().iter()));
        assert_eq!(write_addrs(&pair), write_addrs(&multi));
    }

    #[test]
    fn multiway_corank_search_charges_single_probe_traffic() {
        let s0: Vec<u32> = (0..32).map(|x| x * 3).collect();
        let s1: Vec<u32> = (0..32).map(|x| x * 3 + 1).collect();
        let s2: Vec<u32> = (0..32).map(|x| x * 3 + 2).collect();
        let runs: Vec<&[u32]> = vec![&s0, &s1, &s2];
        let mut counters = RoundCounters::default();
        let pairs = find_block_coranks_multi(&runs, 48, 96, None, &mut counters);
        assert_eq!(pairs.iter().map(|&(s, _)| s).sum::<usize>(), 48);
        assert_eq!(pairs.iter().map(|&(_, e)| e).sum::<usize>(), 96);
        assert!(counters.global.requests > 0, "fused search must charge probes");
        let mut pre = RoundCounters::default();
        let got = find_block_coranks_multi(&runs, 48, 96, Some(&pairs), &mut pre);
        assert_eq!(got, pairs);
        assert_eq!(pre.global.requests, 6, "precomputed vector costs 2g fetches");
    }

    #[test]
    fn multiway_partition_pass_matches_fused_coranks() {
        use crate::backend::{ExecBackend, SimBackend};
        let p = params();
        let be = p.block_elems();
        let runs: Vec<Vec<u32>> =
            (0..3u32).map(|r| (0..be as u32).map(|x| 3 * x + r).collect()).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let num_blocks = 3;
        let (pairs, c) = partition_pass_multi(&refs, num_blocks, &p);
        assert_eq!(pairs.len(), num_blocks);
        assert!(c.global.requests > 0);
        assert_eq!(c.blocks, 1);
        // Precomputed co-ranks reproduce the fused block's merge exactly.
        let offsets: Vec<usize> = (0..3).map(|i| i * be).collect();
        for (j, pair) in pairs.iter().enumerate() {
            let (fused, _) = SimBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
            let (pre, _) =
                SimBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, Some(pair)).unwrap();
            assert_eq!(fused, pre, "block {j}");
        }
    }

    #[test]
    fn multiway_corank_validation_rejects_corruption() {
        // Three 4-element runs, window [0, 6).
        let lens = [4usize, 4, 4];
        assert!(validate_coranks_multi(&[(0, 2), (0, 2), (0, 2)], 0, 6, &lens, 0).is_ok());
        // Per-run overrun.
        assert!(validate_coranks_multi(&[(0, 5), (0, 1), (0, 0)], 0, 6, &lens, 0).is_err());
        // Inverted pair.
        assert!(validate_coranks_multi(&[(2, 1), (0, 3), (0, 2)], 0, 6, &lens, 0).is_err());
        // Sums off the diagonals.
        assert!(validate_coranks_multi(&[(0, 2), (0, 2), (0, 1)], 0, 6, &lens, 0).is_err());
        // Wrong arity.
        assert!(validate_coranks_multi(&[(0, 3), (0, 3)], 0, 6, &lens, 0).is_err());
    }

    #[test]
    fn fused_corank_search_charges_probe_traffic() {
        let a: Vec<u32> = (0..48).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..48).map(|x| x * 2 + 1).collect();
        let mut counters = RoundCounters::default();
        let (s, e) = find_block_coranks(&a, &b, 48, 96, None, &mut counters);
        assert!(s <= e && e <= a.len());
        assert!(counters.global.requests > 0, "fused search must charge probes");
        let mut pre = RoundCounters::default();
        let _ = find_block_coranks(&a, &b, 48, 96, Some((s, e)), &mut pre);
        assert_eq!(pre.global.requests, 2, "precomputed pair costs two fetches");
    }
}
