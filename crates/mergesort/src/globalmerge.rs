//! A global pairwise merge round (§II-A): `2ⁱ` thread blocks cooperate to
//! merge a pair of `2^{i−1}·bE`-element sorted lists.
//!
//! Each block:
//! 1. finds the start of its `bE`-element quantile in the two lists via a
//!    *mutual binary search in global memory* (charged as scalar global
//!    reads — the block-partitioning stage);
//! 2. loads its two sub-ranges into the shared tile (`A` at offset 0, `B`
//!    right after — the layout the worst-case construction aligns to);
//! 3. runs one round of GPU Merge Path in shared memory: per-thread
//!    mutual binary search (`β₁` phase) and an `E`-element sequential
//!    merge (`β₂` phase — the access pattern the paper attacks);
//! 4. stages the merged tile and stores it back coalesced.

use wcms_dmm::BankModel;
use wcms_error::WcmsError;
use wcms_gpu_sim::{scalar_traffic, tile_traffic_words, GpuKey, SharedMemory};
use wcms_mergepath::diagonal::merge_path_trace;
use wcms_mergepath::multiway::multiway_select;

use crate::instrument::RoundCounters;
use crate::params::SortParams;
use crate::schedule::{
    find_block_coranks, find_block_coranks_multi, validate_coranks, validate_coranks_multi,
    MergeSchedule,
};
use crate::warp_exec::{coalesced_fill, lockstep_probe, lockstep_writes};

/// Merge the quantile of one thread block.
///
/// `a` and `b` are the pair's sorted lists; `a_offset`/`b_offset` their
/// global word offsets (for sector accounting); `block_index` selects the
/// `bE`-element output window `[block_index·bE, (block_index+1)·bE)` of
/// the merged pair.
///
/// `precomputed` carries the block's `(ca_start, ca_end)` co-ranks when a
/// separate partition kernel already found them (the Modern GPU
/// structure, see [`partition_pass`]); `None` makes the block search its
/// own start diagonal in global memory (the fused Thrust structure).
///
/// Returns the merged `bE` elements and the block's counters.
///
/// # Errors
///
/// Propagates the tile's typed errors: a corrupted co-rank (e.g. from a
/// faulty partition kernel) surfaces as [`WcmsError::SmemOutOfBounds`]
/// or [`WcmsError::CrewViolation`] rather than silently corrupting the
/// output window.
pub(crate) fn merge_block<K: GpuKey>(
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

    // --- Stage 1: block partition in global memory.
    let diag_start = block_index * be;
    let diag_end = diag_start + be;
    let (ca_start, ca_end) =
        find_block_coranks(a, b, diag_start, diag_end, precomputed, &mut counters);
    validate_coranks((ca_start, ca_end), diag_start, diag_end, a.len(), b.len(), block_index)?;
    let (cb_start, cb_end) = (diag_start - ca_start, diag_end - ca_end);

    let a_part = &a[ca_start..ca_end];
    let b_part = &b[cb_start..cb_end];
    let la = a_part.len();

    // --- Stage 2: tile load (A at 0, B at la).
    counters.global.merge(&tile_traffic_words(a_offset + ca_start, la, w, K::WORD_BYTES));
    counters.global.merge(&tile_traffic_words(b_offset + cb_start, b_part.len(), w, K::WORD_BYTES));
    let mut smem = if params.smem_padding {
        SharedMemory::<K>::new_padded(BankModel::new(w), be)
    } else {
        SharedMemory::<K>::new(BankModel::new(w), be)
    };
    coalesced_fill(&mut smem, 0, a_part, params.b, w)?;
    coalesced_fill(&mut smem, la, b_part, params.b, w)?;
    counters.shared.transfer.merge(&smem.drain_totals());

    // --- Stage 3: GPU Merge Path within the tile, replaying the shared
    // schedule for exact accounting.
    let sched = MergeSchedule::block_merge(a_part, b_part, params);

    lockstep_probe(&mut smem, sched.probe_seqs(), w)?;
    counters.shared.partition.merge(&smem.drain_totals());

    lockstep_probe(&mut smem, sched.merge_seqs(), w)?;
    counters.shared.merge.merge(&smem.drain_totals());

    // --- Stage 4: stage merged results and store coalesced.
    lockstep_writes(&mut smem, sched.write_starts(), sched.merged_vals(), w)?;
    counters.shared.transfer.merge(&smem.drain_totals());
    counters.global.merge(&tile_traffic_words(a_offset + diag_start, be, w, K::WORD_BYTES));

    Ok((smem.as_slice().to_vec(), counters))
}

/// Merge the quantile of one thread block of a *multiway* global round —
/// the k-way analogue of [`merge_block`], same four stages.
///
/// `runs` are the group's `g` sorted runs and `run_offsets` their global
/// word offsets; `out_offset` is the group's output base (the merged
/// group overwrites the group's own span); `block_index` selects the
/// `bE`-element output window of the merged group. `precomputed` carries
/// the block's per-run `(start, end)` co-ranks from a separate partition
/// kernel ([`partition_pass_multi`], the Modern-GPU-style structure);
/// `None` makes the block run its own multisequence selection in global
/// memory (the fused structure).
///
/// # Errors
///
/// Same contract as [`merge_block`]: a corrupted co-rank vector surfaces
/// as a typed error, never as silent corruption.
pub(crate) fn merge_block_multi<K: GpuKey>(
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

    // --- Stage 1: block partition in global memory.
    let diag_start = block_index * be;
    let diag_end = diag_start + be;
    let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
    let pairs = find_block_coranks_multi(runs, diag_start, diag_end, precomputed, &mut counters);
    validate_coranks_multi(&pairs, diag_start, diag_end, &lens, block_index)?;

    // --- Stage 2: tile load, segment i right after segment i−1.
    let parts: Vec<&[K]> = runs.iter().zip(&pairs).map(|(r, &(s, e))| &r[s..e]).collect();
    let mut smem = if params.smem_padding {
        SharedMemory::<K>::new_padded(BankModel::new(w), be)
    } else {
        SharedMemory::<K>::new(BankModel::new(w), be)
    };
    let mut base = 0usize;
    for ((part, &(s, _)), &off) in parts.iter().zip(&pairs).zip(run_offsets) {
        counters.global.merge(&tile_traffic_words(off + s, part.len(), w, K::WORD_BYTES));
        coalesced_fill(&mut smem, base, part, params.b, w)?;
        base += part.len();
    }
    counters.shared.transfer.merge(&smem.drain_totals());

    // --- Stage 3: k-way merge within the tile, replaying the shared
    // schedule for exact accounting.
    let sched = MergeSchedule::multiway_merge(&parts, params);

    lockstep_probe(&mut smem, sched.probe_seqs(), w)?;
    counters.shared.partition.merge(&smem.drain_totals());

    lockstep_probe(&mut smem, sched.merge_seqs(), w)?;
    counters.shared.merge.merge(&smem.drain_totals());

    // --- Stage 4: stage merged results and store coalesced.
    lockstep_writes(&mut smem, sched.write_starts(), sched.merged_vals(), w)?;
    counters.shared.transfer.merge(&smem.drain_totals());
    counters.global.merge(&tile_traffic_words(out_offset + diag_start, be, w, K::WORD_BYTES));

    Ok((smem.as_slice().to_vec(), counters))
}

/// The Modern-GPU-style partition kernel for a *multiway* group: one
/// multisequence selection per merge-block diagonal, the `g` co-ranks of
/// each written to a partition array in global memory. Returns each
/// block's per-run `(start, end)` pairs and the kernel's counters (one
/// scalar probe read per selection probe plus `g` array writes per
/// diagonal, and the launch cost of `⌈(blocks+1)/b⌉` partition thread
/// blocks).
pub(crate) fn partition_pass_multi<K: GpuKey>(
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

/// The Modern GPU partition kernel: one mutual binary search per merge
/// block, the co-rank written to a partition array in global memory.
/// Returns each block's `(ca_start, ca_end)` and the kernel's counters
/// (probe reads + one array write per diagonal, plus the launch cost of
/// `⌈blocks/b⌉` partition thread blocks).
pub(crate) fn partition_pass<K: GpuKey>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_mergepath::cpu::merge_ref;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    #[test]
    fn merges_one_block_pair() {
        let p = params();
        // Two sorted lists of bE/2 = 24 elements each → one block.
        let a: Vec<u32> = (0..24).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..24).map(|x| x * 2 + 1).collect();
        let (out, c) = merge_block(&a, &b, 0, 24, 0, &p, None).unwrap();
        assert_eq!(out, merge_ref(&a, &b));
        assert!(c.shared.merge.steps > 0);
        assert_eq!(c.shared.combined().crew_violations, 0);
    }

    #[test]
    fn multi_block_pair_covers_whole_merge() {
        let p = params();
        let be = p.block_elems();
        // Lists of 2·bE merged by 4 blocks.
        let a: Vec<u32> = (0..2 * be as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..2 * be as u32).map(|x| x * 2 + 1).collect();
        let want = merge_ref(&a, &b);
        let mut got = Vec::new();
        for j in 0..4 {
            let (chunk, _) = merge_block(&a, &b, 0, a.len(), j, &p, None).unwrap();
            got.extend(chunk);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn skewed_lists_still_merge() {
        let p = params();
        let be = p.block_elems();
        // All of a precedes all of b.
        let a: Vec<u32> = (0..be as u32).collect();
        let b: Vec<u32> = (be as u32..2 * be as u32).collect();
        let mut got = Vec::new();
        for j in 0..2 {
            let (chunk, _) = merge_block(&a, &b, 0, a.len(), j, &p, None).unwrap();
            got.extend(chunk);
        }
        assert_eq!(got, merge_ref(&a, &b));
    }

    #[test]
    fn duplicates_merge_stably_by_list() {
        let p = params();
        let be = p.block_elems();
        let a = vec![5u32; be / 2];
        let b = vec![5u32; be / 2];
        let (out, _) = merge_block(&a, &b, 0, be / 2, 0, &p, None).unwrap();
        assert_eq!(out, vec![5u32; be]);
    }

    #[test]
    fn partition_stage_charges_global_scalars() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..be as u32).map(|x| x * 2 + 1).collect();
        // Block 1's start diagonal needs a real binary search.
        let (_, c) = merge_block(&a, &b, 0, a.len(), 1, &p, None).unwrap();
        assert!(c.global.requests > 0);
        // Tile load (bE) + store (bE) + search probes.
        assert!(c.global.accesses >= 2 * be);
    }

    #[test]
    fn multiway_blocks_cover_whole_merge() {
        let p = params();
        let be = p.block_elems();
        // Four sorted runs of bE each → 4 merge blocks of fan-in 4.
        let runs: Vec<Vec<u32>> =
            (0..4u32).map(|r| (0..be as u32).map(|x| 4 * x + r).collect()).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let offsets: Vec<usize> = (0..4).map(|i| i * be).collect();
        let mut want: Vec<u32> = runs.concat();
        want.sort_unstable();
        let mut got = Vec::new();
        for j in 0..4 {
            let (chunk, c) = merge_block_multi(&refs, &offsets, 0, j, &p, None).unwrap();
            assert!(c.shared.merge.steps > 0, "block {j}");
            assert_eq!(c.shared.combined().crew_violations, 0, "block {j}");
            got.extend(chunk);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn multiway_partition_pass_matches_fused_coranks() {
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
            let (fused, _) = merge_block_multi(&refs, &offsets, 0, j, &p, None).unwrap();
            let (pre, _) = merge_block_multi(&refs, &offsets, 0, j, &p, Some(pair)).unwrap();
            assert_eq!(fused, pre, "block {j}");
        }
    }

    #[test]
    fn multiway_corrupted_corank_is_a_typed_error() {
        let p = params();
        let be = p.block_elems();
        let runs: Vec<Vec<u32>> =
            (0..3u32).map(|r| (0..be as u32).map(|x| 3 * x + r).collect()).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let offsets: Vec<usize> = (0..3).map(|i| i * be).collect();
        let bad = vec![(0usize, be + 9), (0, 0), (0, 0)];
        let err = merge_block_multi(&refs, &offsets, 0, 0, &p, Some(&bad)).unwrap_err();
        assert!(matches!(err, WcmsError::PartitionValidation { .. }), "{err}");
    }
}
