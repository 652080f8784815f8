//! The base case: one thread block sorts its `bE`-element tile in shared
//! memory (§II-A).
//!
//! 1. The tile is loaded from global memory with coalesced accesses and
//!    written to shared memory round-robin.
//! 2. Each thread reads its `E` consecutive elements, sorts them in
//!    registers with the odd–even network, and writes them back — the
//!    tile is now `b` sorted runs of length `E`.
//! 3. `log₂ b` in-block pairwise merge rounds follow: in round `i`,
//!    `b/2ⁱ` pairs of runs of length `2^{i−1}E` are merged by `2ⁱ`
//!    threads each via GPU Merge Path — a mutual binary search per thread
//!    (the `β₁` phase) and an `E`-element sequential merge (the `β₂`
//!    phase), all in shared memory with full conflict accounting.

use wcms_dmm::BankModel;
use wcms_error::WcmsError;
use wcms_gpu_sim::{tile_traffic_words, GpuKey, SharedMemory};

use crate::instrument::RoundCounters;
use crate::network::odd_even_sort;
use crate::params::SortParams;
use crate::schedule::{MergeSchedule, ThreadSlices};
use crate::warp_exec::{coalesced_fill, lockstep_probe, lockstep_reads, lockstep_writes};

/// Sort one block's `bE` elements, charging all memory traffic.
/// `global_offset` is the block's word offset in device memory (for exact
/// sector accounting of the tile load/store).
///
/// # Errors
///
/// Returns [`WcmsError::InvalidLength`] if `input.len()` is not exactly
/// `bE`, and propagates the tile's typed errors (CREW violations,
/// out-of-bounds addresses) from the simulated kernel.
pub(crate) fn block_sort<K: GpuKey>(
    input: &[K],
    global_offset: usize,
    params: &SortParams,
) -> Result<(Vec<K>, RoundCounters), WcmsError> {
    let be = params.block_elems();
    if input.len() != be {
        return Err(WcmsError::InvalidLength { n: input.len(), block_elems: be });
    }
    let (w, e, b) = (params.w, params.e, params.b);

    let mut counters = RoundCounters { blocks: 1, ..Default::default() };
    let mut smem = if params.smem_padding {
        SharedMemory::<K>::new_padded(BankModel::new(w), be)
    } else {
        SharedMemory::<K>::new(BankModel::new(w), be)
    };

    // --- Tile load: global (coalesced) → shared (round-robin).
    counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
    coalesced_fill(&mut smem, 0, input, b, w)?;

    // --- Register sort: thread t reads tile[tE .. tE+E] (lockstep strided
    // reads), odd–even sorts in registers, writes back.
    let addrs: Vec<usize> = (0..be).collect();
    let starts: Vec<usize> = (0..b).map(|t| t * e).collect();
    let ends: Vec<usize> = (1..=b).map(|t| t * e).collect();
    let mut regs = lockstep_reads(&mut smem, ThreadSlices::new(&addrs, &ends), w)?;
    for r in regs.chunks_mut(e) {
        counters.comparators += odd_even_sort(r);
    }
    lockstep_writes(&mut smem, &starts, ThreadSlices::new(&regs, &ends), w)?;
    counters.shared.transfer.merge(&smem.drain_totals());

    // --- In-block pairwise merge rounds.
    for round in 1..=params.block_rounds() {
        merge_round_in_block(&mut smem, round, params, &mut counters)?;
    }

    // --- Store: shared → global (coalesced).
    counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
    Ok((smem.as_slice().to_vec(), counters))
}

/// One in-block merge round: `2^round` threads per pair of
/// `2^{round−1}·E`-element runs. The schedule (addresses and merged
/// values) comes from [`MergeSchedule`]; this function only replays it
/// against the tile for exact accounting.
fn merge_round_in_block<K: GpuKey>(
    smem: &mut SharedMemory<K>,
    round: usize,
    params: &SortParams,
    counters: &mut RoundCounters,
) -> Result<(), WcmsError> {
    let w = params.w;
    let sched = MergeSchedule::in_block_round(smem.as_slice(), round, params);

    lockstep_probe(smem, sched.probe_seqs(), w)?;
    counters.shared.partition.merge(&smem.drain_totals());

    lockstep_probe(smem, sched.merge_seqs(), w)?;
    counters.shared.merge.merge(&smem.drain_totals());

    lockstep_writes(smem, sched.write_starts(), sched.merged_vals(), w)?;
    counters.shared.transfer.merge(&smem.drain_totals());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48, tiny for tests
    }

    #[test]
    fn sorts_a_random_block() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).map(|i| (i * 29 + 5) % 48).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let (out, counters) = block_sort(&input, 0, &p).unwrap();
        assert_eq!(out, want);
        assert_eq!(counters.blocks, 1);
        assert!(counters.comparators > 0);
    }

    #[test]
    fn sorts_reverse_and_duplicate_blocks() {
        let p = params();
        for input in [
            (0..p.block_elems() as u32).rev().collect::<Vec<_>>(),
            vec![7u32; p.block_elems()],
            (0..p.block_elems() as u32).collect::<Vec<_>>(),
        ] {
            let mut want = input.clone();
            want.sort_unstable();
            let (out, _) = block_sort(&input, 0, &p).unwrap();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn charges_all_phases() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        let (_, c) = block_sort(&input, 0, &p).unwrap();
        assert!(c.shared.transfer.steps > 0, "transfer phase untouched");
        assert!(c.shared.partition.steps > 0, "partition phase untouched");
        assert!(c.shared.merge.steps > 0, "merge phase untouched");
        assert_eq!(c.shared.combined().crew_violations, 0);
        // Tile load + store.
        assert_eq!(c.global.accesses, 2 * p.block_elems());
    }

    #[test]
    fn merge_phase_steps_count_matches_structure() {
        // Each in-block round issues E merge steps per warp-pass over b
        // threads: log2(b) rounds × (b/w) warps × E steps.
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        let (_, c) = block_sort(&input, 0, &p).unwrap();
        let expected = p.block_rounds() * p.warps_per_block() * p.e;
        assert_eq!(c.shared.merge.steps, expected);
    }

    #[test]
    fn global_traffic_uses_offset() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).collect();
        let (_, c0) = block_sort(&input, 0, &p).unwrap();
        let (_, c1) = block_sort(&input, 4, &p).unwrap(); // misaligned by half a sector
        assert!(c1.global.sectors >= c0.global.sectors);
    }

    #[test]
    fn rejects_wrong_size() {
        let err = block_sort(&[1, 2, 3], 0, &params()).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{err}");
    }
}
