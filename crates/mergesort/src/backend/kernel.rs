//! The sort's three work units, written once against a [`Tile`] (§II-A).
//!
//! - [`Tile::base_block`]: one thread block sorts its `bE`-element
//!   tile. The tile is loaded from global memory with coalesced
//!   accesses; each thread sorts its `E` consecutive elements in
//!   registers with the odd–even network and writes them back, leaving
//!   `b` sorted runs of length `E`; then `log₂ b` in-block Merge Path
//!   rounds follow, in round `i` `2ⁱ` threads merging each pair of
//!   `2^{i−1}E`-element runs.
//! - [`Tile::merge_unit`] and [`Tile::merge_unit_multi`]: one block of
//!   a global merge round writes its `bE`-element window of the merged
//!   pair (or k-way group). It finds its co-ranks in global memory (or
//!   fetches them from a partition kernel), loads its sub-ranges into
//!   the tile end to end, runs one Merge Path stage there, and stores
//!   the window coalesced. The two units differ only in the co-rank
//!   search and the stage walker; `merge_window` is their shared body.
//!
//! Every merge stage is a per-thread mutual binary search (the `β₁`
//! phase, charged to `partition`), an `E`-element sequential merge (the
//! `β₂` phase the paper attacks, charged to `merge`) and the staging of
//! the merged values (charged to `transfer`, with the tile loads and
//! the register sort). The schedules come from [`crate::schedule`].
//!
//! The units are provided methods of the [`Tile`] trait, written once
//! against its primitives, and a tile is the only thing the backends do
//! differently: the simulator's tile replays every warp step against a
//! banked `SharedMemory`, the analytic tile counts the same steps in a
//! `StepAccumulator`. Their counters agree integer for integer because
//! everything else — the stage sequence, the schedules, the global
//! traffic — is this one code.

use wcms_dmm::ConflictTotals;
use wcms_error::WcmsError;
use wcms_gpu_sim::{tile_traffic_words, GpuKey};

use crate::instrument::{PhaseTotals, RoundCounters};
use crate::network::odd_even_sort;
use crate::params::SortParams;
use crate::schedule::{
    find_block_coranks, find_block_coranks_multi, validate_coranks, validate_coranks_multi, Stage,
};

/// One thread block's `bE`-word shared-memory tile: its contents and
/// the accounting of every warp step a work unit issues against it.
///
/// An implementation supplies the primitives (load, register pass,
/// merge stage); the three work units are provided, so each is written
/// once for both backends.
pub(crate) trait Tile<K: GpuKey>: Sized {
    /// An empty tile of `bE` words, laid out (padded or not) as
    /// `params` says.
    fn new(params: &SortParams) -> Self;

    /// Load `values` into the tile's next free words, coalesced: `b`
    /// threads write them round-robin, `min(w, b)` contiguous lanes per
    /// step.
    ///
    /// # Errors
    ///
    /// The tile's typed errors (an address past the tile).
    fn load(&mut self, values: &[K], params: &SortParams) -> Result<(), WcmsError>;

    /// The register phase: thread `t` reads words `tE..(t+1)E` into its
    /// registers, one word per step, `f` works on every thread's
    /// registers end to end, and each thread writes its registers back
    /// to the words it read.
    ///
    /// # Errors
    ///
    /// The tile's typed errors (an address past the tile, a CREW race).
    fn register_pass(
        &mut self,
        params: &SortParams,
        f: impl FnOnce(&mut [K]),
    ) -> Result<(), WcmsError>;

    /// One merge stage: replay `stage`'s schedule and stage its merged
    /// values into the tile. Returns the stage's conflict totals by
    /// phase: the probes' under `partition`, the merge reads' under
    /// `merge`, the staging writes' under `transfer`.
    ///
    /// # Errors
    ///
    /// The tile's typed errors (an address past the tile, a CREW race).
    fn merge_stage(
        &mut self,
        stage: Stage<'_, K>,
        params: &SortParams,
    ) -> Result<PhaseTotals, WcmsError>;

    /// The conflict totals since the last drain; resets them.
    fn drain(&mut self) -> ConflictTotals;

    /// The tile's contents.
    fn into_vec(self) -> Vec<K>;

    /// Sort one base-case block of exactly `bE` elements.
    /// `global_offset` is the block's word offset in device memory (for
    /// exact sector accounting of the tile load and store).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidLength`] if `chunk.len()` is not
    /// exactly `bE`, and propagates the tile's typed errors.
    fn base_block(
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        if chunk.len() != be {
            return Err(WcmsError::InvalidLength { n: chunk.len(), block_elems: be });
        }
        let (w, e) = (params.w, params.e);
        let mut counters = RoundCounters { blocks: 1, ..Default::default() };
        let mut tile = Self::new(params);

        // Tile load: global (coalesced) → shared (round-robin).
        counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
        tile.load(chunk, params)?;

        // Register sort: each thread odd–even sorts its E elements.
        tile.register_pass(params, |regs| {
            counters.comparators += regs.chunks_mut(e).map(odd_even_sort).sum::<usize>();
        })?;
        counters.shared.transfer.merge(&tile.drain());

        // In-block pairwise merge rounds.
        for round in 1..=params.block_rounds() {
            counters.shared.absorb(&tile.merge_stage(Stage::InBlock(round), params)?);
        }

        // Store: shared → global (coalesced).
        counters.global.merge(&tile_traffic_words(global_offset, be, w, K::WORD_BYTES));
        Ok((tile.into_vec(), counters))
    }

    /// Merge one block's `bE`-element output window
    /// `[block_index·bE, (block_index+1)·bE)` of the sorted pair
    /// `(a, b)`. `a_offset`/`b_offset` are the lists' global word
    /// offsets; the merged pair overwrites them from `a_offset` on.
    ///
    /// `precomputed` carries the block's `(ca_start, ca_end)` co-ranks
    /// when a separate partition kernel already found them (the Modern
    /// GPU structure, see [`crate::schedule::partition_pass`]); `None`
    /// makes the block search its own start diagonal in global memory
    /// (the fused Thrust structure).
    ///
    /// # Errors
    ///
    /// A corrupted co-rank pair is a [`WcmsError::PartitionValidation`],
    /// never a silently corrupted window; the tile's typed errors pass
    /// through.
    fn merge_unit(
        a: &[K],
        b: &[K],
        a_offset: usize,
        b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        let (diag_start, diag_end) = (block_index * be, (block_index + 1) * be);
        let mut counters = RoundCounters { blocks: 1, ..Default::default() };
        let (ca_start, ca_end) =
            find_block_coranks(a, b, diag_start, diag_end, precomputed, &mut counters);
        validate_coranks((ca_start, ca_end), diag_start, diag_end, a.len(), b.len(), block_index)?;
        let (cb_start, cb_end) = (diag_start - ca_start, diag_end - ca_end);
        let (a_part, b_part) = (&a[ca_start..ca_end], &b[cb_start..cb_end]);
        merge_window::<K, Self>(
            [(a_part, a_offset + ca_start), (b_part, b_offset + cb_start)],
            Stage::Pair(a_part, b_part),
            a_offset + diag_start,
            params,
            counters,
        )
    }

    /// Merge one block's `bE`-element output window of a *multiway*
    /// group — the k-way analogue of [`Tile::merge_unit`]. `runs` are
    /// the group's sorted runs at global word offsets `run_offsets`; the
    /// merged group overwrites the group's own span from `out_offset`
    /// on. `precomputed` carries the block's per-run `(start, end)`
    /// co-ranks from [`crate::schedule::partition_pass_multi`]; `None`
    /// makes the block run its own multisequence selection in global
    /// memory.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tile::merge_unit`], for a corrupted co-rank
    /// vector.
    fn merge_unit_multi(
        runs: &[&[K]],
        run_offsets: &[usize],
        out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        let (diag_start, diag_end) = (block_index * be, (block_index + 1) * be);
        let mut counters = RoundCounters { blocks: 1, ..Default::default() };
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let pairs =
            find_block_coranks_multi(runs, diag_start, diag_end, precomputed, &mut counters);
        validate_coranks_multi(&pairs, diag_start, diag_end, &lens, block_index)?;
        let parts: Vec<&[K]> = runs.iter().zip(&pairs).map(|(r, &(s, e))| &r[s..e]).collect();
        let segments = parts
            .iter()
            .zip(&pairs)
            .zip(run_offsets)
            .map(|((&part, &(s, _)), &off)| (part, off + s));
        merge_window::<K, Self>(
            segments,
            Stage::Multi(&parts),
            out_offset + diag_start,
            params,
            counters,
        )
    }
}

/// The body both merge units share, once their co-ranks are validated:
/// load each `(part, global offset)` segment into a tile end to end,
/// run `stage` over them, and store the tile to `store_offset`.
fn merge_window<'a, K: GpuKey, T: Tile<K>>(
    segments: impl IntoIterator<Item = (&'a [K], usize)>,
    stage: Stage<'_, K>,
    store_offset: usize,
    params: &SortParams,
    mut counters: RoundCounters,
) -> Result<(Vec<K>, RoundCounters), WcmsError> {
    let (w, be) = (params.w, params.block_elems());
    let mut tile = T::new(params);
    for (part, offset) in segments {
        counters.global.merge(&tile_traffic_words(offset, part.len(), w, K::WORD_BYTES));
        tile.load(part, params)?;
    }
    counters.shared.transfer.merge(&tile.drain());
    counters.shared.absorb(&tile.merge_stage(stage, params)?);
    counters.global.merge(&tile_traffic_words(store_offset, be, w, K::WORD_BYTES));
    Ok((tile.into_vec(), counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, ExecBackend};
    use wcms_mergepath::cpu::merge_ref;

    /// Both tiles, through the backends that run them.
    const TILES: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Analytic];

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48, tiny for tests
    }

    #[test]
    fn sorts_a_random_block() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).map(|i| (i * 29 + 5) % 48).collect();
        let mut want = input.clone();
        want.sort_unstable();
        for tile in TILES {
            let (out, counters) = tile.base_block(&input, 0, &p).unwrap();
            assert_eq!(out, want, "{tile}");
            assert_eq!(counters.blocks, 1, "{tile}");
            assert!(counters.comparators > 0, "{tile}");
        }
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
            for tile in TILES {
                let (out, _) = tile.base_block(&input, 0, &p).unwrap();
                assert_eq!(out, want, "{tile}");
            }
        }
    }

    #[test]
    fn charges_all_phases() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        for tile in TILES {
            let (_, c) = tile.base_block(&input, 0, &p).unwrap();
            assert!(c.shared.transfer.steps > 0, "{tile}: transfer phase untouched");
            assert!(c.shared.partition.steps > 0, "{tile}: partition phase untouched");
            assert!(c.shared.merge.steps > 0, "{tile}: merge phase untouched");
            assert_eq!(c.shared.combined().crew_violations, 0, "{tile}");
            // Tile load + store.
            assert_eq!(c.global.accesses, 2 * p.block_elems(), "{tile}");
        }
    }

    #[test]
    fn merge_phase_steps_count_matches_structure() {
        // Each in-block round issues E merge steps per warp-pass over b
        // threads: log2(b) rounds × (b/w) warps × E steps.
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        let expected = p.block_rounds() * p.warps_per_block() * p.e;
        for tile in TILES {
            let (_, c) = tile.base_block(&input, 0, &p).unwrap();
            assert_eq!(c.shared.merge.steps, expected, "{tile}");
        }
    }

    #[test]
    fn global_traffic_uses_offset() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).collect();
        for tile in TILES {
            let (_, c0) = tile.base_block(&input, 0, &p).unwrap();
            let (_, c1) = tile.base_block(&input, 4, &p).unwrap(); // misaligned by half a sector
            assert!(c1.global.sectors >= c0.global.sectors, "{tile}");
        }
    }

    #[test]
    fn rejects_wrong_size() {
        for tile in TILES {
            let err = tile.base_block(&[1u32, 2, 3], 0, &params()).unwrap_err();
            assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{tile}: {err}");
        }
    }

    #[test]
    fn merges_one_block_pair() {
        let p = params();
        // Two sorted lists of bE/2 = 24 elements each → one block.
        let a: Vec<u32> = (0..24).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..24).map(|x| x * 2 + 1).collect();
        for tile in TILES {
            let (out, c) = tile.merge_unit(&a, &b, 0, 24, 0, &p, None).unwrap();
            assert_eq!(out, merge_ref(&a, &b), "{tile}");
            assert!(c.shared.merge.steps > 0, "{tile}");
            assert_eq!(c.shared.combined().crew_violations, 0, "{tile}");
        }
    }

    #[test]
    fn multi_block_pair_covers_whole_merge() {
        let p = params();
        let be = p.block_elems();
        // Lists of 2·bE merged by 4 blocks.
        let a: Vec<u32> = (0..2 * be as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..2 * be as u32).map(|x| x * 2 + 1).collect();
        for tile in TILES {
            let mut got = Vec::new();
            for j in 0..4 {
                let (chunk, _) = tile.merge_unit(&a, &b, 0, a.len(), j, &p, None).unwrap();
                got.extend(chunk);
            }
            assert_eq!(got, merge_ref(&a, &b), "{tile}");
        }
    }

    #[test]
    fn skewed_lists_still_merge() {
        let p = params();
        let be = p.block_elems();
        // All of a precedes all of b.
        let a: Vec<u32> = (0..be as u32).collect();
        let b: Vec<u32> = (be as u32..2 * be as u32).collect();
        for tile in TILES {
            let mut got = Vec::new();
            for j in 0..2 {
                let (chunk, _) = tile.merge_unit(&a, &b, 0, a.len(), j, &p, None).unwrap();
                got.extend(chunk);
            }
            assert_eq!(got, merge_ref(&a, &b), "{tile}");
        }
    }

    #[test]
    fn duplicates_merge_stably_by_list() {
        let p = params();
        let be = p.block_elems();
        let a = vec![5u32; be / 2];
        let b = vec![5u32; be / 2];
        for tile in TILES {
            let (out, _) = tile.merge_unit(&a, &b, 0, be / 2, 0, &p, None).unwrap();
            assert_eq!(out, vec![5u32; be], "{tile}");
        }
    }

    #[test]
    fn partition_stage_charges_global_scalars() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..be as u32).map(|x| x * 2 + 1).collect();
        for tile in TILES {
            // Block 1's start diagonal needs a real binary search.
            let (_, c) = tile.merge_unit(&a, &b, 0, a.len(), 1, &p, None).unwrap();
            assert!(c.global.requests > 0, "{tile}");
            // Tile load (bE) + store (bE) + search probes.
            assert!(c.global.accesses >= 2 * be, "{tile}");
        }
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
        for tile in TILES {
            let mut got = Vec::new();
            for j in 0..4 {
                let (chunk, c) = tile.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
                assert!(c.shared.merge.steps > 0, "{tile} block {j}");
                assert_eq!(c.shared.combined().crew_violations, 0, "{tile} block {j}");
                got.extend(chunk);
            }
            assert_eq!(got, want, "{tile}");
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
        for tile in TILES {
            let err = tile.merge_unit_multi(&refs, &offsets, 0, 0, &p, Some(&bad)).unwrap_err();
            assert!(matches!(err, WcmsError::PartitionValidation { .. }), "{tile}: {err}");
        }
    }
}
