//! The trusted CPU reference backend — the bottom rung of the resilient
//! degrade ladder, and a first-class `--backend reference` for output
//! validation.
//!
//! Work units execute on plain host code (`sort_unstable`, a sequential
//! Merge Path emit) and report **no** GPU counters: a degraded unit
//! contributes nothing to the [`crate::instrument::SortReport`], exactly
//! the PR-1 contract of `sort_resilient`'s CPU fallback.

use wcms_error::WcmsError;
use wcms_gpu_sim::GpuKey;
use wcms_mergepath::diagonal::merge_path;
use wcms_mergepath::multiway::{multiway_emit, multiway_select};
use wcms_mergepath::serial::{merge_emit, MergeSource};

use crate::instrument::RoundCounters;
use crate::params::SortParams;
use crate::schedule::{validate_coranks, validate_coranks_multi};

use super::ExecBackend;

/// Plain CPU execution with zero GPU accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceBackend;

impl ReferenceBackend {
    /// Merge a whole group of sorted runs on the CPU (the degrade unit
    /// of the resilient global rounds).
    #[must_use]
    pub(crate) fn merge_group<K: GpuKey>(&self, runs: &[&[K]]) -> Vec<K> {
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let total: usize = lens.iter().sum();
        let mut out = Vec::with_capacity(total);
        multiway_emit(
            &lens,
            &vec![0; runs.len()],
            total,
            |i, j| runs[i][j],
            |_, run, idx| out.push(runs[run][idx]),
        );
        out
    }
}

impl ExecBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        _global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        if chunk.len() != be {
            return Err(WcmsError::InvalidLength { n: chunk.len(), block_elems: be });
        }
        let mut out = chunk.to_vec();
        out.sort_unstable();
        Ok((out, RoundCounters::default()))
    }

    fn merge_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        _a_offset: usize,
        _b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        let diag_start = block_index * be;
        let diag_end = diag_start + be;
        let (ca_start, ca_end) = match precomputed {
            Some(pair) => pair,
            None => (
                merge_path(diag_start, a.len(), b.len(), |i| a[i], |j| b[j]),
                merge_path(diag_end, a.len(), b.len(), |i| a[i], |j| b[j]),
            ),
        };
        // Still structurally validated: a corrupted partition array must
        // surface as the same typed error on every backend.
        validate_coranks((ca_start, ca_end), diag_start, diag_end, a.len(), b.len(), block_index)?;
        let cb_start = diag_start - ca_start;

        let mut out = Vec::with_capacity(be);
        merge_emit(
            ca_start,
            cb_start,
            a.len(),
            b.len(),
            be,
            |i| a[i],
            |j| b[j],
            |_, src, idx| {
                out.push(match src {
                    MergeSource::A => a[idx],
                    MergeSource::B => b[idx],
                });
            },
        );
        Ok((out, RoundCounters::default()))
    }

    fn merge_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        _run_offsets: &[usize],
        _out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let be = params.block_elems();
        let diag_start = block_index * be;
        let diag_end = diag_start + be;
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let pairs = match precomputed {
            Some(pairs) => pairs.to_vec(),
            None => {
                let starts = multiway_select(&lens, diag_start, |i, j| runs[i][j]);
                let ends = multiway_select(&lens, diag_end, |i, j| runs[i][j]);
                starts.into_iter().zip(ends).collect()
            }
        };
        validate_coranks_multi(&pairs, diag_start, diag_end, &lens, block_index)?;

        let starts: Vec<usize> = pairs.iter().map(|&(s, _)| s).collect();
        let mut out = Vec::with_capacity(be);
        multiway_emit(
            &lens,
            &starts,
            be,
            |i, j| runs[i][j],
            |_, run, idx| out.push(runs[run][idx]),
        );
        Ok((out, RoundCounters::default()))
    }

    /// Co-ranks without any charged traffic — the reference path models
    /// no GPU at all.
    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        let be = params.block_elems();
        let coranks: Vec<usize> = (0..=num_blocks)
            .map(|j| merge_path(j * be, a.len(), b.len(), |i| a[i], |x| b[x]))
            .collect();
        let pairs = coranks.windows(2).map(|w| (w[0], w[1])).collect();
        (pairs, RoundCounters::default())
    }

    /// Multiway co-ranks without any charged traffic.
    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        let be = params.block_elems();
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let cuts: Vec<Vec<usize>> =
            (0..=num_blocks).map(|j| multiway_select(&lens, j * be, |i, x| runs[i][x])).collect();
        let pairs = cuts
            .windows(2)
            .map(|w| w[0].iter().zip(&w[1]).map(|(&s, &e)| (s, e)).collect())
            .collect();
        (pairs, RoundCounters::default())
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
    fn base_block_sorts_with_no_counters() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32).rev().collect();
        let (out, c) = ReferenceBackend.base_block(&input, 0, &p).unwrap();
        let mut want = input;
        want.sort_unstable();
        assert_eq!(out, want);
        assert_eq!(c, RoundCounters::default());
    }

    #[test]
    fn merge_unit_output_matches_sim() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..be as u32).map(|x| x * 2 + 1).collect();
        for j in 0..2 {
            let (sim_out, _) = SimBackend.merge_unit(&a, &b, 0, be, j, &p, None).unwrap();
            let (ref_out, c) = ReferenceBackend.merge_unit(&a, &b, 0, be, j, &p, None).unwrap();
            assert_eq!(ref_out, sim_out, "block {j}");
            assert_eq!(c, RoundCounters::default());
        }
    }

    #[test]
    fn merge_unit_multi_output_matches_sim_with_no_counters() {
        let p = params();
        let be = p.block_elems();
        let runs: Vec<Vec<u32>> =
            (0..3u32).map(|r| (0..be as u32).map(|x| 3 * x + r).collect()).collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let offsets: Vec<usize> = (0..3).map(|i| i * be).collect();
        for j in 0..3 {
            let (sim_out, _) =
                SimBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
            let (ref_out, c) =
                ReferenceBackend.merge_unit_multi(&refs, &offsets, 0, j, &p, None).unwrap();
            assert_eq!(ref_out, sim_out, "block {j}");
            assert_eq!(c, RoundCounters::default());
        }
    }

    #[test]
    fn merge_group_is_the_stable_multiway_merge() {
        let runs: Vec<Vec<u32>> = vec![vec![1, 4, 9], vec![2, 4, 6], vec![0, 4]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let out = ReferenceBackend.merge_group(&refs);
        let mut want: Vec<u32> = runs.concat();
        want.sort_unstable();
        assert_eq!(out, want);
    }

    #[test]
    fn corrupted_corank_rejected_like_other_backends() {
        let p = params();
        let be = p.block_elems();
        let a: Vec<u32> = (0..be as u32).collect();
        let b: Vec<u32> = (0..be as u32).collect();
        let err = ReferenceBackend.merge_unit(&a, &b, 0, be, 0, &p, Some((be + 9, 0))).unwrap_err();
        assert!(matches!(err, WcmsError::PartitionValidation { .. }), "{err}");
    }
}
