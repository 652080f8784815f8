//! The k-way generalisation of Merge Path: multisequence selection and
//! the sequential k-way merging stage.
//!
//! A k-way merge of `g` sorted runs is ordered by the *stable* rule: an
//! element precedes another iff its key is smaller, or the keys are equal
//! and it comes from a lower-indexed run. For `g = 2` this is exactly the
//! ties-take-`A` rule of [`merge_path`](crate::diagonal::merge_path) /
//! [`merge_emit`](crate::serial::merge_emit), so the pairwise primitives
//! are the `k = 2` special case of these.
//!
//! [`multiway_select`] finds, for an output diagonal `d`, the unique
//! co-rank vector `(c₀, …, c_{g−1})` with `Σ cᵢ = d` such that the first
//! `cᵢ` elements of each run are exactly the `d` smallest elements of the
//! stable merge. [`multiway_emit`] then merges sequentially from any such
//! cut. Like the pairwise primitives, both take accessor closures instead
//! of slices so the same code runs against plain memory or against the
//! instrumented simulated memories — and so the caller can charge each
//! selection probe to the right counter.

/// Stable multisequence selection: the co-ranks of output diagonal `d`
/// over `g` sorted runs with lengths `lens`.
///
/// `probe(run, idx)` fetches one element; every fetch is one probe of
/// the underlying memory, so callers can account the search cost
/// exactly. The search is a pivot-halving refinement: each step probes a
/// pivot in the widest undecided run, ranks it against every other run
/// by binary search, and tightens every run's co-rank interval — `O(g²
/// log² L)` probes, the deterministic k-way analogue of the mutual
/// binary search.
///
/// # Panics
///
/// Panics if `d` exceeds the total length of the runs.
#[must_use]
pub fn multiway_select<K: Ord + Copy>(
    lens: &[usize],
    d: usize,
    mut probe: impl FnMut(usize, usize) -> K,
) -> Vec<usize> {
    let g = lens.len();
    assert!(d <= lens.iter().sum::<usize>(), "diagonal {d} exceeds the runs' total length");
    // Co-rank interval per run; the stable cut is its unique fixpoint
    // (keys can repeat, but (key, run, index) triples cannot).
    let mut lo = vec![0usize; g];
    let mut hi: Vec<usize> = lens.iter().map(|&l| l.min(d)).collect();
    // Halve the widest undecided interval until none remains.
    while let Some(p) = (0..g).filter(|&i| hi[i] > lo[i]).max_by_key(|&i| hi[i] - lo[i]) {
        let mid = lo[p] + (hi[p] - lo[p]) / 2;
        let pivot = probe(p, mid);
        // Rank the pivot triple (pivot, p, mid): count the elements that
        // precede it in the stable order. Run p contributes its prefix;
        // every other run a binary search (equal keys break by run index).
        let mut rank = mid;
        let mut cuts = vec![0usize; g];
        cuts[p] = mid;
        for i in (0..g).filter(|&i| i != p) {
            let (mut l, mut h) = (0usize, lens[i].min(d));
            while l < h {
                let m = l + (h - l) / 2;
                let v = probe(i, m);
                if v < pivot || (v == pivot && i < p) {
                    l = m + 1;
                } else {
                    h = m;
                }
            }
            cuts[i] = l;
            rank += l;
        }
        if rank < d {
            // The pivot is among the d smallest — so is everything that
            // precedes it in any run.
            lo[p] = mid + 1;
            for i in (0..g).filter(|&i| i != p) {
                lo[i] = lo[i].max(cuts[i]);
            }
        } else {
            // The pivot is excluded — so is everything after it.
            hi[p] = mid;
            for i in (0..g).filter(|&i| i != p) {
                hi[i] = hi[i].min(cuts[i]);
            }
        }
    }
    // On sorted runs the intervals converge exactly on the diagonal. On
    // corrupted (unsorted) data the per-run searches can disagree; clamp
    // to *a* cut summing to `d` so downstream merge windows stay
    // structurally valid — like the pairwise mutual search, garbage in
    // yields a well-formed cut of garbage out, caught by the callers'
    // output checks rather than a panic here.
    let mut sum: usize = lo.iter().sum();
    for i in 0..g {
        if sum > d {
            let cut = (sum - d).min(lo[i]);
            lo[i] -= cut;
            sum -= cut;
        } else if sum < d {
            let add = (d - sum).min(lens[i] - lo[i]);
            lo[i] += add;
            sum += add;
        }
    }
    lo
}

/// Stable-merge `count` elements of a `g`-way merge starting from the
/// co-rank cut `from`, where run `i` has `lens[i]` total elements. For
/// the element of output rank `r` (0-based, relative to this window)
/// taken from index `idx` of run `run`, calls `emit(r, run, idx)`.
///
/// Equal keys take the lowest run index first, matching
/// [`multiway_select`]'s cut — and, at `g = 2`, matching
/// [`merge_emit`](crate::serial::merge_emit)'s ties-take-`A` rule. Like
/// the pairwise kernel, the comparison candidates live in registers:
/// only the consumed element is an emit (one read per merged element).
///
/// # Panics
///
/// Panics if the window runs past the end of all runs.
pub fn multiway_emit<K: Ord>(
    lens: &[usize],
    from: &[usize],
    count: usize,
    mut at: impl FnMut(usize, usize) -> K,
    mut emit: impl FnMut(usize, usize, usize),
) {
    let g = lens.len();
    let mut cur = from.to_vec();
    for r in 0..count {
        let mut best: Option<(K, usize)> = None;
        for i in 0..g {
            if cur[i] < lens[i] {
                let v = at(i, cur[i]);
                if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
                    best = Some((v, i));
                }
            }
        }
        let (_, run) = best.expect("merge window exceeds all runs");
        emit(r, run, cur[run]);
        cur[run] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagonal::merge_path;

    /// Collect the `(run, index)` sequence of a k-way merge
    /// window over slices.
    fn multiway_sequence<K: Ord + Copy>(
        runs: &[&[K]],
        from: &[usize],
        count: usize,
    ) -> Vec<(usize, usize)> {
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        let mut out = Vec::with_capacity(count);
        multiway_emit(&lens, from, count, |i, j| runs[i][j], |_, run, idx| out.push((run, idx)));
        out
    }

    fn select_slices<K: Ord + Copy>(runs: &[&[K]], d: usize) -> Vec<usize> {
        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
        multiway_select(&lens, d, |i, j| runs[i][j])
    }

    /// Reference stable merge: (key, run) pairs in merged order.
    fn stable_merge<K: Ord + Copy>(runs: &[&[K]]) -> Vec<(K, usize)> {
        let mut all: Vec<(K, usize, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.iter().enumerate().map(move |(j, &v)| (v, i, j)))
            .collect();
        all.sort();
        all.into_iter().map(|(v, i, _)| (v, i)).collect()
    }

    #[test]
    fn selection_matches_the_stable_merge_prefix_everywhere() {
        let runs: Vec<Vec<u32>> =
            vec![vec![1, 4, 4, 9, 12, 15], vec![2, 4, 6, 8], vec![0, 4, 4, 4, 20], vec![3]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let merged = stable_merge(&refs);
        let total: usize = runs.iter().map(Vec::len).sum();
        for d in 0..=total {
            let c = select_slices(&refs, d);
            assert_eq!(c.iter().sum::<usize>(), d, "d={d}: {c:?}");
            // The cut's element multiset per run equals the merged prefix's.
            for (i, &ci) in c.iter().enumerate() {
                let want = merged[..d].iter().filter(|(_, r)| *r == i).count();
                assert_eq!(ci, want, "d={d} run={i}: {c:?}");
            }
        }
    }

    #[test]
    fn two_way_selection_equals_merge_path() {
        let a: Vec<u32> = vec![1, 3, 5, 5, 7, 11];
        let b: Vec<u32> = vec![2, 3, 5, 8, 8];
        for d in 0..=a.len() + b.len() {
            let c = select_slices(&[&a, &b], d);
            let ca = merge_path(d, a.len(), b.len(), |i| a[i], |j| b[j]);
            assert_eq!(c, vec![ca, d - ca], "d={d}");
        }
    }

    #[test]
    fn emit_from_any_cut_continues_the_stable_merge() {
        let runs: Vec<Vec<u32>> = vec![vec![1, 5, 9], vec![2, 5, 10, 11], vec![5, 6]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let merged = stable_merge(&refs);
        let total = merged.len();
        for d in 0..total {
            let c = select_slices(&refs, d);
            let count = (total - d).min(4);
            let seq = multiway_sequence(&refs, &c, count);
            let vals: Vec<(u32, usize)> =
                seq.iter().map(|&(run, idx)| (runs[run][idx], run)).collect();
            assert_eq!(vals, merged[d..d + count].to_vec(), "d={d}");
        }
    }

    #[test]
    fn probe_count_is_logarithmic_not_linear() {
        let n = 1 << 14;
        let runs: Vec<Vec<u32>> =
            (0..4u32).map(|r| (0..n as u32).map(|x| 4 * x + r).collect()).collect();
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        let mut probes = 0usize;
        let _ = multiway_select(&lens, 2 * n, |i, j| {
            probes += 1;
            runs[i][j]
        });
        assert!(probes < 4 * 15 * 15 * 4, "selection probed {probes} times");
    }

    #[test]
    fn degenerate_diagonals() {
        let runs: Vec<Vec<u32>> = vec![vec![], vec![1, 2], vec![]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(select_slices(&refs, 0), vec![0, 0, 0]);
        assert_eq!(select_slices(&refs, 2), vec![0, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the runs' total length")]
    fn overrun_diagonal_panics() {
        let _ = multiway_select(&[1, 1], 3, |_, _| 0u32);
    }

    #[test]
    fn corrupted_runs_still_yield_a_structurally_valid_cut() {
        // Unsorted (bit-flipped) runs: the cut must still sum to d and
        // stay within each run — garbage content, well-formed shape.
        let runs: Vec<Vec<u32>> =
            vec![vec![9, 1, 7, 3], vec![2, 8, 0, 6], vec![5, 5, 1_000_000, 4]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        for d in 0..=12 {
            let c = select_slices(&refs, d);
            assert_eq!(c.iter().sum::<usize>(), d, "d={d}: {c:?}");
            for (i, &ci) in c.iter().enumerate() {
                assert!(ci <= runs[i].len(), "d={d} run={i}: {c:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds all runs")]
    fn overrun_window_panics() {
        let runs: Vec<Vec<u32>> = vec![vec![1], vec![2]];
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let _ = multiway_sequence(&refs, &[0, 0], 3);
    }
}
