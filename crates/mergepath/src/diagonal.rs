//! The diagonal (mutual) binary search of GPU Merge Path.
//!
//! For sorted lists `A`, `B` and a diagonal `d ∈ [0, |A|+|B|]`, the search
//! finds the co-rank `i` (number of `A` elements among the `d` smallest of
//! the stable merge, taking from `A` on ties). Each iteration probes one
//! element of each list — the "mutual binary search" whose shared-memory
//! probes the paper's `β₁` counts.

/// Co-rank of diagonal `d`: the number of `A` elements among the first `d`
/// elements of the stable merge of `A` and `B`.
///
/// `a_at`/`b_at` are element accessors (indices are always in-range).
/// The stable convention takes equal keys from `A` first.
///
/// ```
/// use wcms_mergepath::diagonal::merge_path;
///
/// let a = [1u32, 3, 5];
/// let b = [2u32, 4, 6];
/// // Of the 3 smallest merged elements (1, 2, 3), two come from `a`.
/// assert_eq!(merge_path(3, a.len(), b.len(), |i| a[i], |j| b[j]), 2);
/// ```
pub fn merge_path<K, FA, FB>(d: usize, a_len: usize, b_len: usize, a_at: FA, b_at: FB) -> usize
where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
{
    merge_path_counted(d, a_len, b_len, a_at, b_at).0
}

/// As [`merge_path`], additionally returning the number of search
/// iterations performed (each iteration reads one `A` and one `B`
/// element).
pub fn merge_path_counted<K, FA, FB>(
    d: usize,
    a_len: usize,
    b_len: usize,
    mut a_at: FA,
    mut b_at: FB,
) -> (usize, usize)
where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
{
    debug_assert!(d <= a_len + b_len, "diagonal beyond the merge");
    let mut lo = d.saturating_sub(b_len);
    let mut hi = d.min(a_len);
    let mut iters = 0usize;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        iters += 1;
        // Take A[mid] into the prefix iff A[mid] <= B[d - 1 - mid]
        // (stable: ties go to A).
        if a_at(mid) <= b_at(d - 1 - mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, iters)
}

/// As [`merge_path`], invoking `on_probe(a_index, b_index)` for every
/// search iteration instead of materialising the probe list — the
/// allocation-free form the schedule walkers stream from. This is the
/// single implementation of the traced search; [`merge_path_trace`] is a
/// collecting wrapper around it.
pub fn merge_path_visit<K, FA, FB, P>(
    d: usize,
    a_len: usize,
    b_len: usize,
    mut a_at: FA,
    mut b_at: FB,
    mut on_probe: P,
) -> usize
where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
    P: FnMut(usize, usize),
{
    debug_assert!(d <= a_len + b_len, "diagonal beyond the merge");
    let mut lo = d.saturating_sub(b_len);
    let mut hi = d.min(a_len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        on_probe(mid, d - 1 - mid);
        if a_at(mid) <= b_at(d - 1 - mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// As [`merge_path`], additionally returning the `(a_index, b_index)`
/// probe pair of every search iteration — the mutual-binary-search access
/// pattern whose shared-memory conflicts the paper's `β₁` measures.
pub fn merge_path_trace<K, FA, FB>(
    d: usize,
    a_len: usize,
    b_len: usize,
    a_at: FA,
    b_at: FB,
) -> (usize, Vec<(usize, usize)>)
where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
{
    let mut probes = Vec::new();
    let corank = merge_path_visit(d, a_len, b_len, a_at, b_at, |ai, bi| probes.push((ai, bi)));
    (corank, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corank(d: usize, a: &[u32], b: &[u32]) -> usize {
        merge_path(d, a.len(), b.len(), |i| a[i], |j| b[j])
    }

    /// Reference: co-rank via a full stable merge.
    fn corank_ref(d: usize, a: &[u32], b: &[u32]) -> usize {
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..d {
            if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                i += 1;
            } else {
                j += 1;
            }
        }
        i
    }

    #[test]
    fn endpoints() {
        let a = [1u32, 3, 5];
        let b = [2u32, 4, 6];
        assert_eq!(corank(0, &a, &b), 0);
        assert_eq!(corank(6, &a, &b), 3);
    }

    #[test]
    fn interleaved_lists() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 4, 6, 8];
        for d in 0..=8 {
            assert_eq!(corank(d, &a, &b), corank_ref(d, &a, &b), "diag {d}");
        }
    }

    #[test]
    fn all_of_a_smaller() {
        let a = [1u32, 2, 3];
        let b = [10u32, 11];
        assert_eq!(corank(3, &a, &b), 3);
        assert_eq!(corank(4, &a, &b), 3);
        assert_eq!(corank(2, &a, &b), 2);
    }

    #[test]
    fn ties_go_to_a() {
        let a = [5u32, 5];
        let b = [5u32, 5];
        // The first two merged elements must both come from A.
        assert_eq!(corank(1, &a, &b), 1);
        assert_eq!(corank(2, &a, &b), 2);
        assert_eq!(corank(3, &a, &b), 2);
    }

    #[test]
    fn empty_lists() {
        let a: [u32; 0] = [];
        let b = [1u32, 2];
        assert_eq!(corank(1, &a, &b), 0);
        let c = [1u32, 2];
        let d: [u32; 0] = [];
        assert_eq!(merge_path(1, c.len(), d.len(), |i| c[i], |j| d[j]), 1);
        assert_eq!(merge_path(0, 0, 0, |_| 0u32, |_| 0u32), 0);
    }

    #[test]
    fn trace_matches_counted_search() {
        let a: Vec<u32> = (0..64).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..64).map(|x| x * 2 + 1).collect();
        for d in [0usize, 1, 17, 64, 100, 128] {
            let (i1, iters) = merge_path_counted(d, a.len(), b.len(), |i| a[i], |j| b[j]);
            let (i2, probes) = merge_path_trace(d, a.len(), b.len(), |i| a[i], |j| b[j]);
            assert_eq!(i1, i2, "d={d}");
            assert_eq!(probes.len(), iters, "d={d}");
            for &(ai, bi) in &probes {
                assert!(ai < a.len() && bi < b.len(), "d={d}");
                assert_eq!(ai + bi, d - 1, "probes sit on the diagonal, d={d}");
            }
        }
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let a: Vec<u32> = (0..1024).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..1024).map(|x| x * 2 + 1).collect();
        let (_, iters) = merge_path_counted(1024, a.len(), b.len(), |i| a[i], |j| b[j]);
        assert!(iters <= 11, "expected ≤ log2(1024)+1 iterations, got {iters}");
    }

    #[test]
    fn matches_reference_exhaustively_on_small_lists() {
        // All splits of 0..=6 elements over two lists with keys in 0..4.
        let keys = [0u32, 1, 2, 3];
        for a_len in 0..=3usize {
            for b_len in 0..=3usize {
                // Enumerate sorted lists by multisets (with repetition).
                let lists = |len: usize| -> Vec<Vec<u32>> {
                    let mut out = vec![vec![]];
                    for _ in 0..len {
                        let mut next = Vec::new();
                        for l in &out {
                            let start = l.last().copied().unwrap_or(0);
                            for &k in keys.iter().filter(|&&k| k >= start) {
                                let mut l2 = l.clone();
                                l2.push(k);
                                next.push(l2);
                            }
                        }
                        out = next;
                    }
                    out
                };
                for a in lists(a_len) {
                    for b in lists(b_len) {
                        for d in 0..=a.len() + b.len() {
                            assert_eq!(
                                corank(d, &a, &b),
                                corank_ref(d, &a, &b),
                                "a={a:?} b={b:?} d={d}"
                            );
                        }
                    }
                }
            }
        }
    }
}
