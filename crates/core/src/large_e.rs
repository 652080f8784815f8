//! The "large" `E` construction (§III-B, Theorem 9): for odd
//! `w/2 < E < w`, align `½(E² + E + 2Er − r² − r)` elements, where
//! `r = w − E`.
//!
//! Elements are aligned to the *last* `E` banks (`s = r`), so each column
//! of a list is `r` padding banks followed by `E` window banks. The tuple
//! sequence `T` ([`crate::sequence::t_sequence`]) assigns each thread its
//! `(a, b)` share: full-column `(E, 0)` / `(0, E)` tuples land exactly on
//! window starts (perfectly aligned columns, `r + 1` of them), while the
//! `S`-pairs burn padding in chunks that sum to `r` — except the
//! `E − r − 1` places where consecutive sums reach `w` and part of a
//! column is unavoidably misaligned (Lemma 8).

use crate::assignment::{ScanFirst, ThreadAssign, WarpAssignment};
use crate::scan_order::optimize_scan_order;
use crate::sequence::t_sequence;

/// Is `(w, E)` a valid "large" configuration? (`w` a power of two ≥ 8,
/// odd `E` with `w/2 < E < w`.)
#[must_use]
pub fn is_large_e(w: usize, e: usize) -> bool {
    w.is_power_of_two() && w >= 8 && e % 2 == 1 && e > w / 2 && e < w
}

/// Build the Theorem 9 worst-case warp assignment for a warp of the `L`
/// set. Use `WarpAssignment::swapped` for the `R` set.
///
/// # Panics
///
/// Panics if `(w, E)` is not a valid large configuration
/// (see [`is_large_e`]).
#[must_use]
pub fn construct_large_e(w: usize, e: usize) -> WarpAssignment {
    assert!(is_large_e(w, e), "large-E construction needs odd w/2 < E < w (got w={w}, E={e})");
    let r = w - e;
    let threads: Vec<ThreadAssign> = t_sequence(e, r)
        .into_iter()
        .map(|(a, b)| ThreadAssign { a, b, first: ScanFirst::A })
        .collect();
    debug_assert_eq!(threads.len(), w);
    let mut asg = WarpAssignment { w, e, window_start: r, threads };
    optimize_scan_order(&mut asg);
    asg
}

/// All valid large-`E` values for warp width `w`, in increasing order.
#[must_use]
pub fn large_e_values(w: usize) -> Vec<usize> {
    (w / 2 + 1..w).step_by(2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::theorem_aligned_count;

    /// Theorem 9: the construction aligns exactly
    /// `½(E² + E + 2Er − r² − r)` elements (measured empirically to be an
    /// equality for every configuration up to w = 128), within the `E²`
    /// window capacity.
    #[test]
    fn theorem9_all_large_e_up_to_w128() {
        for w in [8usize, 16, 32, 64, 128] {
            for e in large_e_values(w) {
                let asg = construct_large_e(w, e);
                asg.validate_paper_shares().unwrap_or_else(|err| panic!("w={w} E={e}: {err}"));
                let ev = evaluate(&asg).unwrap();
                let bound = theorem_aligned_count(w, e).unwrap();
                assert_eq!(ev.aligned, bound, "aligned count w={w} E={e}");
                assert!(ev.aligned <= e * e, "w={w} E={e}: aligned beyond window capacity");
                // Θ(E²) loss of parallelism: at least bound cycles.
                assert!(ev.cycles() >= bound, "w={w} E={e}");
            }
        }
    }

    /// The paper's Fig. 3 right example: w = 16, E = 9 (r = 7) —
    /// ½(81 + 9 + 126 − 49 − 7) = 80 aligned elements.
    #[test]
    fn fig3_large_w16_e9() {
        assert_eq!(theorem_aligned_count(16, 9).unwrap(), 80);
        let ev = evaluate(&construct_large_e(16, 9)).unwrap();
        assert!(ev.aligned >= 80, "aligned {}", ev.aligned);
    }

    /// The r + 1 full-column threads are perfectly placed: each
    /// single-list thread starts exactly at a window boundary.
    #[test]
    fn full_column_threads_start_on_window() {
        for (w, e) in [(32usize, 17usize), (32, 31), (64, 33), (16, 9)] {
            let asg = construct_large_e(w, e);
            let r = w - e;
            let offsets = asg.thread_offsets();
            let mut full_cols = 0usize;
            for (t, (pa, pb)) in asg.threads.iter().zip(offsets) {
                if t.a == e && t.b == 0 {
                    assert_eq!(pa % w, r, "w={w} E={e}: A column start");
                    full_cols += 1;
                } else if t.b == e && t.a == 0 {
                    assert_eq!(pb % w, r, "w={w} E={e}: B column start");
                    full_cols += 1;
                }
            }
            assert_eq!(full_cols, r + 1, "w={w} E={e}");
        }
    }

    #[test]
    fn swapped_warp_same_alignment() {
        let asg = construct_large_e(32, 19);
        assert_eq!(evaluate(&asg).unwrap().aligned, evaluate(&asg.swapped()).unwrap().aligned);
    }

    #[test]
    #[should_panic(expected = "large-E construction")]
    fn rejects_small_e() {
        let _ = construct_large_e(32, 7);
    }

    #[test]
    fn is_large_e_boundaries() {
        assert!(is_large_e(32, 17));
        assert!(is_large_e(32, 31));
        assert!(!is_large_e(32, 15));
        assert!(!is_large_e(32, 33));
        assert!(!is_large_e(32, 18));
    }
}
