//! The "small" `E` construction (§III-A, Theorem 3): for odd
//! `3 ≤ E < w/2`, build a warp assignment aligning all `E²` window
//! elements — `E` threads hitting one bank in every one of the `E` merge
//! steps.
//!
//! The algorithm is the constructive procedure behind Lemma 2's
//! *front-to-back / back-to-front / outside-in* strategies, expressed as
//! one greedy loop with the paper's invariants:
//!
//! * the warp's `A` share is `(E+1)/2` full columns and its `B` share
//!   `(E−1)/2` full columns (each column = `E` *window* banks `[0, E)`
//!   plus `w − E` *padding* banks);
//! * whenever a list sits at the start of a fresh column (bank 0), one
//!   thread takes the whole `E`-element window of that column — a
//!   perfectly aligned column;
//! * between alignments, *filler* threads consume exactly the padding,
//!   drawing from the list with less padding remaining first. Because
//!   `w − E > E`, a fresh column's padding alone can feed a filler, which
//!   is the inequality the paper's Lemma 2 proof leans on.
//!
//! Total padding is `E·(w−E)` and the `w − E` filler threads consume
//! exactly `E` each, so the greedy terminates with all `w` threads used
//! and every window column aligned: `E · E = E²` aligned elements.

use crate::assignment::{ScanFirst, ThreadAssign, WarpAssignment};
use crate::scan_order::optimize_scan_order;

/// Is `(w, E)` a valid "small" configuration? (`w` a power of two ≥ 8,
/// odd `E` with `3 ≤ E < w/2`.)
#[must_use]
pub fn is_small_e(w: usize, e: usize) -> bool {
    w.is_power_of_two() && w >= 8 && e % 2 == 1 && e >= 3 && e < w / 2
}

/// Build the Theorem 3 worst-case warp assignment for a warp of the `L`
/// set (`A` gets the `(E+1)/2·w` share). Use
/// `WarpAssignment::swapped` for the `R` set.
///
/// # Panics
///
/// Panics if `(w, E)` is not a valid small configuration
/// (see [`is_small_e`]).
#[must_use]
pub fn construct_small_e(w: usize, e: usize) -> WarpAssignment {
    assert!(is_small_e(w, e), "small-E construction needs odd 3 <= E < w/2 (got w={w}, E={e})");
    let cols_a = e.div_ceil(2);
    let cols_b = (e - 1) / 2;
    let len_a = cols_a * w;
    let len_b = cols_b * w;

    let mut threads: Vec<ThreadAssign> = Vec::with_capacity(w);
    let (mut pa, mut pb) = (0usize, 0usize);
    let (mut aligned_a, mut aligned_b) = (0usize, 0usize);

    while pa < len_a || pb < len_b {
        assert!(threads.len() < w, "construction exceeded {w} threads (w={w}, E={e})");
        let ra = pa % w;
        let rb = pb % w;
        // A list at a fresh column: align it with one full-window thread.
        if ra == 0 && aligned_a < cols_a && len_a - pa >= e {
            threads.push(ThreadAssign { a: e, b: 0, first: ScanFirst::A });
            pa += e;
            aligned_a += 1;
            continue;
        }
        if rb == 0 && aligned_b < cols_b && len_b - pb >= e {
            threads.push(ThreadAssign { a: 0, b: e, first: ScanFirst::B });
            pb += e;
            aligned_b += 1;
            continue;
        }
        // Filler thread: consume padding, smaller-remaining list first.
        let pad_a = if ra == 0 { 0 } else { (w - ra).min(len_a - pa) };
        let pad_b = if rb == 0 { 0 } else { (w - rb).min(len_b - pb) };
        let mut need = e;
        let a_first = (pad_a > 0 && pad_a <= pad_b) || pad_b == 0;
        let (take_a, take_b) = if a_first {
            let ta = need.min(pad_a);
            need -= ta;
            let tb = need.min(pad_b);
            need -= tb;
            (ta, tb)
        } else {
            let tb = need.min(pad_b);
            need -= tb;
            let ta = need.min(pad_a);
            need -= ta;
            (ta, tb)
        };
        assert!(
            need == 0,
            "padding underflow at thread {} (w={w}, E={e}): the Lemma 2 invariant failed",
            threads.len()
        );
        pa += take_a;
        pb += take_b;
        threads.push(ThreadAssign {
            a: take_a,
            b: take_b,
            first: if a_first { ScanFirst::A } else { ScanFirst::B },
        });
    }
    assert_eq!(threads.len(), w, "construction used {} of {w} threads", threads.len());
    assert_eq!(aligned_a, cols_a);
    assert_eq!(aligned_b, cols_b);

    let mut asg = WarpAssignment { w, e, window_start: 0, threads };
    optimize_scan_order(&mut asg);
    asg
}

/// All valid small-`E` values for warp width `w`, in increasing order.
#[must_use]
pub fn small_e_values(w: usize) -> Vec<usize> {
    (3..w / 2).step_by(2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;

    /// Theorem 3: `E²` aligned elements — and the stronger per-step
    /// property that every one of the `E` steps has exactly `E` threads
    /// on the expected window bank.
    #[test]
    fn theorem3_all_small_e_up_to_w128() {
        for w in [8usize, 16, 32, 64, 128] {
            for e in small_e_values(w) {
                let asg = construct_small_e(w, e);
                asg.validate_paper_shares().unwrap_or_else(|err| panic!("w={w} E={e}: {err}"));
                let ev = evaluate(&asg).unwrap();
                assert_eq!(ev.aligned, e * e, "aligned count w={w} E={e}");
                assert_eq!(
                    ev.window_multiplicity,
                    vec![e; e],
                    "per-step window multiplicity w={w} E={e}"
                );
                // Degree is at least E in every step (the window bank has
                // E distinct addresses queued).
                assert!(ev.degrees.iter().all(|&d| d >= e), "w={w} E={e}");
            }
        }
    }

    /// The paper's headline example: Fig. 3 left, w = 16, E = 7.
    #[test]
    fn fig3_small_w16_e7() {
        let asg = construct_small_e(16, 7);
        let ev = evaluate(&asg).unwrap();
        assert_eq!(ev.aligned, 49);
        // Effective parallelism drops to ⌈w/E⌉: the merging stage costs
        // at least E per step instead of 1.
        assert!(ev.cycles() >= 7 * 7);
    }

    #[test]
    fn shares_match_paper() {
        let asg = construct_small_e(32, 15);
        assert_eq!(asg.share_a(), 8 * 32); // (E+1)/2 = 8 columns
        assert_eq!(asg.share_b(), 7 * 32); // (E−1)/2 = 7 columns
    }

    #[test]
    fn swapped_warp_same_alignment() {
        let asg = construct_small_e(32, 11);
        let ev_l = evaluate(&asg).unwrap();
        let ev_r = evaluate(&asg.swapped()).unwrap();
        assert_eq!(ev_l.aligned, ev_r.aligned);
    }

    #[test]
    fn thread_budget_is_exact() {
        for e in small_e_values(32) {
            let asg = construct_small_e(32, e);
            assert_eq!(asg.threads.len(), 32);
            // E aligned threads + (w − E) fillers.
            let full = asg.threads.iter().filter(|t| t.a == e || t.b == e).count();
            assert!(full >= e, "at least E single-list threads, E={e}");
        }
    }

    #[test]
    #[should_panic(expected = "small-E construction")]
    fn rejects_large_e() {
        let _ = construct_small_e(32, 17);
    }

    #[test]
    #[should_panic(expected = "small-E construction")]
    fn rejects_even_e() {
        let _ = construct_small_e(32, 8);
    }

    #[test]
    fn is_small_e_boundaries() {
        assert!(is_small_e(32, 15));
        assert!(is_small_e(32, 3));
        assert!(!is_small_e(32, 1)); // trivial: no conflicts possible
        assert!(!is_small_e(32, 16)); // E = w/2
        assert!(!is_small_e(32, 17)); // large case
        assert!(!is_small_e(24, 5)); // w not a power of two
    }
}
