//! Per-thread scan-order selection.
//!
//! A thread's `(a, b)` share fixes *where* its elements sit (prefix sums
//! of the warp's shares) but not which chunk it scans first. The paper's
//! constructions ensure that, for every thread, the elements inside the
//! `E` consecutive banks come from a single list, "which makes it clear
//! which list to scan first" (§III). [`optimize_scan_order`] implements
//! that rule constructively: for each thread it picks the order that
//! aligns more of its elements (ties keep `A` first). Since alignment of
//! a thread depends only on its own scan order, the per-thread greedy
//! choice is globally optimal for a fixed set of shares.

use crate::assignment::{ScanFirst, WarpAssignment};

/// Aligned-element count of a single thread under a given scan order.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's per-thread state
fn thread_aligned(
    w: usize,
    window_start: usize,
    b_base: usize,
    pa: usize,
    pb: usize,
    a: usize,
    b: usize,
    first: ScanFirst,
) -> usize {
    let mut aligned = 0usize;
    let mut j = 0usize;
    let mut count_chunk = |base: usize, start: usize, len: usize, j: &mut usize| {
        for k in 0..len {
            let bank = (base + start + k) % w;
            if bank == (window_start + *j) % w {
                aligned += 1;
            }
            *j += 1;
        }
    };
    match first {
        ScanFirst::A => {
            count_chunk(0, pa, a, &mut j);
            count_chunk(b_base, pb, b, &mut j);
        }
        ScanFirst::B => {
            count_chunk(b_base, pb, b, &mut j);
            count_chunk(0, pa, a, &mut j);
        }
    }
    aligned
}

/// Set every thread's scan order to the alignment-maximizing choice.
/// Returns the resulting total aligned count.
pub(crate) fn optimize_scan_order(asg: &mut WarpAssignment) -> usize {
    let b_base = asg.share_a().div_ceil(asg.w) * asg.w;
    let offsets = asg.thread_offsets();
    let mut total = 0usize;
    for (t, (pa, pb)) in asg.threads.iter_mut().zip(offsets) {
        let with_a =
            thread_aligned(asg.w, asg.window_start, b_base, pa, pb, t.a, t.b, ScanFirst::A);
        let with_b =
            thread_aligned(asg.w, asg.window_start, b_base, pa, pb, t.a, t.b, ScanFirst::B);
        if with_b > with_a {
            t.first = ScanFirst::B;
            total += with_b;
        } else {
            t.first = ScanFirst::A;
            total += with_a;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ThreadAssign;
    use crate::evaluate::evaluate;

    #[test]
    fn optimizer_total_matches_evaluator() {
        // Arbitrary shares; whatever the optimizer reports must equal the
        // evaluator's aligned count.
        let mut asg = WarpAssignment {
            w: 8,
            e: 5,
            window_start: 0,
            threads: vec![
                ThreadAssign { a: 5, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 3, b: 2, first: ScanFirst::A },
                ThreadAssign { a: 0, b: 5, first: ScanFirst::A },
                ThreadAssign { a: 2, b: 3, first: ScanFirst::A },
                ThreadAssign { a: 5, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 1, b: 4, first: ScanFirst::A },
                ThreadAssign { a: 4, b: 1, first: ScanFirst::A },
                ThreadAssign { a: 4, b: 1, first: ScanFirst::A },
            ],
        };
        let total = optimize_scan_order(&mut asg);
        assert_eq!(total, evaluate(&asg).unwrap().aligned);
    }

    #[test]
    fn optimizer_never_hurts() {
        let mut asg = WarpAssignment {
            w: 4,
            e: 3,
            window_start: 0,
            threads: vec![
                ThreadAssign { a: 3, b: 0, first: ScanFirst::B },
                ThreadAssign { a: 0, b: 3, first: ScanFirst::A },
                ThreadAssign { a: 2, b: 1, first: ScanFirst::B },
                ThreadAssign { a: 1, b: 2, first: ScanFirst::A },
            ],
        };
        let before = evaluate(&asg).unwrap().aligned;
        let after = optimize_scan_order(&mut asg);
        assert!(after >= before);
        assert_eq!(after, evaluate(&asg).unwrap().aligned);
    }
}
