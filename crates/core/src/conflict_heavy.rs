//! A Karsin-style *conflict-heavy* heuristic baseline (§II-C).
//!
//! Karsin et al. (ICS 2018) hand-crafted inputs causing "a large number"
//! of bank conflicts for two specific parameter configurations, without a
//! worst-case guarantee. This module provides a comparable heuristic:
//! give every thread the same split `(s, E−s)` with a power-of-two `s`,
//! so each thread's `A` chunk starts at a multiple of `s` — the warp's
//! first `s` scan steps land on only `w/gcd(w, s)` banks, a
//! `gcd(w, s)`-way conflict. The remaining `E−s` steps (odd stride) are
//! conflict-light, so the heuristic reaches roughly
//! `β₂ ≈ (s·gcd(w,s) + (E−s))/E` — markedly worse than random, but
//! provably short of the paper's construction: exactly the gap the paper
//! closes.

use crate::assignment::{ScanFirst, ThreadAssign, WarpAssignment};

/// Build the heuristic conflict-heavy warp assignment: every thread takes
/// `stride` elements from `A` then `E − stride` from `B`. Use a
/// power-of-two `stride` for maximal collisions (`gcd(w, stride)`-way).
/// The `R` warps use the swapped assignment, balancing block shares.
///
/// # Panics
///
/// Panics if `stride` is 0 or ≥ `E`.
#[must_use]
pub(crate) fn conflict_heavy_warp(w: usize, e: usize, stride: usize) -> WarpAssignment {
    assert!(stride >= 1 && stride < e, "stride must be in [1, E)");
    let threads =
        (0..w).map(|_| ThreadAssign { a: stride, b: e - stride, first: ScanFirst::A }).collect();
    WarpAssignment { w, e, window_start: 0, threads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::numtheory::gcd;
    use crate::sorted_case::sorted_warp;
    use crate::{construct, theorem_aligned_count};

    #[test]
    fn heavier_than_sorted_lighter_than_construction() {
        // The stride is the largest power of two ≤ min(E−1, w/4).
        for (e, s) in [(7usize, 4usize), (15, 8), (17, 8)] {
            let w = 32;
            let sorted = evaluate(&sorted_warp(w, e)).unwrap().cycles();
            let heavy = evaluate(&conflict_heavy_warp(w, e, s)).unwrap().cycles();
            let worst = evaluate(&construct(w, e).unwrap()).unwrap().cycles();
            assert!(heavy > sorted, "E={e}: heavy {heavy} <= sorted {sorted}");
            assert!(worst > heavy, "E={e}: construction {worst} <= heavy {heavy}");
            assert!(worst >= theorem_aligned_count(w, e).unwrap(), "E={e}");
        }
    }

    /// The stride mechanism: the first `stride` steps collide
    /// `gcd(w, stride)`-ways.
    #[test]
    fn stride_steps_collide_gcd_ways() {
        let (w, e, s) = (32usize, 15usize, 8usize);
        let ev = evaluate(&conflict_heavy_warp(w, e, s)).unwrap();
        let expected = gcd(w as u64, s as u64) as usize;
        for (j, &d) in ev.degrees.iter().take(s).enumerate() {
            assert_eq!(d, expected, "step {j}");
        }
        // The B phase is conflict-light (odd stride).
        assert!(ev.degrees[s..].iter().all(|&d| d <= 2), "{:?}", ev.degrees);
    }

    #[test]
    fn valid_warp_structure() {
        for s in [1usize, 2, 4, 8] {
            let asg = conflict_heavy_warp(32, 15, s);
            asg.validate().unwrap();
            assert_eq!(asg.share_a(), 32 * s);
            assert_eq!(asg.share_b(), 32 * (15 - s));
            // Swapped warps balance a block.
            assert_eq!(asg.share_a() + asg.swapped().share_a(), 32 * 15);
        }
    }

    #[test]
    #[should_panic(expected = "stride must be")]
    fn rejects_stride_e() {
        let _ = conflict_heavy_warp(32, 15, 15);
    }
}
