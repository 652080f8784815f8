//! # `wcms-core` — constructive worst-case inputs for GPU merge sort
//!
//! The primary contribution of Berney & Sitchinava (IPDPS 2020),
//! implemented in full: for every `E < w` co-prime with the warp width
//! `w`, construct an input permutation on which every warp of the GPU
//! pairwise merge sort degenerates to `⌈w/E⌉`-way effective parallelism
//! through shared-memory bank conflicts.
//!
//! * [`numtheory`] — gcd/inverse/congruence facts (Facts 5–6, Lemma 4);
//! * [`assignment`] — per-warp thread shares, the constructions' output;
//! * [`small_e`] — the `E < w/2` construction (Lemma 2 / Theorem 3,
//!   `E²` aligned elements);
//! * [`sequence`] — the `xᵢ/yᵢ` congruence sequences and the `S`, `T`
//!   tuple sequences (Lemmas 7–8);
//! * [`large_e`] — the `w/2 < E < w` construction (Theorem 9);
//! * [`sorted_case`] — the `gcd(w, E) = d > 1` analysis where sorted
//!   order itself aligns every `d`-th column (Fig. 1);
//! * [`mod@evaluate`] — exact DMM evaluation of an assignment's merging
//!   stage;
//! * `scan_order` — per-thread scan-order selection;
//! * [`lemma1`] — the pigeonhole worst-case bound and its witness;
//! * [`lemma2`] — the front-to-back / back-to-front / outside-in
//!   alignment strategies as explicit composable steps;
//! * `builder` — the *unmerge* composition turning per-round warp
//!   assignments into a full `N`-element input permutation;
//! * `family` — an iterator over the worst-case permutation family
//!   (Conclusion, point 2);
//! * `conflict_heavy` — a Karsin-style heuristic baseline adversary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub(crate) mod builder;
pub(crate) mod conflict_heavy;
pub mod evaluate;
pub(crate) mod family;
pub mod large_e;
pub mod lemma1;
pub mod lemma2;
pub mod numtheory;
pub(crate) mod scan_order;
pub mod sequence;
pub mod small_e;
pub mod sorted_case;

pub use assignment::{ScanFirst, WarpAssignment};
pub use builder::WorstCaseBuilder;
pub use evaluate::{access_matrix, evaluate};
pub use family::WorstCaseFamily;
pub(crate) use large_e::construct_large_e;
pub(crate) use small_e::construct_small_e;
pub(crate) use wcms_error::WcmsError;

/// Construct the worst-case warp assignment for any odd `E` co-prime with
/// `w` (`3 ≤ E < w`, `E ≠ w/2`): dispatches to the small- or large-`E`
/// construction.
///
/// ```
/// use wcms_core::{construct, evaluate, theorem_aligned_count};
///
/// // Thrust's E = 15 on 32 banks: all E² = 225 window elements align,
/// // so every merge step is a 15-way bank conflict.
/// let asg = construct(32, 15)?;
/// let ev = evaluate(&asg)?;
/// assert_eq!(ev.aligned, 225);
/// assert_eq!(ev.aligned, theorem_aligned_count(32, 15)?);
/// assert!(ev.degrees.iter().all(|&d| d >= 15));
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
///
/// # Errors
///
/// Returns [`WcmsError::NonCoprime`] if `E` is even, `E < 3`, or
/// `E ≥ w` — no worst-case construction exists for such parameters.
pub fn construct(w: usize, e: usize) -> Result<WarpAssignment, WcmsError> {
    if small_e::is_small_e(w, e) {
        Ok(construct_small_e(w, e))
    } else if large_e::is_large_e(w, e) {
        Ok(construct_large_e(w, e))
    } else {
        Err(WcmsError::NonCoprime { w, e })
    }
}

/// The aligned-element count the paper proves for `(w, E)`:
/// `E²` for small `E` (Theorem 3) and
/// `(E² + E + 2Er − r² − r)/2` with `r = w − E` for large `E`
/// (Theorem 9).
///
/// # Errors
///
/// Returns [`WcmsError::NonCoprime`] if neither theorem covers
/// `(w, E)`.
pub fn theorem_aligned_count(w: usize, e: usize) -> Result<usize, WcmsError> {
    if small_e::is_small_e(w, e) {
        Ok(e * e)
    } else if large_e::is_large_e(w, e) {
        let r = w - e;
        Ok((e * e + e + 2 * e * r - r * r - r) / 2)
    } else {
        Err(WcmsError::NonCoprime { w, e })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_dispatches() {
        assert_eq!(construct(32, 7).unwrap().window_start, 0);
        assert_eq!(construct(32, 17).unwrap().window_start, 15);
    }

    #[test]
    fn construct_rejects_even() {
        let err = construct(32, 6).unwrap_err();
        assert!(matches!(err, WcmsError::NonCoprime { w: 32, e: 6 }), "{err}");
        assert!(construct(32, 32).is_err());
        assert!(construct(32, 1).is_err());
    }

    #[test]
    fn theorem_counts_at_the_papers_corner_cases() {
        // §III-B: for E = w/2 + 1 (r = E − 2) the bound is E² − 1.
        let w = 32;
        let e = 17;
        assert_eq!(theorem_aligned_count(w, e).unwrap(), e * e - 1);
        // For E = w − 1 (r = 1) the bound is E²/2 + 3E/2 − 1
        // (paper: ½E² + 3/2·E − 1).
        let e = 31;
        assert_eq!(theorem_aligned_count(w, e).unwrap(), (e * e + 3 * e) / 2 - 1);
        assert!(theorem_aligned_count(32, 6).is_err());
    }
}
