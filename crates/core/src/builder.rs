//! From per-warp assignments to a full `N`-element input permutation.
//!
//! The paper's constructions fix, for one merge round, how each thread's
//! `E` merged elements split between the two lists. The experiments,
//! however, sort whole arrays — so the adversarial interleaving must hold
//! at *every* global merge round. This module composes rounds by running
//! the merge tree **backwards** from the sorted output ("unmerge"):
//!
//! * the final sorted array is the root segment (ranks `0 … N−1`);
//! * at each round, every merged segment is split into its `A` (left
//!   child) and `B` (right child) lists according to the block
//!   interleaving derived from the warp assignments — each thread block's
//!   `bE` ranks contribute exactly `bE/2` to each list (§III "General
//!   Strategy"), each `L`-warp `(E+1)/2·w` to `A`, each `R`-warp the
//!   mirror image;
//! * the leaves are the base-case blocks of `bE` elements, whose internal
//!   order is free (the base case sorts them regardless); we emit them in
//!   ascending order, or seeded-shuffled for the *family* variant
//!   (Conclusion, point 2).
//!
//! Because all keys are distinct (`0 … N−1`), the simulated sort's Merge
//! Path partitioning recovers exactly these splits, so the warp-level
//! access pattern at every global round is exactly the constructed one.

use wcms_error::WcmsError;

use crate::assignment::{ScanFirst, WarpAssignment};
use crate::conflict_heavy::conflict_heavy_warp;
use crate::construct;

/// Builds adversarial input permutations for the pairwise merge sort with
/// parameters `(w, E, b)`.
///
/// ```
/// use wcms_core::WorstCaseBuilder;
///
/// let builder = WorstCaseBuilder::new(32, 15, 512)?;
/// let n = builder.block_elems() * 4; // sizes must be bE·2^m
/// let input = builder.build(n)?;
/// // A permutation of 0..n, adversarial at every global merge round.
/// let mut sorted = input.clone();
/// sorted.sort_unstable();
/// assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as u32));
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorstCaseBuilder {
    e: usize,
    b: usize,
    /// Per-rank flag over one block window: `true` → the rank goes to the
    /// `A` (left) list.
    pattern: Vec<bool>,
}

impl WorstCaseBuilder {
    /// Builder from an explicit `L`-warp assignment (the `R` warps use
    /// its mirror image). `b` must be a power of two with at least two
    /// warps, and the block's shares must balance to `bE/2` per list.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidBlock`] when the geometry is
    /// inconsistent and [`WcmsError::InvalidAssignment`] when the
    /// assignment or its shares are.
    fn from_assignment(b: usize, l_asg: &WarpAssignment) -> Result<Self, WcmsError> {
        let (w, e) = (l_asg.w, l_asg.e);
        if !b.is_power_of_two() {
            return Err(WcmsError::InvalidBlock {
                b,
                w,
                reason: "b must be a power of two".into(),
            });
        }
        if b < 2 * w {
            return Err(WcmsError::InvalidBlock {
                b,
                w,
                reason: "need at least two warps per block (b >= 2w)".into(),
            });
        }
        l_asg.validate()?;
        let r_asg = l_asg.swapped();

        let warps = b / w;
        let mut pattern = Vec::with_capacity(b * e);
        for v in 0..warps {
            let asg = if v < warps / 2 { l_asg } else { &r_asg };
            for t in &asg.threads {
                let (first_len, first_is_a) = match t.first {
                    ScanFirst::A => (t.a, true),
                    ScanFirst::B => (t.b, false),
                };
                for k in 0..e {
                    pattern.push(if k < first_len { first_is_a } else { !first_is_a });
                }
            }
        }
        let to_a = pattern.iter().filter(|&&x| x).count();
        if to_a != b * e / 2 {
            return Err(WcmsError::InvalidAssignment {
                reason: format!(
                    "block shares must balance to bE/2 = {} per list, found {to_a}",
                    b * e / 2
                ),
            });
        }
        Ok(Self { e, b, pattern })
    }

    /// The paper's worst-case builder for co-prime odd `3 ≤ E < w`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::NonCoprime`] when no construction covers
    /// `(w, E)` and [`WcmsError::InvalidBlock`] when `b` is inconsistent.
    pub fn new(w: usize, e: usize, b: usize) -> Result<Self, WcmsError> {
        Self::from_assignment(b, &construct(w, e)?)
    }

    /// A Karsin-style conflict-heavy baseline builder
    /// (see `crate::conflict_heavy`): every thread takes `stride`
    /// elements from one list (power-of-two strides collide
    /// `gcd(w, stride)`-ways), the rest from the other.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidBlock`] or
    /// [`WcmsError::InvalidAssignment`] when the geometry is
    /// inconsistent.
    pub fn conflict_heavy(w: usize, e: usize, b: usize, stride: usize) -> Result<Self, WcmsError> {
        Self::from_assignment(b, &conflict_heavy_warp(w, e, stride))
    }

    /// Elements per block tile (`bE`).
    #[must_use]
    pub fn block_elems(&self) -> usize {
        self.b * self.e
    }

    /// True if `n` is a size the merge-sort structure supports:
    /// `n = bE · 2^m`.
    #[must_use]
    pub fn valid_len(&self, n: usize) -> bool {
        let be = self.block_elems();
        n >= be && n.is_multiple_of(be) && (n / be).is_power_of_two()
    }

    /// The smallest valid size ≥ `n`.
    #[must_use]
    pub fn next_valid_len(&self, n: usize) -> usize {
        let be = self.block_elems();
        let blocks = n.div_ceil(be).max(1);
        be * blocks.next_power_of_two()
    }

    /// Build the worst-case permutation of `0 … n−1`, adversarial at
    /// every global merge round. Base-block contents are deterministically
    /// shuffled (seed 0) so the base case behaves like it does on random
    /// inputs — leaving the global rounds' conflicts as the only
    /// difference, as in the paper's comparison.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidLength`] if `n` is not a
    /// [valid length](Self::valid_len) or exceeds `u32` range.
    pub fn build(&self, n: usize) -> Result<Vec<u32>, WcmsError> {
        self.build_inner(n, Some(0), usize::MAX)
    }

    /// As [`WorstCaseBuilder::build`], but with every base block emitted
    /// in ascending order — a conflict-free base case. Useful for
    /// isolating the global rounds in analyses.
    ///
    /// # Errors
    ///
    /// As [`WorstCaseBuilder::build`].
    pub fn build_sorted_base(&self, n: usize) -> Result<Vec<u32>, WcmsError> {
        self.build_inner(n, None, usize::MAX)
    }

    /// The *family* variant (paper Conclusion, point 2): same conflict
    /// behaviour at every global round, but each base block's internal
    /// order is shuffled by `seed`, yielding distinct permutations.
    ///
    /// # Errors
    ///
    /// As [`WorstCaseBuilder::build`].
    pub fn build_family_member(&self, n: usize, seed: u64) -> Result<Vec<u32>, WcmsError> {
        self.build_inner(n, Some(seed), usize::MAX)
    }

    /// Near-worst-case variant (Conclusion, point 3): only the *last*
    /// `adversarial_rounds` global rounds use the adversarial
    /// interleaving; earlier rounds split sorted (conflict-light). Base
    /// blocks are emitted ascending, so with 0 adversarial rounds this
    /// degenerates to a fully sorted array.
    ///
    /// # Errors
    ///
    /// As [`WorstCaseBuilder::build`].
    pub fn build_partial(
        &self,
        n: usize,
        adversarial_rounds: usize,
    ) -> Result<Vec<u32>, WcmsError> {
        self.build_inner(n, None, adversarial_rounds)
    }

    fn build_inner(
        &self,
        n: usize,
        seed: Option<u64>,
        adversarial_rounds: usize,
    ) -> Result<Vec<u32>, WcmsError> {
        if !self.valid_len(n) || n > u32::MAX as usize {
            return Err(WcmsError::InvalidLength { n, block_elems: self.block_elems() });
        }
        let be = self.block_elems();
        let rounds = (n / be).trailing_zeros() as usize;

        let mut segments: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
        // Walk rounds from the last (largest) down to the first.
        for round in (1..=rounds).rev() {
            // Rounds are numbered 1..=rounds in execution order; the
            // adversarial window covers the last `adversarial_rounds` of
            // them … and since every round's merge structure is
            // identical, "last k" vs "first k" only matters for partial
            // builds: we adversarialize the *latest* (largest, most
            // expensive) rounds.
            let adversarial = rounds - round < adversarial_rounds;
            let mut next = Vec::with_capacity(segments.len() * 2);
            for seg in &segments {
                let (a, b) = self.split_segment(seg, adversarial);
                next.push(a);
                next.push(b);
            }
            segments = next;
        }

        let mut out = Vec::with_capacity(n);
        for (i, seg) in segments.iter().enumerate() {
            debug_assert_eq!(seg.len(), be);
            match seed {
                None => out.extend_from_slice(seg),
                Some(s) => {
                    let mut block = seg.clone();
                    shuffle(&mut block, s ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    out.extend_from_slice(&block);
                }
            }
        }
        Ok(out)
    }

    /// Split a merged segment into its two input lists.
    fn split_segment(&self, seg: &[u32], adversarial: bool) -> (Vec<u32>, Vec<u32>) {
        let half = seg.len() / 2;
        let mut a = Vec::with_capacity(half);
        let mut b = Vec::with_capacity(half);
        if adversarial {
            let be = self.block_elems();
            for (idx, &v) in seg.iter().enumerate() {
                if self.pattern[idx % be] {
                    a.push(v);
                } else {
                    b.push(v);
                }
            }
        } else {
            a.extend_from_slice(&seg[..half]);
            b.extend_from_slice(&seg[half..]);
        }
        debug_assert_eq!(a.len(), half);
        (a, b)
    }
}

/// Deterministic Fisher–Yates with an inline SplitMix64 (keeps `rand` out
/// of the core crate's dependency set).
fn shuffle(xs: &mut [u32], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..xs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_builder() -> WorstCaseBuilder {
        // w = 8, E = 3, b = 16 → block of 48 elements, 2 warps.
        WorstCaseBuilder::new(8, 3, 16).unwrap()
    }

    #[test]
    fn build_is_a_permutation() {
        let builder = tiny_builder();
        let n = builder.block_elems() * 8;
        let input = builder.build(n).unwrap();
        assert_eq!(input.len(), n);
        let mut sorted = input.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn single_block_sorted_base_is_identity() {
        let builder = tiny_builder();
        let n = builder.block_elems();
        // No global rounds: with a sorted base, the input is ascending.
        let input = builder.build_sorted_base(n).unwrap();
        assert!(input.windows(2).all(|w| w[0] < w[1]));
        // The default build shuffles base blocks deterministically.
        let shuffled = builder.build(n).unwrap();
        assert!(!shuffled.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(builder.build(n).unwrap(), shuffled);
    }

    #[test]
    fn valid_len_arithmetic() {
        let builder = tiny_builder();
        let be = builder.block_elems();
        assert!(builder.valid_len(be));
        assert!(builder.valid_len(be * 2));
        assert!(builder.valid_len(be * 8));
        assert!(!builder.valid_len(be * 3));
        assert!(!builder.valid_len(be + 1));
        assert!(!builder.valid_len(0));
        assert_eq!(builder.next_valid_len(be * 3), be * 4);
        assert_eq!(builder.next_valid_len(1), be);
    }

    #[test]
    fn split_respects_block_interleaving() {
        let builder = tiny_builder();
        let n = builder.block_elems() * 2;
        let seg: Vec<u32> = (0..n as u32).collect();
        let (a, b) = builder.split_segment(&seg, true);
        assert_eq!(a.len(), b.len());
        // Both halves are strictly ascending subsequences.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // Every block window contributes bE/2 to each list.
        let be = builder.block_elems();
        let in_first_block = a.iter().filter(|&&v| (v as usize) < be).count();
        assert_eq!(in_first_block, be / 2);
    }

    #[test]
    fn family_members_differ_but_are_permutations() {
        let builder = tiny_builder();
        let n = builder.block_elems() * 4;
        let m0 = builder.build_family_member(n, 1).unwrap();
        let m1 = builder.build_family_member(n, 2).unwrap();
        assert_ne!(m0, m1);
        for m in [&m0, &m1] {
            let mut s = (*m).clone();
            s.sort_unstable();
            assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    }

    #[test]
    fn partial_zero_rounds_is_sorted() {
        let builder = tiny_builder();
        let n = builder.block_elems() * 4;
        let input = builder.build_partial(n, 0).unwrap();
        assert!(input.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partial_full_rounds_equals_sorted_base_build() {
        let builder = tiny_builder();
        let n = builder.block_elems() * 4;
        assert_eq!(builder.build_partial(n, 2).unwrap(), builder.build_sorted_base(n).unwrap());
        assert_eq!(builder.build_partial(n, 99).unwrap(), builder.build_sorted_base(n).unwrap());
    }

    #[test]
    fn conflict_heavy_builder_builds_permutations() {
        let builder = WorstCaseBuilder::conflict_heavy(8, 3, 16, 2).unwrap();
        let n = builder.block_elems() * 4;
        let input = builder.build(n).unwrap();
        let mut s = input.clone();
        s.sort_unstable();
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn build_rejects_bad_length() {
        let builder = tiny_builder();
        let err = builder.build(builder.block_elems() * 3).unwrap_err();
        assert!(matches!(err, wcms_error::WcmsError::InvalidLength { .. }), "{err}");
    }

    #[test]
    fn rejects_single_warp_blocks() {
        let err = WorstCaseBuilder::new(8, 3, 8).unwrap_err();
        assert!(err.to_string().contains("b >= 2w"), "{err}");
    }

    #[test]
    fn pattern_length_is_block_elems() {
        let builder = WorstCaseBuilder::new(32, 15, 128).unwrap();
        assert_eq!(builder.pattern.len(), 128 * 15);
        assert_eq!(builder.block_elems(), 1920);
    }
}
