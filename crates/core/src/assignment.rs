//! Per-warp thread assignments — the object the paper's constructions
//! produce.
//!
//! A [`WarpAssignment`] says, for each of the `w` threads of a warp
//! merging its `wE`-element window of two sorted lists `A` and `B`, how
//! many of its `E` merged elements come from `A` (`a`), how many from `B`
//! (`b = E − a`), and which list it scans first. Together with the rule
//! that a thread scans one whole list chunk and then the other (§III:
//! "every thread performs a scan of one list then the other list"), this
//! determines the warp's entire shared-memory access pattern — and, run
//! through `crate::builder`, the actual input permutation.

use serde::{Deserialize, Serialize};
use wcms_error::WcmsError;

/// Which list a thread scans first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScanFirst {
    /// Scan the `A` chunk, then the `B` chunk.
    A,
    /// Scan the `B` chunk, then the `A` chunk.
    B,
}

impl ScanFirst {
    /// The opposite order.
    #[must_use]
    fn flipped(self) -> Self {
        match self {
            ScanFirst::A => ScanFirst::B,
            ScanFirst::B => ScanFirst::A,
        }
    }
}

/// One thread's share of a merge round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ThreadAssign {
    /// Elements taken from list `A`.
    pub a: usize,
    /// Elements taken from list `B`.
    pub b: usize,
    /// Scan order.
    pub first: ScanFirst,
}

impl ThreadAssign {
    /// Total elements merged by the thread (must equal `E`).
    #[must_use]
    pub(crate) fn total(&self) -> usize {
        self.a + self.b
    }

    /// The thread with `A` and `B` roles exchanged.
    #[must_use]
    pub(crate) fn swapped(&self) -> Self {
        Self { a: self.b, b: self.a, first: self.first.flipped() }
    }
}

/// A full warp's assignment for one merge round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpAssignment {
    /// Warp width `w` (= number of banks).
    pub w: usize,
    /// Elements per thread `E`.
    pub e: usize,
    /// Start bank `s` of the `E` consecutive banks the construction
    /// aligns to (0 in the small-`E` case, `r = w − E` in the large-`E`
    /// case).
    pub window_start: usize,
    /// Per-thread shares, `threads.len() == w`.
    pub threads: Vec<ThreadAssign>,
}

impl WarpAssignment {
    /// Total elements taken from `A` across the warp.
    #[must_use]
    pub(crate) fn share_a(&self) -> usize {
        self.threads.iter().map(|t| t.a).sum()
    }

    /// Total elements taken from `B` across the warp.
    #[must_use]
    pub(crate) fn share_b(&self) -> usize {
        self.threads.iter().map(|t| t.b).sum()
    }

    /// The symmetric assignment used for warps in the paper's set `R`
    /// (`A` and `B` exchanged).
    #[must_use]
    pub(crate) fn swapped(&self) -> Self {
        Self {
            w: self.w,
            e: self.e,
            window_start: self.window_start,
            threads: self.threads.iter().map(ThreadAssign::swapped).collect(),
        }
    }

    /// Structural validation: `w` threads, each merging exactly `E`
    /// elements, shares adding to `wE`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidAssignment`] describing the first
    /// violated invariant.
    pub(crate) fn validate(&self) -> Result<(), WcmsError> {
        let fail = |reason: String| Err(WcmsError::InvalidAssignment { reason });
        if self.threads.len() != self.w {
            return fail(format!("expected {} threads, found {}", self.w, self.threads.len()));
        }
        if self.window_start >= self.w {
            return fail(format!("window start {} out of {} banks", self.window_start, self.w));
        }
        for (i, t) in self.threads.iter().enumerate() {
            if t.total() != self.e {
                return fail(format!(
                    "thread {i} merges {} elements, expected E={}",
                    t.total(),
                    self.e
                ));
            }
        }
        if self.share_a() + self.share_b() != self.w * self.e {
            return fail("shares do not cover the warp's wE elements".into());
        }
        Ok(())
    }

    /// Validation for the paper's warp shares: one list contributes
    /// `(E+1)/2·w` elements and the other `(E−1)/2·w` (§III "General
    /// Strategy"). Requires odd `E`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::InvalidAssignment`] describing the violated
    /// invariant.
    pub fn validate_paper_shares(&self) -> Result<(), WcmsError> {
        self.validate()?;
        let fail = |reason: String| Err(WcmsError::InvalidAssignment { reason });
        if self.e.is_multiple_of(2) {
            return fail("paper shares require odd E".into());
        }
        let hi = self.e.div_ceil(2) * self.w;
        let lo = (self.e - 1) / 2 * self.w;
        let (sa, sb) = (self.share_a(), self.share_b());
        if (sa, sb) != (hi, lo) && (sa, sb) != (lo, hi) {
            return fail(format!(
                "shares ({sa}, {sb}) are not the paper's ({hi}, {lo}) in either order"
            ));
        }
        Ok(())
    }

    /// Per-thread start offsets `(a_start, b_start)` within the warp's
    /// `A` and `B` segments (prefix sums of the shares).
    #[must_use]
    pub fn thread_offsets(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.threads.len());
        let (mut pa, mut pb) = (0usize, 0usize);
        for t in &self.threads {
            out.push((pa, pb));
            pa += t.a;
            pb += t.b;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_assignment(w: usize, e: usize) -> WarpAssignment {
        // All threads read from A (a fully-sorted round for this warp).
        WarpAssignment {
            w,
            e,
            window_start: 0,
            threads: vec![ThreadAssign { a: e, b: 0, first: ScanFirst::A }; w],
        }
    }

    #[test]
    fn shares_and_offsets() {
        let mut asg = sorted_assignment(4, 3);
        asg.threads[1] = ThreadAssign { a: 1, b: 2, first: ScanFirst::B };
        assert_eq!(asg.share_a(), 3 + 1 + 3 + 3);
        assert_eq!(asg.share_b(), 2);
        assert_eq!(asg.thread_offsets(), vec![(0, 0), (3, 0), (4, 2), (7, 2)]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(sorted_assignment(32, 15).validate().is_ok());
    }

    #[test]
    fn validate_rejects_wrong_thread_count() {
        let mut asg = sorted_assignment(32, 15);
        asg.threads.pop();
        assert!(asg.validate().unwrap_err().to_string().contains("32 threads"));
    }

    #[test]
    fn validate_rejects_wrong_thread_total() {
        let mut asg = sorted_assignment(8, 5);
        asg.threads[3].a = 4; // total 4 ≠ 5
        assert!(asg.validate().unwrap_err().to_string().contains("thread 3"));
    }

    #[test]
    fn validate_rejects_bad_window() {
        let mut asg = sorted_assignment(8, 5);
        asg.window_start = 8;
        assert!(asg.validate().is_err());
    }

    #[test]
    fn paper_shares_check() {
        let w = 16;
        let e = 5;
        // 3 threads with 5 from A … craft shares (E+1)/2·w = 48 from A.
        let mut threads = Vec::new();
        for i in 0..w {
            if i < 48 / e {
                threads.push(ThreadAssign { a: 5, b: 0, first: ScanFirst::A });
            } else if i == 48 / e {
                threads.push(ThreadAssign { a: 3, b: 2, first: ScanFirst::A });
            } else {
                threads.push(ThreadAssign { a: 0, b: 5, first: ScanFirst::B });
            }
        }
        let asg = WarpAssignment { w, e, window_start: 0, threads };
        asg.validate_paper_shares().unwrap();
        // Swapped shares also valid (the R warps).
        asg.swapped().validate_paper_shares().unwrap();
        // All-A shares are not the paper's.
        assert!(sorted_assignment(16, 5).validate_paper_shares().is_err());
    }

    #[test]
    fn swap_is_involutive() {
        let asg = sorted_assignment(8, 3);
        assert_eq!(asg.swapped().swapped(), asg);
        assert_eq!(asg.swapped().share_b(), asg.share_a());
    }
}
