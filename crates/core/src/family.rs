//! The worst-case *family* (paper Conclusion, point 2): "our construction
//! can actually produce a family of permutations, as many of the elements
//! in the non-aligned `w − E` memory banks can be permuted without
//! affecting the total number of bank conflicts."
//!
//! [`WorstCaseFamily`] is an iterator over distinct members of that
//! family for fixed `(w, E, b, N)` — each a different permutation with
//! identical global-round conflict behaviour (verified by the
//! `family_members_share_global_beta2` integration test).

use crate::builder::WorstCaseBuilder;
use wcms_error::WcmsError;

/// Iterator over distinct worst-case permutations.
#[derive(Debug, Clone)]
pub struct WorstCaseFamily {
    builder: WorstCaseBuilder,
    n: usize,
    next_seed: u64,
}

impl WorstCaseFamily {
    /// Family for sort parameters `(w, E, b)` at size `n` (`bE·2^m`),
    /// starting from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::NonCoprime`] / [`WcmsError::InvalidBlock`]
    /// for bad geometry and [`WcmsError::InvalidLength`] if `n` is not
    /// `bE·2^m`.
    pub fn new(w: usize, e: usize, b: usize, n: usize, seed: u64) -> Result<Self, WcmsError> {
        let builder = WorstCaseBuilder::new(w, e, b)?;
        if !builder.valid_len(n) {
            return Err(WcmsError::InvalidLength { n, block_elems: builder.block_elems() });
        }
        Ok(Self { builder, n, next_seed: seed })
    }
}

impl Iterator for WorstCaseFamily {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        let member = self.builder.build_family_member(self.n, self.next_seed).ok()?;
        self.next_seed = self.next_seed.wrapping_add(1);
        Some(member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_distinct_permutations() {
        let mut family = WorstCaseFamily::new(8, 3, 16, 48 * 4, 0).unwrap();
        let a = family.next().unwrap();
        let b = family.next().unwrap();
        let c = family.next().unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        for m in [a, b, c] {
            let mut s = m.clone();
            s.sort_unstable();
            assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    }

    #[test]
    fn family_is_infinite_and_seeded() {
        let family = WorstCaseFamily::new(8, 3, 16, 48, 7).unwrap();
        assert_eq!(family.take(10).count(), 10);
        let a: Vec<_> = WorstCaseFamily::new(8, 3, 16, 48, 7).unwrap().take(3).collect();
        let b: Vec<_> = WorstCaseFamily::new(8, 3, 16, 48, 7).unwrap().take(3).collect();
        assert_eq!(a, b, "same seed, same members");
    }

    #[test]
    fn invalid_length_rejected() {
        let err = WorstCaseFamily::new(8, 3, 16, 50, 0).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 50, .. }), "{err}");
    }
}
