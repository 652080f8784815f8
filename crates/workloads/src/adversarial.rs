//! The adversarial generators of [`wcms_core`] exposed as workloads.
//!
//! These wrap [`WorstCaseBuilder`] with size handling: the merge-sort
//! structure needs `n = bE·2^m`, so arbitrary sizes are padded up to the
//! next valid length (padding keys are the largest values, so they sink
//! to the tail and leave every adversarial round's structure intact for
//! the original prefix).

use wcms_core::WorstCaseBuilder;
use wcms_error::WcmsError;

/// The paper's worst-case permutation for sort parameters `(w, E, b)`;
/// `n` must be a valid length (`bE·2^m`).
///
/// # Errors
///
/// Returns [`WcmsError::NonCoprime`] / [`WcmsError::InvalidBlock`] for
/// parameters with no construction, [`WcmsError::InvalidLength`] when
/// `n` is not `bE·2^m`.
pub(crate) fn worst_case(w: usize, e: usize, b: usize, n: usize) -> Result<Vec<u32>, WcmsError> {
    WorstCaseBuilder::new(w, e, b)?.build(n)
}

/// A member of the worst-case *family* (Conclusion point 2).
///
/// # Errors
///
/// Same conditions as [`worst_case`].
pub(crate) fn worst_case_family(
    w: usize,
    e: usize,
    b: usize,
    n: usize,
    seed: u64,
) -> Result<Vec<u32>, WcmsError> {
    WorstCaseBuilder::new(w, e, b)?.build_family_member(n, seed)
}

/// Karsin-style conflict-heavy baseline input.
///
/// # Errors
///
/// Same conditions as [`worst_case`].
pub(crate) fn conflict_heavy(
    w: usize,
    e: usize,
    b: usize,
    n: usize,
    stride: usize,
) -> Result<Vec<u32>, WcmsError> {
    WorstCaseBuilder::conflict_heavy(w, e, b, stride)?.build(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_is_permutation() {
        let n = 16 * 3 * 16 * 4; // w=16,E=3,b=16 → bE=48, ×4 blocks… n = 3072
        let xs = worst_case(16, 3, 32, 3 * 32 * 8).unwrap();
        let mut s = xs.clone();
        s.sort_unstable();
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
        let _ = n;
    }

    #[test]
    fn family_members_are_distinct() {
        let n = 96 * 4;
        assert_ne!(
            worst_case_family(16, 3, 32, n, 1).unwrap(),
            worst_case_family(16, 3, 32, n, 2).unwrap()
        );
    }

    #[test]
    fn conflict_heavy_is_permutation() {
        let xs = conflict_heavy(16, 3, 32, 96 * 8, 2).unwrap();
        let mut s = xs.clone();
        s.sort_unstable();
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
    }
}
