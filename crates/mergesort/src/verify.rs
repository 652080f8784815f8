//! Output verification helpers used by tests, the harness, and the
//! resilient driver's per-round corruption checks.

use wcms_error::WcmsError;
use wcms_gpu_sim::fault::splitmix64;
use wcms_gpu_sim::GpuKey;

/// True if `xs` is non-decreasing.
#[must_use]
fn is_sorted<K: Ord>(xs: &[K]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

/// Order-independent multiset fingerprint of a key slice: the wrapping
/// sum of a mixed hash of every key. Commutative by construction, so a
/// kernel's output hash equals its input hash iff (up to 64-bit hash
/// collisions) the kernel only *permuted* its data — a cheap, O(n),
/// allocation-free permutation check that the resilient driver runs
/// after every round.
#[must_use]
pub(crate) fn multiset_hash<K: GpuKey>(xs: &[K]) -> u64 {
    xs.iter().fold(0u64, |acc, &k| acc.wrapping_add(splitmix64(k.to_bits())))
}

/// The resilient driver's per-round invariant: `out` must be sorted and
/// its multiset fingerprint must match `expected_hash` (the fingerprint
/// of the work unit's immutable input). A violation is *detected*
/// corruption — reported as a typed [`WcmsError::CorruptOutput`] naming
/// the round and block, never silently propagated.
///
/// # Errors
///
/// [`WcmsError::CorruptOutput`] if the output length changed, the output
/// is not sorted, or the fingerprints disagree.
pub(crate) fn check_round_output<K: GpuKey>(
    out: &[K],
    expected_len: usize,
    expected_hash: u64,
    round: usize,
    block: usize,
) -> Result<(), WcmsError> {
    let reason = if out.len() != expected_len {
        format!("output has {} elements, expected {expected_len}", out.len())
    } else if !is_sorted(out) {
        "output window is not sorted".to_string()
    } else if multiset_hash(out) != expected_hash {
        "output is not a permutation of the input (multiset fingerprint mismatch)".to_string()
    } else {
        return Ok(());
    };
    Err(WcmsError::CorruptOutput { round, block, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorted_cases() {
        assert!(is_sorted::<u32>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2]));
        assert!(!is_sorted(&[2, 1]));
    }

    #[test]
    fn multiset_hash_is_order_independent_and_value_sensitive() {
        let a = [5u32, 1, 9, 1, 3];
        let b = [1u32, 1, 3, 5, 9];
        assert_eq!(multiset_hash(&a), multiset_hash(&b));
        let c = [1u32, 1, 3, 5, 8]; // one value changed
        assert_ne!(multiset_hash(&a), multiset_hash(&c));
        let d = [1u32, 3, 5, 9]; // one duplicate dropped
        assert_ne!(multiset_hash(&a), multiset_hash(&d));
    }

    #[test]
    fn check_round_output_names_the_failure() {
        let input = [3u32, 1, 2];
        let h = multiset_hash(&input);
        assert!(check_round_output(&[1u32, 2, 3], 3, h, 2, 5).is_ok());

        let err = check_round_output(&[2u32, 1, 3], 3, h, 2, 5).unwrap_err();
        assert!(matches!(err, WcmsError::CorruptOutput { round: 2, block: 5, .. }), "{err}");
        assert!(err.to_string().contains("not sorted"), "{err}");

        let err = check_round_output(&[1u32, 2, 4], 3, h, 1, 0).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

        let err = check_round_output(&[1u32, 2], 3, h, 1, 0).unwrap_err();
        assert!(err.to_string().contains("2 elements"), "{err}");
    }
}
