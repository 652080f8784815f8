//! Quantile partitioning: assigning each thread (or thread block) its
//! co-rank window.

use crate::diagonal::merge_path;

/// A co-rank: the split of a diagonal into `A`-prefix and `B`-prefix
/// lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Corank {
    /// Elements taken from `A`.
    pub a: usize,
    /// Elements taken from `B`.
    pub b: usize,
}

impl Corank {
    /// The diagonal this co-rank splits.
    #[must_use]
    pub fn diagonal(&self) -> usize {
        self.a + self.b
    }
}

/// Partition the merge of `A` (length `a_len`) and `B` (length `b_len`)
/// into `parts` even quantiles (the last takes the remainder). Returns
/// `parts + 1` co-ranks: entry `i` is the start of part `i`, entry
/// `parts` is the end `(a_len, b_len)`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn partition_even<K, FA, FB>(
    a_len: usize,
    b_len: usize,
    parts: usize,
    mut a_at: FA,
    mut b_at: FB,
) -> Vec<Corank>
where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
{
    assert!(parts > 0, "cannot partition into zero parts");
    let n = a_len + b_len;
    let chunk = n.div_ceil(parts);
    let mut out = Vec::with_capacity(parts + 1);
    for p in 0..parts {
        let d = (p * chunk).min(n);
        let a = merge_path(d, a_len, b_len, &mut a_at, &mut b_at);
        out.push(Corank { a, b: d - a });
    }
    out.push(Corank { a: a_len, b: b_len });
    out
}

/// Check that `c` is a valid co-rank of the stable merge of `a` and `b`:
/// every element in the prefix is ≤ every element after it, with ties
/// resolved toward `A`.
#[must_use]
pub fn validate_corank<K: Ord>(a: &[K], b: &[K], c: Corank) -> bool {
    if c.a > a.len() || c.b > b.len() {
        return false;
    }
    // Stable-merge co-rank conditions:
    //  A[c.a - 1] <= B[c.b]   (last A taken precedes first B not taken)
    //  B[c.b - 1] <  A[c.a]   (last B taken strictly precedes first A not
    //                          taken, since ties go to A)
    if c.a > 0 && c.b < b.len() && a[c.a - 1] > b[c.b] {
        return false;
    }
    if c.b > 0 && c.a < a.len() && b[c.b - 1] >= a[c.a] {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_whole_merge() {
        let a: Vec<u32> = (0..40).map(|x| x * 2).collect();
        let b: Vec<u32> = (0..40).map(|x| x * 2 + 1).collect();
        let parts = partition_even(a.len(), b.len(), 8, |i| a[i], |j| b[j]);
        assert_eq!(parts.len(), 9);
        assert_eq!(parts[0], Corank { a: 0, b: 0 });
        assert_eq!(parts[8], Corank { a: 40, b: 40 });
        for w in parts.windows(2) {
            assert!(w[0].a <= w[1].a && w[0].b <= w[1].b, "monotone co-ranks");
            assert_eq!(w[1].diagonal() - w[0].diagonal(), 10);
        }
    }

    #[test]
    fn partitions_are_valid_coranks() {
        let a: Vec<u32> = vec![1, 1, 2, 2, 3, 8, 9, 9];
        let b: Vec<u32> = vec![1, 2, 2, 5, 7, 7, 9, 10];
        let parts = partition_even(a.len(), b.len(), 4, |i| a[i], |j| b[j]);
        for c in parts {
            assert!(validate_corank(&a, &b, c), "{c:?}");
        }
    }

    #[test]
    fn uneven_total_last_part_takes_remainder() {
        let a: Vec<u32> = (0..7).collect();
        let b: Vec<u32> = (0..6).collect();
        let parts = partition_even(a.len(), b.len(), 4, |i| a[i], |j| b[j]);
        // chunk = ceil(13/4) = 4 → diagonals 0,4,8,12,13.
        let diags: Vec<usize> = parts.iter().map(Corank::diagonal).collect();
        assert_eq!(diags, vec![0, 4, 8, 12, 13]);
    }

    #[test]
    fn validate_rejects_bad_coranks() {
        let a = [1u32, 5, 9];
        let b = [2u32, 6, 10];
        // Diagonal 2 of the merge {1,2,5,6,9,10} is (a=1, b=1).
        assert!(validate_corank(&a, &b, Corank { a: 1, b: 1 }));
        assert!(!validate_corank(&a, &b, Corank { a: 2, b: 0 }));
        assert!(!validate_corank(&a, &b, Corank { a: 0, b: 2 }));
        assert!(!validate_corank(&a, &b, Corank { a: 4, b: 0 }));
    }

    #[test]
    fn validate_tie_convention() {
        let a = [5u32];
        let b = [5u32];
        // Rank-1 prefix must be the A copy.
        assert!(validate_corank(&a, &b, Corank { a: 1, b: 0 }));
        assert!(!validate_corank(&a, &b, Corank { a: 0, b: 1 }));
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let _ = partition_even(1, 1, 0, |_| 0u32, |_| 0u32);
    }

    #[test]
    fn single_part_is_whole_range() {
        let a = [1u32, 2];
        let b = [3u32];
        let parts = partition_even(a.len(), b.len(), 1, |i| a[i], |j| b[j]);
        assert_eq!(parts, vec![Corank { a: 0, b: 0 }, Corank { a: 2, b: 1 }]);
    }
}
