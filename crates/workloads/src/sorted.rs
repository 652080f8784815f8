//! Fully-ordered inputs: sorted and reverse-sorted ramps.
//! Sorted order matters doubly here — for power-of-two `E` it *is* the
//! paper's worst case (§III), and for co-prime `E` it is conflict-free.

/// `0, 1, …, n−1`.
#[must_use]
pub fn sorted(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// `n−1, n−2, …, 0` — the maximum-inversion permutation
/// (`n(n−1)/2` inversions).
#[must_use]
pub fn reverse_sorted(n: usize) -> Vec<u32> {
    (0..n as u32).rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inversions::count_inversions;

    #[test]
    fn sorted_has_no_inversions() {
        assert_eq!(count_inversions(&sorted(100)), 0);
    }

    #[test]
    fn reverse_has_max_inversions() {
        let n = 100u64;
        assert_eq!(count_inversions(&reverse_sorted(n as usize)), n * (n - 1) / 2);
    }
}
