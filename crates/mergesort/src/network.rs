//! The odd–even transposition sorting network each thread runs over its
//! `E` register-resident elements at the start of the base case (§II-A,
//! after Satish et al.). Register work incurs no shared-memory traffic;
//! the comparator count feeds the cost model's compute term.

/// Sort `xs` in place with the odd–even transposition network (`len`
/// rounds of alternating odd/even compare-exchanges — data-oblivious,
/// like the register code on the GPU). Returns the number of comparators
/// evaluated.
pub(crate) fn odd_even_sort<T: Ord>(xs: &mut [T]) -> usize {
    let n = xs.len();
    let mut comparators = 0usize;
    for round in 0..n {
        let start = round % 2;
        let mut i = start;
        while i + 1 < n {
            comparators += 1;
            if xs[i] > xs[i + 1] {
                xs.swap(i, i + 1);
            }
            i += 2;
        }
    }
    comparators
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Comparators the network evaluates for `n` elements (closed form,
    /// without running it): `n` rounds of `⌊n/2⌋` / `⌊(n−1)/2⌋` comparators.
    fn odd_even_comparator_count(n: usize) -> usize {
        if n < 2 {
            return 0;
        }
        let even_rounds = n.div_ceil(2);
        let odd_rounds = n / 2;
        even_rounds * (n / 2) + odd_rounds * ((n - 1) / 2)
    }

    #[test]
    fn sorts_small_arrays() {
        for n in 0..=17usize {
            let mut xs: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % n.max(1) as u32).collect();
            let mut want = xs.clone();
            want.sort_unstable();
            odd_even_sort(&mut xs);
            assert_eq!(xs, want, "n={n}");
        }
    }

    #[test]
    fn sorts_reverse_and_duplicates() {
        let mut xs = vec![5u32, 5, 4, 4, 3, 3, 9, 0];
        odd_even_sort(&mut xs);
        assert_eq!(xs, vec![0, 3, 3, 4, 4, 5, 5, 9]);

        let mut ys: Vec<u32> = (0..15).rev().collect();
        odd_even_sort(&mut ys);
        assert!(ys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn comparator_count_matches_execution() {
        for n in 0..=20usize {
            let mut xs: Vec<u32> = (0..n as u32).rev().collect();
            assert_eq!(odd_even_sort(&mut xs), odd_even_comparator_count(n), "n={n}");
        }
    }

    #[test]
    fn network_is_data_oblivious() {
        // Same comparator count regardless of data.
        let mut a = vec![1u32, 2, 3, 4, 5];
        let mut b = vec![5u32, 4, 3, 2, 1];
        assert_eq!(odd_even_sort(&mut a), odd_even_sort(&mut b));
    }
}
