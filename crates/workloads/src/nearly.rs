//! Bounded-disorder inputs. Karsin et al. observed that the per-access
//! conflict averages β₁/β₂ "grow with the number of inversions in the
//! input" (§II-A) — these generators provide a controllable inversion
//! dial for reproducing that trend.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sorted order perturbed by `swaps` random transpositions.
#[must_use]
pub fn k_swaps(n: usize, swaps: usize, seed: u64) -> Vec<u32> {
    let mut xs: Vec<u32> = (0..n as u32).collect();
    if n < 2 {
        return xs;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        xs.swap(i, j);
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inversions::count_inversions;

    #[test]
    fn zero_swaps_is_sorted() {
        assert_eq!(k_swaps(50, 0, 1), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn more_swaps_more_inversions() {
        let few = count_inversions(&k_swaps(10_000, 10, 3));
        let many = count_inversions(&k_swaps(10_000, 5_000, 3));
        assert!(few > 0);
        assert!(many > few);
    }

    #[test]
    fn swaps_preserve_permutation() {
        let xs = k_swaps(1000, 500, 9);
        let mut s = xs.clone();
        s.sort_unstable();
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
    }
}
