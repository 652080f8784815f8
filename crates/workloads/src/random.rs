//! Seeded uniform-random inputs — the paper's baseline input class
//! ("All experiments are performed on 4-byte integers with the average
//! over 10 runs being reported", §IV-A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` uniform `u32` keys (duplicates possible, like the paper's random
/// 4-byte integers).
#[must_use]
pub(crate) fn uniform_u32(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// A uniformly random permutation of `0 … n−1` (distinct keys; what the
/// adversarial builder produces, so the fairest baseline for conflict
/// comparisons).
///
/// # Panics
///
/// Panics if `n` exceeds `u32` range.
#[must_use]
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize);
    let mut xs: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher–Yates.
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        assert_eq!(uniform_u32(100, 7), uniform_u32(100, 7));
        assert_ne!(uniform_u32(100, 7), uniform_u32(100, 8));
        assert_eq!(uniform_u32(100, 7).len(), 100);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let p = random_permutation(1000, 42);
        let mut s = p.clone();
        s.sort_unstable();
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn permutation_is_shuffled() {
        let p = random_permutation(1000, 42);
        let sorted: Vec<u32> = (0..1000).collect();
        assert_ne!(p, sorted);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(uniform_u32(0, 1).is_empty());
        assert_eq!(random_permutation(1, 1), vec![0]);
    }
}
