//! Duplicate-heavy and structured distributions, exercising the merge
//! sort's tie handling and non-uniform merge paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` keys drawn uniformly from only `distinct` values.
///
/// # Panics
///
/// Panics if `distinct == 0`.
#[must_use]
pub fn few_distinct(n: usize, distinct: u32, seed: u64) -> Vec<u32> {
    assert!(distinct > 0, "need at least one distinct value");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..distinct)).collect()
}

/// A sawtooth of `teeth` ascending runs — sorted runs of equal length,
/// a classic adversary for merge strategies.
#[must_use]
pub fn sawtooth(n: usize, teeth: usize) -> Vec<u32> {
    let teeth = teeth.max(1);
    let run = n.div_ceil(teeth);
    (0..n).map(|i| ((i % run) * teeth + i / run) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_distinct_respects_alphabet() {
        let xs = few_distinct(10_000, 4, 11);
        assert!(xs.iter().all(|&v| v < 4));
        // All 4 values should appear in 10k draws.
        for v in 0..4 {
            assert!(xs.contains(&v), "missing value {v}");
        }
    }

    #[test]
    fn sawtooth_has_ascending_runs() {
        let xs = sawtooth(100, 4);
        let run = 25;
        for t in 0..4 {
            let tooth = &xs[t * run..(t + 1) * run];
            assert!(tooth.windows(2).all(|w| w[0] < w[1]), "tooth {t} not ascending");
        }
    }

    #[test]
    fn sawtooth_one_tooth_is_sorted() {
        let xs = sawtooth(50, 1);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "at least one distinct")]
    fn zero_alphabet_rejected() {
        let _ = few_distinct(10, 0, 0);
    }
}
