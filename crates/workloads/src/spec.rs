//! A serializable name for every input class the harness sweeps, so that
//! experiment configurations and results can be recorded symmetrically.

use serde::{Deserialize, Serialize};

use crate::{adversarial, dist, nearly, random, sorted};

/// An input-distribution specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// Uniform random `u32` keys.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Random permutation of `0 … n−1`.
    RandomPermutation {
        /// RNG seed.
        seed: u64,
    },
    /// Ascending `0 … n−1`.
    Sorted,
    /// Descending `n−1 … 0`.
    Reverse,
    /// Sorted with `swaps` random transpositions.
    KSwaps {
        /// Number of transpositions.
        swaps: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Keys drawn from `distinct` values only.
    FewDistinct {
        /// Alphabet size.
        distinct: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Sawtooth with `teeth` ascending runs.
    Sawtooth {
        /// Number of runs.
        teeth: usize,
    },
    /// The paper's constructed worst case for the sort's `(w, E, b)`.
    WorstCase,
    /// A seeded member of the worst-case family.
    WorstCaseFamily {
        /// Family seed.
        seed: u64,
    },
    /// Karsin-style conflict-heavy baseline with the given stride
    /// (power-of-two strides collide `gcd(w, stride)`-ways).
    ConflictHeavy {
        /// Same-list chunk length per thread.
        stride: usize,
    },
}

impl WorkloadSpec {
    /// Short label for tables and CSV headers.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Random { .. } => "random".into(),
            WorkloadSpec::RandomPermutation { .. } => "random-perm".into(),
            WorkloadSpec::Sorted => "sorted".into(),
            WorkloadSpec::Reverse => "reverse".into(),
            WorkloadSpec::KSwaps { swaps, .. } => format!("kswaps({swaps})"),
            WorkloadSpec::FewDistinct { distinct, .. } => format!("dups({distinct})"),
            WorkloadSpec::Sawtooth { teeth } => format!("sawtooth({teeth})"),
            WorkloadSpec::WorstCase => "worst-case".into(),
            WorkloadSpec::WorstCaseFamily { seed } => format!("worst-family({seed})"),
            WorkloadSpec::ConflictHeavy { stride } => format!("conflict-heavy({stride})"),
        }
    }

    /// Generate `n` keys for a sort parameterized by `(w, E, b)` (only
    /// the adversarial classes use the parameters). Adversarial classes
    /// require `n = bE·2^m`.
    ///
    /// # Errors
    ///
    /// The adversarial classes reject parameters with no construction
    /// and lengths that are not `bE·2^m` (see
    /// `adversarial::worst_case`); the oblivious classes never fail.
    pub fn generate(
        &self,
        n: usize,
        w: usize,
        e: usize,
        b: usize,
    ) -> Result<Vec<u32>, wcms_error::WcmsError> {
        Ok(match *self {
            WorkloadSpec::Random { seed } => random::uniform_u32(n, seed),
            WorkloadSpec::RandomPermutation { seed } => random::random_permutation(n, seed),
            WorkloadSpec::Sorted => sorted::sorted(n),
            WorkloadSpec::Reverse => sorted::reverse_sorted(n),
            WorkloadSpec::KSwaps { swaps, seed } => nearly::k_swaps(n, swaps, seed),
            WorkloadSpec::FewDistinct { distinct, seed } => dist::few_distinct(n, distinct, seed),
            WorkloadSpec::Sawtooth { teeth } => dist::sawtooth(n, teeth),
            WorkloadSpec::WorstCase => adversarial::worst_case(w, e, b, n)?,
            WorkloadSpec::WorstCaseFamily { seed } => {
                adversarial::worst_case_family(w, e, b, n, seed)?
            }
            WorkloadSpec::ConflictHeavy { stride } => {
                adversarial::conflict_heavy(w, e, b, n, stride)?
            }
        })
    }

    /// Reseeded variant for multi-run averaging (non-random classes are
    /// returned unchanged).
    #[must_use]
    pub fn with_run_seed(&self, run: u64) -> Self {
        match *self {
            WorkloadSpec::Random { seed } => WorkloadSpec::Random { seed: seed ^ run << 32 },
            WorkloadSpec::RandomPermutation { seed } => {
                WorkloadSpec::RandomPermutation { seed: seed ^ run << 32 }
            }
            WorkloadSpec::KSwaps { swaps, seed } => {
                WorkloadSpec::KSwaps { swaps, seed: seed ^ run << 32 }
            }
            WorkloadSpec::FewDistinct { distinct, seed } => {
                WorkloadSpec::FewDistinct { distinct, seed: seed ^ run << 32 }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let specs = [
            WorkloadSpec::Random { seed: 1 },
            WorkloadSpec::Sorted,
            WorkloadSpec::Reverse,
            WorkloadSpec::WorstCase,
            WorkloadSpec::ConflictHeavy { stride: 8 },
        ];
        let labels: Vec<String> = specs.iter().map(WorkloadSpec::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn generate_matches_class() {
        let n = 16 * 3 * 32 * 2; // valid for (w=16, E=3, b=32)
        assert!(WorkloadSpec::Sorted
            .generate(n, 16, 3, 32)
            .unwrap()
            .windows(2)
            .all(|w| w[0] < w[1]));
        assert_eq!(WorkloadSpec::Reverse.generate(5, 16, 3, 32).unwrap(), vec![4, 3, 2, 1, 0]);
        let wc = WorkloadSpec::WorstCase.generate(n, 16, 3, 32).unwrap();
        assert_eq!(wc.len(), n);
    }

    #[test]
    fn run_seed_changes_random_only() {
        let r = WorkloadSpec::Random { seed: 1 };
        assert_ne!(r.with_run_seed(1), r);
        assert_eq!(WorkloadSpec::Sorted.with_run_seed(1), WorkloadSpec::Sorted);
        assert_eq!(WorkloadSpec::WorstCase.with_run_seed(5), WorkloadSpec::WorstCase);
    }
}
