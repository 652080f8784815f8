//! The sort algorithm abstraction: what varies between GPU merge sorts
//! once execution is behind [`crate::backend::ExecBackend`].
//!
//! Every algorithm in this family shares the paper's two-level shape —
//! a shared-memory base case, then global rounds that merge sorted runs
//! until one remains — and differs only in the *fan-in* of a global
//! round: the pairwise sort of §II-A merges runs two at a time, the
//! multiway mergesort of Casanova–Iacono–Karsin–Sitchinava
//! (arXiv:1702.07961) merges up to `k` at a time through a multisequence
//! selection. [`SortAlgorithm`] captures exactly that choice; the
//! drivers in [`crate::driver`] are generic over
//! `(SortAlgorithm, ExecBackend)`, so each algorithm runs on every
//! backend — cycle-accurate, analytic, or CPU reference — through the
//! single schedule construction in [`crate::schedule`].

use wcms_error::WcmsError;

/// One member of the merge-sort family: a policy choosing each global
/// round's fan-in. Implementations carry no execution code — the round
/// loop, the work units and the accounting all live in the generic
/// driver/backend stack, which is what makes a new algorithm a few
/// dozen lines instead of a new pipeline.
pub trait SortAlgorithm: Sync {
    /// Short stable name (the `--algorithm` CLI value).
    fn name(&self) -> &'static str;

    /// How many of the `runs` remaining sorted runs the next global
    /// round merges per group. Must be ≥ 2 when `runs` ≥ 2 (the driver
    /// calls it only then) and ≤ `runs`; a trailing smaller group is the
    /// driver's business, not the algorithm's.
    fn fan_in(&self, runs: usize) -> usize;
}

/// The paper's pairwise merge sort: every global round merges runs two
/// at a time (§II-A). The semantics-preserving wrapper of the original
/// hard-wired pipeline — with this algorithm the generic driver
/// dispatches through the exact legacy pairwise work units, so outputs
/// *and counters* are bit-identical to the pre-refactor code.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairwiseMerge;

impl SortAlgorithm for PairwiseMerge {
    fn name(&self) -> &'static str {
        "pairwise"
    }

    fn fan_in(&self, _runs: usize) -> usize {
        2
    }
}

/// The multiway mergesort of arXiv:1702.07961: each global round merges
/// up to `k` runs per group through a stable multisequence selection
/// (see [`wcms_mergepath::multiway`]), cutting the number of global
/// rounds from `log₂` to `log_k` of the run count.
#[derive(Debug, Clone, Copy)]
pub struct MultiwayMerge {
    /// Maximum fan-in of a global round (≥ 2).
    pub(crate) k: usize,
}

impl MultiwayMerge {
    /// The default fan-in used by the `multiway` CLI value.
    const DEFAULT_K: usize = 4;
}

impl Default for MultiwayMerge {
    fn default() -> Self {
        MultiwayMerge { k: Self::DEFAULT_K }
    }
}

impl SortAlgorithm for MultiwayMerge {
    fn name(&self) -> &'static str {
        "multiway"
    }

    fn fan_in(&self, runs: usize) -> usize {
        self.k.max(2).min(runs)
    }
}

/// Value-level algorithm selector (the `--algorithm {pairwise,multiway}`
/// flag of every bench binary) — the algorithm analogue of
/// [`crate::backend::BackendKind`].
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum AlgorithmKind {
    /// The paper's pairwise merge sort ([`PairwiseMerge`]).
    #[default]
    Pairwise,
    /// k-way multiway mergesort (`MultiwayMerge`, `k = 4`).
    Multiway,
}

impl AlgorithmKind {
    /// All selectable algorithms, in CLI listing order.
    pub const ALL: [AlgorithmKind; 2] = [AlgorithmKind::Pairwise, AlgorithmKind::Multiway];

    /// The stable CLI name (`pairwise`, `multiway`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Pairwise => "pairwise",
            AlgorithmKind::Multiway => "multiway",
        }
    }

    /// The canonical algorithm value behind this kind (multiway runs
    /// with `MultiwayMerge::DEFAULT_K`).
    #[must_use]
    pub fn instance(self) -> &'static dyn SortAlgorithm {
        const MULTIWAY: MultiwayMerge = MultiwayMerge { k: MultiwayMerge::DEFAULT_K };
        match self {
            AlgorithmKind::Pairwise => &PairwiseMerge,
            AlgorithmKind::Multiway => &MULTIWAY,
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AlgorithmKind {
    type Err = WcmsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pairwise" => Ok(AlgorithmKind::Pairwise),
            "multiway" => Ok(AlgorithmKind::Multiway),
            other => Err(WcmsError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown algorithm '{other}' (expected pairwise or multiway)"),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_names() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(kind.name().parse::<AlgorithmKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("bitonic".parse::<AlgorithmKind>().is_err());
    }

    #[test]
    fn default_kind_is_pairwise() {
        assert_eq!(AlgorithmKind::default(), AlgorithmKind::Pairwise);
    }

    #[test]
    fn kind_names_match_algorithm_names() {
        assert_eq!(AlgorithmKind::Pairwise.name(), PairwiseMerge.name());
        assert_eq!(AlgorithmKind::Multiway.name(), MultiwayMerge::default().name());
    }

    #[test]
    fn fan_in_policies() {
        for runs in [2usize, 4, 8, 1 << 20] {
            assert_eq!(PairwiseMerge.fan_in(runs), 2, "pairwise is always 2-way");
        }
        let m = MultiwayMerge::default();
        assert_eq!(m.fan_in(2), 2, "fan-in never exceeds the runs remaining");
        assert_eq!(m.fan_in(3), 3);
        assert_eq!(m.fan_in(4), 4);
        assert_eq!(m.fan_in(64), 4, "fan-in is capped at k");
        assert_eq!(MultiwayMerge { k: 8 }.fan_in(64), 8);
    }
}
