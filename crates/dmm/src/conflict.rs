//! Bank-conflict accounting.
//!
//! Three metrics are maintained, because the literature uses all three:
//!
//! * **degree** — the number of cycles a step serializes into: the maximum
//!   over banks of the number of *distinct addresses* requested in that
//!   bank (minimum 1 for a non-idle step). This is the unit of the paper's
//!   Lemma 1 (`min{⌈k/w⌉, w}` bank conflicts) and of Karsin et al.'s
//!   `β₁ = 3.1`, `β₂ = 2.2` averages: a conflict-free access has degree 1.
//! * **conflicting accesses** — `Σ_b m_b` over banks with `m_b ≥ 2` distinct
//!   addresses. The paper's "`E²` total bank conflicts" (Theorem 3) counts
//!   in this unit: `E` threads in one bank in each of `E` steps.
//! * **extra cycles** — `degree − 1` per step: the replays real hardware
//!   spends beyond an ideal conflict-free access.
//!
//! Reads of the *same* address broadcast: they contribute one distinct
//! address regardless of how many lanes issue them. Concurrent writes to
//! one address (or a read and a write racing on one address) are CREW
//! violations and are tallied separately — the merge sort never produces
//! them, and a nonzero count in a test means the kernel under simulation
//! is broken.

use crate::access::{AccessKind, WarpStep};
use crate::BankModel;

/// Conflict metrics of a single step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StepConflicts {
    /// Cycles the step serializes into (max distinct addresses per bank;
    /// 0 for an idle step, otherwise ≥ 1).
    pub degree: usize,
    /// Σ over banks with ≥ 2 distinct addresses of the distinct-address
    /// count (the paper's counting unit).
    pub conflicting_accesses: usize,
    /// CREW violations: address pairs written concurrently (or read+write).
    pub crew_violations: usize,
    /// Lanes that issued a request.
    pub active_lanes: usize,
}

impl StepConflicts {
    /// Replay cycles beyond the first (`max(degree, 1) − 1`).
    #[must_use]
    pub(crate) fn extra_cycles(&self) -> usize {
        self.degree.saturating_sub(1)
    }
}

/// Running totals over many steps (one warp, one kernel, or a whole sort —
/// totals from independent warps add).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ConflictTotals {
    /// Non-idle steps observed.
    pub steps: usize,
    /// Σ degree over non-idle steps (serialized cycles spent on shared
    /// memory).
    pub cycles: usize,
    /// Σ conflicting accesses (paper unit).
    pub conflicting_accesses: usize,
    /// Σ (degree − 1).
    pub extra_cycles: usize,
    /// Largest degree seen in any step.
    pub max_degree: usize,
    /// Total CREW violations.
    pub crew_violations: usize,
    /// Total lane-requests observed.
    pub accesses: usize,
}

impl ConflictTotals {
    /// Fold one step's metrics into the totals.
    pub(crate) fn record(&mut self, s: StepConflicts) {
        if s.active_lanes == 0 {
            return;
        }
        self.steps += 1;
        self.cycles += s.degree;
        self.conflicting_accesses += s.conflicting_accesses;
        self.extra_cycles += s.extra_cycles();
        self.max_degree = self.max_degree.max(s.degree);
        self.crew_violations += s.crew_violations;
        self.accesses += s.active_lanes;
    }

    /// Merge totals from an independent warp/kernel (associative,
    /// commutative — safe to reduce in parallel).
    pub fn merge(&mut self, other: &ConflictTotals) {
        self.steps += other.steps;
        self.cycles += other.cycles;
        self.conflicting_accesses += other.conflicting_accesses;
        self.extra_cycles += other.extra_cycles;
        self.max_degree = self.max_degree.max(other.max_degree);
        self.crew_violations += other.crew_violations;
        self.accesses += other.accesses;
    }

    /// Average degree per step — the β of Karsin et al. (1.0 = conflict
    /// free). Returns `None` before any step was recorded.
    #[must_use]
    pub fn beta(&self) -> Option<f64> {
        (self.steps > 0).then(|| self.cycles as f64 / self.steps as f64)
    }
}

/// The accounting engine. Holds reusable scratch so that counting a step is
/// allocation-free in steady state (per the perf-book guidance on workhorse
/// collections).
///
/// ```
/// use wcms_dmm::{BankModel, ConflictCounter, WarpStep};
///
/// let mut counter = ConflictCounter::new(BankModel::gpu32());
/// // Four lanes hitting bank 0 at distinct addresses: a 4-way conflict.
/// let step = WarpStep::all_read(&[0, 32, 64, 96]);
/// assert_eq!(counter.count(&step).degree, 4);
/// ```
#[derive(Debug, Clone)]
pub struct ConflictCounter {
    model: BankModel,
    totals: ConflictTotals,
    // Scratch: (bank, addr, kind-bit) triples of the current step.
    scratch: Vec<(usize, usize, u8)>,
}

impl ConflictCounter {
    /// New counter over the given bank model.
    #[must_use]
    pub fn new(model: BankModel) -> Self {
        Self { model, totals: ConflictTotals::default(), scratch: Vec::with_capacity(64) }
    }

    /// The bank model in use.
    #[must_use]
    pub fn model(&self) -> BankModel {
        self.model
    }

    /// Analyse one step, record it into the running totals, and return its
    /// metrics.
    pub fn count(&mut self, step: &WarpStep) -> StepConflicts {
        let s = self.analyze(step);
        self.totals.record(s);
        s
    }

    /// Analyse a step without recording it.
    #[must_use]
    pub fn analyze(&mut self, step: &WarpStep) -> StepConflicts {
        self.scratch.clear();
        for access in step.lanes().iter().flatten() {
            let kind = match access.kind {
                AccessKind::Read => 0u8,
                AccessKind::Write => 1u8,
            };
            self.scratch.push((self.model.bank_of(access.addr), access.addr, kind));
        }
        let active_lanes = self.scratch.len();
        if active_lanes == 0 {
            return StepConflicts {
                degree: 0,
                conflicting_accesses: 0,
                crew_violations: 0,
                active_lanes: 0,
            };
        }
        // Sort by (bank, addr) so that same-bank requests are contiguous
        // and same-address requests adjacent within a bank.
        self.scratch.sort_unstable();

        let mut degree = 0usize;
        let mut conflicting = 0usize;
        let mut crew = 0usize;

        let mut i = 0;
        while i < self.scratch.len() {
            let bank = self.scratch[i].0;
            // Walk one bank's requests.
            let mut distinct = 0usize;
            while i < self.scratch.len() && self.scratch[i].0 == bank {
                let addr = self.scratch[i].1;
                distinct += 1;
                let mut writes = 0usize;
                let mut reads = 0usize;
                while i < self.scratch.len()
                    && self.scratch[i].0 == bank
                    && self.scratch[i].1 == addr
                {
                    match self.scratch[i].2 {
                        0 => reads += 1,
                        _ => writes += 1,
                    }
                    i += 1;
                }
                // CREW: at most one writer, and a writer excludes readers.
                if writes > 1 {
                    crew += writes - 1;
                }
                if writes >= 1 && reads >= 1 {
                    crew += 1;
                }
            }
            degree = degree.max(distinct);
            if distinct >= 2 {
                conflicting += distinct;
            }
        }
        StepConflicts {
            degree,
            conflicting_accesses: conflicting,
            crew_violations: crew,
            active_lanes,
        }
    }

    /// Running totals.
    #[must_use]
    pub fn totals(&self) -> ConflictTotals {
        self.totals
    }

    /// Reset totals, keeping the model and scratch capacity.
    pub fn reset(&mut self) {
        self.totals = ConflictTotals::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn counter(w: usize) -> ConflictCounter {
        ConflictCounter::new(BankModel::new(w))
    }

    #[test]
    fn distinct_banks_are_conflict_free() {
        let mut c = counter(32);
        let s = c.count(&WarpStep::all_read(&(0..32).collect::<Vec<_>>()));
        assert_eq!(s.degree, 1);
        assert_eq!(s.conflicting_accesses, 0);
        assert_eq!(s.extra_cycles(), 0);
    }

    #[test]
    fn same_bank_distinct_addresses_conflict() {
        let mut c = counter(32);
        // Addresses 0, 32, 64, 96 all live in bank 0.
        let s = c.count(&WarpStep::all_read(&[0, 32, 64, 96]));
        assert_eq!(s.degree, 4);
        assert_eq!(s.conflicting_accesses, 4);
        assert_eq!(s.extra_cycles(), 3);
        assert_eq!(s.crew_violations, 0);
    }

    #[test]
    fn broadcast_reads_do_not_conflict() {
        let mut c = counter(32);
        let s = c.count(&WarpStep::all_read(&[5; 32]));
        assert_eq!(s.degree, 1);
        assert_eq!(s.conflicting_accesses, 0);
        assert_eq!(s.crew_violations, 0);
    }

    #[test]
    fn concurrent_writes_violate_crew() {
        let mut c = counter(32);
        let mut step = WarpStep::idle(3);
        for lane in 0..3 {
            step.set(lane, Access::write(5));
        }
        let s = c.count(&step);
        assert_eq!(s.crew_violations, 2);
        // Still one distinct address → degree 1.
        assert_eq!(s.degree, 1);
    }

    #[test]
    fn read_write_race_violates_crew() {
        let mut c = counter(32);
        let mut step = WarpStep::idle(2);
        step.set(0, Access::read(9));
        step.set(1, Access::write(9));
        let s = c.count(&step);
        assert_eq!(s.crew_violations, 1);
    }

    #[test]
    fn mixed_step_degree_is_max_over_banks() {
        let mut c = counter(16);
        // Bank 0: addrs 0,16,32 (3 distinct). Bank 1: addrs 1,17 (2). Bank 2: addr 2.
        let s = c.count(&WarpStep::all_read(&[0, 16, 32, 1, 17, 2]));
        assert_eq!(s.degree, 3);
        assert_eq!(s.conflicting_accesses, 3 + 2);
    }

    #[test]
    fn idle_step_not_counted() {
        let mut c = counter(32);
        let s = c.count(&WarpStep::idle(32));
        assert_eq!(s.degree, 0);
        assert_eq!(c.totals().steps, 0);
    }

    #[test]
    fn totals_accumulate_and_merge() {
        let mut a = counter(32);
        a.count(&WarpStep::all_read(&[0, 32]));
        a.count(&WarpStep::all_read(&[1, 2]));
        let mut b = counter(32);
        b.count(&WarpStep::all_read(&[0, 32, 64]));

        let mut t = a.totals();
        t.merge(&b.totals());
        assert_eq!(t.steps, 3);
        assert_eq!(t.cycles, 2 + 1 + 3);
        assert_eq!(t.max_degree, 3);
        assert_eq!(t.accesses, 2 + 2 + 3);
        assert_eq!(t.conflicting_accesses, 2 + 3);
        let beta = t.beta().unwrap();
        assert!((beta - 2.0).abs() < 1e-12);
    }

    #[test]
    fn beta_none_when_empty() {
        assert_eq!(ConflictTotals::default().beta(), None);
    }

    #[test]
    fn reset_clears_totals_only() {
        let mut c = counter(8);
        c.count(&WarpStep::all_read(&[0, 8]));
        c.reset();
        assert_eq!(c.totals(), ConflictTotals::default());
        assert_eq!(c.model().banks(), 8);
    }

    #[test]
    fn lemma1_style_adversarial_step() {
        // Lemma 1: w accesses into k = w*E consecutive addresses can reach
        // degree min(⌈k/w⌉, w) = E. Pick all addresses ≡ 0 (mod w).
        let w = 32;
        let e = 5;
        let addrs: Vec<usize> = (0..w).map(|i| (i % e) * w).collect();
        let mut c = counter(w);
        let s = c.count(&WarpStep::all_read(&addrs));
        assert_eq!(s.degree, e);
    }
}
