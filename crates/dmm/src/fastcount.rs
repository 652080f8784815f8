//! Allocation-free conflict accounting for precomputed access schedules.
//!
//! [`crate::ConflictCounter`] analyses an arbitrary [`crate::WarpStep`]:
//! it stages every lane's access, sorts `(bank, addr, kind)` triples and
//! scans for CREW races — exact, but `O(w log w)` per step plus the
//! staging around it. When a kernel's address schedule is already known
//! to be race-free (the analytic sort backend replays schedules whose
//! structure the lockstep simulator validates), the same metrics follow
//! from one histogram per step: count, then reduce. Each access adds one
//! to its bank's counter of distinct addresses `m_b` — a broadcast adds
//! zero, found through a generation-stamped per-address table that a
//! step never has to clear — and closing the step reads the `w`
//! counters once, taking `degree = max_b m_b` and
//! `conflicting_accesses = Σ_b m_b·[m_b ≥ 2]` and zeroing each counter
//! as it goes. That is `O(active lanes + w)` per step with no branch on
//! the data: the paper's worst-case inputs make every merge step a
//! many-way conflict, which an incremental per-access fold would have to
//! branch on.
//!
//! The arithmetic is identical to [`crate::ConflictCounter`] by
//! construction — `degree` is the maximum number of *distinct* addresses
//! any bank receives (a step is conflict-free exactly when every bank's
//! count is at most one), `conflicting_accesses` sums the distinct
//! counts of banks with two or more, broadcasts (repeated addresses)
//! dedupe — and the property tests below pin the two engines against
//! each other on arbitrary multi-step schedules.

use crate::conflict::{ConflictTotals, StepConflicts};
use crate::BankModel;

/// Streaming per-step conflict accumulator over physical addresses.
///
/// Drive it one warp step at a time: [`StepAccumulator::begin_step`],
/// one [`StepAccumulator::access`] per active lane, then
/// [`StepAccumulator::end_step`]. Each access bumps its bank's
/// distinct-address counter; `end_step` reduces the `w` counters to the
/// step's metrics in one pass and leaves them zeroed for the next step,
/// so a step costs `O(active lanes + w)`. Reads and conflict-free writes
/// share the same serialization arithmetic, so one accumulator serves
/// both; CREW discipline is the *caller's* obligation (the accumulator
/// always reports zero violations) — use [`crate::ConflictCounter`] when
/// the schedule is untrusted.
///
/// ```
/// use wcms_dmm::{BankModel, StepAccumulator};
///
/// let mut acc = StepAccumulator::new(BankModel::gpu32(), 128);
/// acc.begin_step();
/// for addr in [0, 32, 64, 96] {
///     acc.access(addr); // four distinct addresses in bank 0
/// }
/// assert_eq!(acc.end_step().degree, 4);
/// assert_eq!(acc.drain_totals().extra_cycles, 3);
/// ```
#[derive(Debug, Clone)]
pub struct StepAccumulator {
    model: BankModel,
    totals: ConflictTotals,
    /// Generation counter; an address whose stamp differs has not been
    /// seen this step. 32 bits keep the address table at cache-friendly
    /// density; `begin_step` clears the table on the (essentially
    /// unreachable) wrap.
    stamp: u32,
    /// Per-address stamp: deduplicates broadcast accesses within a step.
    addr_stamp: Vec<u32>,
    /// Distinct addresses each bank received in the open step; all zero
    /// between steps (`end_step` zeroes them as it reduces).
    bank_distinct: Vec<u32>,
    /// Lanes that issued a request this step (broadcasts included).
    active: usize,
}

impl StepAccumulator {
    /// New accumulator for a tile of `words` physical addresses.
    ///
    /// Addresses at or beyond `words` are still accepted (the stamp table
    /// grows), so a padded physical layout only needs its nominal length
    /// here.
    #[must_use]
    pub fn new(model: BankModel, words: usize) -> Self {
        Self {
            model,
            totals: ConflictTotals::default(),
            stamp: 0,
            addr_stamp: vec![0; words],
            bank_distinct: vec![0; model.banks()],
            active: 0,
        }
    }

    /// Open a fresh step. Any accesses recorded before the next
    /// [`StepAccumulator::end_step`] belong to it; accesses of a step
    /// left unclosed are dropped.
    #[inline]
    pub fn begin_step(&mut self) {
        if self.active != 0 {
            self.bank_distinct.fill(0);
            self.active = 0;
        }
        if self.stamp == u32::MAX {
            self.addr_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// One lane's request of physical address `addr` in the current step.
    #[inline]
    pub fn access(&mut self, addr: usize) {
        self.active += 1;
        if addr >= self.addr_stamp.len() {
            self.addr_stamp.resize(addr + 1, 0);
        }
        // A broadcast (the address already counted this step) adds zero.
        let fresh = self.addr_stamp[addr] != self.stamp;
        self.addr_stamp[addr] = self.stamp;
        self.bank_distinct[self.model.bank_of(addr)] += u32::from(fresh);
    }

    /// One lane's request of `addr` when the caller guarantees `addr` is
    /// distinct from every other address issued this step — merge-sort
    /// write staging, strided register traffic and coalesced fills all
    /// have this property by construction (their windows are disjoint).
    /// Skips the broadcast-dedupe table, which is the accumulator's only
    /// memory traffic proportional to the tile; the counted result is
    /// identical to [`StepAccumulator::access`] whenever the guarantee
    /// holds, and debug builds assert it per address.
    #[inline]
    pub fn access_distinct(&mut self, addr: usize) {
        self.active += 1;
        #[cfg(debug_assertions)]
        {
            if addr >= self.addr_stamp.len() {
                self.addr_stamp.resize(addr + 1, 0);
            }
            debug_assert_ne!(
                self.addr_stamp[addr], self.stamp,
                "access_distinct on an address repeated within the step"
            );
            self.addr_stamp[addr] = self.stamp;
        }
        self.bank_distinct[self.model.bank_of(addr)] += 1;
    }

    /// Close the current step, fold it into the totals and return its
    /// metrics. An idle step (no accesses) records nothing, matching
    /// `ConflictTotals::record`. One pass over the `w` bank counters
    /// reduces them and leaves them zeroed.
    #[inline]
    pub fn end_step(&mut self) -> StepConflicts {
        let mut degree = 0;
        let mut conflicting = 0;
        for m in &mut self.bank_distinct {
            let m = std::mem::take(m) as usize;
            degree = degree.max(m);
            conflicting += m * usize::from(m >= 2);
        }
        let s = StepConflicts {
            degree,
            conflicting_accesses: conflicting,
            crew_violations: 0,
            active_lanes: std::mem::take(&mut self.active),
        };
        self.totals.record(s);
        s
    }

    /// Fold `times` further steps with metrics identical to `s` into the
    /// totals, in O(1) — `record` is linear in the step, so this equals
    /// calling it `times` more times. For callers whose schedule makes
    /// consecutive steps provably identical: a set of contiguous windows
    /// advancing by one address per step shifts every address by +1,
    /// which rotates the bank assignment bijectively (`x mod w` →
    /// `x+1 mod w`) and therefore preserves every per-bank multiplicity —
    /// degree, conflicting accesses and active lanes cannot change.
    /// (Only on an *unpadded* layout: padding displaces addresses by
    /// `addr/w`, which is not a uniform shift across lanes.)
    #[inline]
    pub fn repeat_step(&mut self, s: StepConflicts, times: usize) {
        if s.active_lanes == 0 || times == 0 {
            return;
        }
        self.totals.steps += times;
        self.totals.cycles += times * s.degree;
        self.totals.conflicting_accesses += times * s.conflicting_accesses;
        self.totals.extra_cycles += times * s.extra_cycles();
        self.totals.max_degree = self.totals.max_degree.max(s.degree);
        self.totals.crew_violations += times * s.crew_violations;
        self.totals.accesses += times * s.active_lanes;
    }

    /// Return the running totals and reset them (mirrors
    /// `SharedMemory::drain_totals`, so phase attribution works the same
    /// way on both backends).
    pub fn drain_totals(&mut self) -> ConflictTotals {
        let t = self.totals;
        self.totals = ConflictTotals::default();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::WarpStep;
    use crate::conflict::ConflictCounter;
    use proptest::prelude::*;

    /// Record one whole step from an address iterator.
    fn step(acc: &mut StepAccumulator, addrs: impl IntoIterator<Item = usize>) -> StepConflicts {
        acc.begin_step();
        for a in addrs {
            acc.access(a);
        }
        acc.end_step()
    }

    #[test]
    fn matches_counter_on_canonical_steps() {
        let cases: &[&[usize]] = &[
            &(0..32).collect::<Vec<_>>(), // conflict-free
            &[0, 32, 64, 96],             // 4-way in bank 0
            &[5; 32],                     // broadcast
            &[0, 16, 32, 1, 17, 2],       // mixed degrees (w = 16 below)
        ];
        for w in [16usize, 32] {
            for addrs in cases {
                let mut fast = StepAccumulator::new(BankModel::new(w), 128);
                let mut slow = ConflictCounter::new(BankModel::new(w));
                let f = step(&mut fast, addrs.iter().copied());
                let s = slow.count(&WarpStep::all_read(addrs));
                assert_eq!(f, s, "w={w} addrs={addrs:?}");
            }
        }
    }

    #[test]
    fn idle_step_records_nothing() {
        let mut acc = StepAccumulator::new(BankModel::gpu32(), 8);
        acc.begin_step();
        let s = acc.end_step();
        assert_eq!(s.degree, 0);
        assert_eq!(acc.totals, ConflictTotals::default());
    }

    #[test]
    fn totals_drain_like_shared_memory() {
        let mut acc = StepAccumulator::new(BankModel::new(4), 32);
        step(&mut acc, [0usize, 4]);
        let t = acc.drain_totals();
        assert_eq!(t.steps, 1);
        assert_eq!(t.cycles, 2);
        assert_eq!(acc.totals, ConflictTotals::default());
    }

    #[test]
    fn repeat_step_equals_repeated_records() {
        let addrs = [0usize, 8, 16, 3]; // two 2-way conflicts under w=8… degree 3 in bank 0
        let mut looped = StepAccumulator::new(BankModel::new(8), 32);
        for _ in 0..5 {
            step(&mut looped, addrs.iter().copied());
        }
        let mut folded = StepAccumulator::new(BankModel::new(8), 32);
        let s = step(&mut folded, addrs.iter().copied());
        folded.repeat_step(s, 4);
        assert_eq!(folded.totals, looped.totals);
        // Idle steps fold to nothing, like `record`.
        folded.repeat_step(
            StepConflicts {
                degree: 0,
                conflicting_accesses: 0,
                crew_violations: 0,
                active_lanes: 0,
            },
            3,
        );
        assert_eq!(folded.totals, looped.totals);
    }

    #[test]
    fn grows_past_nominal_words() {
        let mut acc = StepAccumulator::new(BankModel::new(8), 4);
        let s = step(&mut acc, [100usize, 108]); // both bank 4, beyond nominal len
        assert_eq!(s.degree, 2);
    }

    #[test]
    fn begin_step_drops_an_unclosed_step() {
        let mut acc = StepAccumulator::new(BankModel::new(8), 32);
        acc.begin_step();
        acc.access(0);
        acc.access_distinct(8);
        let s = step(&mut acc, [16usize, 1]);
        assert_eq!((s.degree, s.conflicting_accesses, s.active_lanes), (1, 0, 2));
        assert_eq!(acc.totals.steps, 1);
    }

    #[test]
    fn stamp_wrap_matches_conflict_counter() {
        let model = BankModel::new(8);
        let mut fast = StepAccumulator::new(model, 32);
        let mut slow = ConflictCounter::new(model);
        // The first step stamps its addresses 1, the stamp the wrap
        // restarts from, and the first step after the wrap reuses them:
        // a wrap that kept the address table would dedupe them as
        // broadcasts there.
        let first: &[usize] = &[5, 13, 21, 5];
        let across_wrap: &[&[usize]] = &[
            &[0, 8, 8, 16, 1],     // stamp MAX-1
            &[16, 16, 0, 2, 10],   // stamp MAX
            &[5, 13, 21, 5, 5, 3], // wrap: stamp 1 again
            &[0, 8, 0, 8, 40],
            &[21, 13, 5, 29, 29],
            &[7, 7, 7, 7],
        ];
        let s = slow.count(&WarpStep::all_read(first));
        assert_eq!(step(&mut fast, first.iter().copied()), s);
        fast.stamp = u32::MAX - 2;
        for addrs in across_wrap {
            let s = slow.count(&WarpStep::all_read(addrs));
            assert_eq!(step(&mut fast, addrs.iter().copied()), s, "addrs={addrs:?}");
        }
        assert_eq!(fast.stamp, 4, "the wrap was crossed");
        assert_eq!(fast.totals, slow.totals());
    }

    /// One step of a generated schedule, driven through one entry point.
    #[derive(Debug, Clone)]
    enum Op {
        /// `access` per lane; repeated addresses broadcast.
        Access(Vec<usize>),
        /// `access_distinct` per lane on addresses deduplicated up front.
        Distinct(Vec<usize>),
        /// `repeat_step` of the last recorded step, this many more times.
        Repeat(usize),
        /// A step in which no lane issues a request.
        Idle,
    }

    fn op() -> impl Strategy<Value = Op> {
        let addrs = || proptest::collection::vec(0usize..256, 0..40);
        prop_oneof![
            addrs().prop_map(Op::Access),
            addrs().prop_map(|mut a| {
                let mut seen = [false; 256];
                a.retain(|&x| !std::mem::replace(&mut seen[x], true));
                Op::Distinct(a)
            }),
            (0usize..4).prop_map(Op::Repeat),
            Just(Op::Idle),
        ]
    }

    proptest! {
        /// The count-then-reduce engine and the sort-and-scan engine
        /// agree on every metric for arbitrary multi-step read schedules
        /// through every entry point — broadcasting and distinct steps,
        /// folded repeats and idle steps interleaved — with addresses
        /// past the nominal table length.
        #[test]
        fn agrees_with_conflict_counter(
            w in 1usize..40,
            words in 0usize..64,
            ops in proptest::collection::vec(op(), 1..12),
        ) {
            let mut fast = StepAccumulator::new(BankModel::new(w), words);
            let mut slow = ConflictCounter::new(BankModel::new(w));
            let mut last: Option<(StepConflicts, &[usize])> = None;
            for op in &ops {
                let addrs: &[usize] = match op {
                    Op::Access(addrs) | Op::Distinct(addrs) => addrs,
                    Op::Idle => &[],
                    Op::Repeat(times) => {
                        if let Some((f, addrs)) = last {
                            fast.repeat_step(f, *times);
                            for _ in 0..*times {
                                slow.count(&WarpStep::all_read(addrs));
                            }
                        }
                        continue;
                    }
                };
                let f = if matches!(op, Op::Distinct(_)) {
                    fast.begin_step();
                    for &a in addrs {
                        fast.access_distinct(a);
                    }
                    fast.end_step()
                } else {
                    step(&mut fast, addrs.iter().copied())
                };
                prop_assert_eq!(f, slow.count(&WarpStep::all_read(addrs)));
                last = Some((f, addrs));
            }
            prop_assert_eq!(fast.totals, slow.totals());
        }
    }
}
