//! Property-based tests of the DMM conflict accounting.

use proptest::prelude::*;
use wcms_dmm::{Access, BankModel, ConflictCounter, ConflictTotals, StepConflicts, WarpStep};

fn arb_addrs() -> impl Strategy<Value = (usize, Vec<usize>)> {
    // (bank count, addresses)
    (prop_oneof![Just(8usize), Just(16), Just(32)], proptest::collection::vec(0usize..4096, 1..64))
        .prop_map(|(w, addrs)| (w, addrs))
}

/// One generated case on a `w`-bank model: a pool of addresses and one
/// to three steps of lanes that each idle (a pool index past the end) or
/// read or write a pool address, so broadcasts and several writers per
/// address are common.
type OracleCase = (usize, Vec<u32>, Vec<Vec<(usize, bool)>>);

fn arb_oracle_case() -> impl Strategy<Value = OracleCase> {
    // The pool is a base address — low, at the top of the `u32` key
    // domain, or anywhere in it — and copies of it one bit apart, so a
    // key that dropped or truncated any address bit would alias two of
    // them.
    let base = prop_oneof![0u32..256, (u32::MAX - 255)..=u32::MAX, 0u32..=u32::MAX];
    let pool = (base, proptest::collection::vec(0u32..32, 0..8)).prop_map(|(base, flips)| {
        std::iter::once(base).chain(flips.into_iter().map(|bit| base ^ (1 << bit))).collect()
    });
    let lanes = proptest::collection::vec((0usize..10, proptest::bool::ANY), 0..80);
    (
        prop_oneof![Just(1usize), Just(3), Just(12), Just(32), Just(64)],
        pool,
        proptest::collection::vec(lanes, 1..4),
    )
}

/// The O(lanes²) reference: a lane's address is distinct in its bank if
/// no earlier lane requested it; a write violates CREW if another lane
/// reads its address or an earlier lane writes it.
fn oracle(model: BankModel, lanes: &[(u32, bool)]) -> StepConflicts {
    let mut distinct = std::collections::BTreeMap::<usize, usize>::new();
    let mut crew = 0usize;
    for (i, &(addr, write)) in lanes.iter().enumerate() {
        if lanes[..i].iter().all(|&(a, _)| a != addr) {
            *distinct.entry(model.bank_of(addr as usize)).or_default() += 1;
        }
        let raced =
            lanes.iter().enumerate().any(|(j, &(a, w))| j != i && a == addr && (!w || j < i));
        crew += usize::from(write && raced);
    }
    StepConflicts {
        degree: distinct.values().copied().max().unwrap_or(0),
        conflicting_accesses: distinct.values().filter(|&&d| d >= 2).sum(),
        crew_violations: crew,
        active_lanes: lanes.len(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every metric of the sort-and-scan counter equals the brute-force
    /// oracle on mixed read/write/idle steps — broadcasts, several
    /// writers per address, addresses up to `u32::MAX` — on power-of-two
    /// and other bank counts, one counter reused across steps.
    #[test]
    fn counter_matches_brute_force_oracle((w, pool, steps) in arb_oracle_case()) {
        let model = BankModel::new(w);
        let mut c = ConflictCounter::new(model);
        let mut totals = ConflictTotals::default();
        for lanes in &steps {
            let mut step = WarpStep::idle(lanes.len());
            let mut active = Vec::new();
            for (lane, &(pick, write)) in lanes.iter().enumerate() {
                let Some(&addr) = pool.get(pick) else { continue };
                step.set(lane, if write { Access::write(addr) } else { Access::read(addr) });
                active.push((addr, write));
            }
            let want = oracle(model, &active);
            prop_assert_eq!(c.count(&step), want, "w={} lanes={:?}", w, active);
            if want.active_lanes > 0 {
                totals.merge(&ConflictTotals {
                    steps: 1,
                    cycles: want.degree,
                    conflicting_accesses: want.conflicting_accesses,
                    extra_cycles: want.degree - 1,
                    max_degree: want.degree,
                    crew_violations: want.crew_violations,
                    accesses: want.active_lanes,
                });
            }
        }
        prop_assert_eq!(c.totals(), totals);
    }
}

proptest! {
    /// degree is bounded by the number of distinct addresses and by the
    /// active lane count, and is at least ⌈distinct/w⌉ (pigeonhole).
    #[test]
    fn degree_bounds((w, addrs) in arb_addrs()) {
        let mut c = ConflictCounter::new(BankModel::new(w));
        let s = c.count(&WarpStep::all_read(&addrs));
        let mut distinct = addrs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert!(s.degree >= 1);
        prop_assert!(s.degree <= distinct.len());
        prop_assert!(s.degree <= addrs.len());
        prop_assert!(s.degree >= distinct.len().div_ceil(w));
        prop_assert_eq!(s.active_lanes, addrs.len());
        prop_assert_eq!(s.crew_violations, 0, "reads never violate CREW");
    }

    /// Reads are broadcast: duplicating lanes never changes the degree.
    #[test]
    fn broadcast_invariance((w, addrs) in arb_addrs()) {
        let mut c = ConflictCounter::new(BankModel::new(w));
        let base = c.analyze(&WarpStep::all_read(&addrs));
        let doubled: Vec<usize> = addrs.iter().chain(addrs.iter()).copied().collect();
        let dup = c.analyze(&WarpStep::all_read(&doubled));
        prop_assert_eq!(base.degree, dup.degree);
        prop_assert_eq!(base.conflicting_accesses, dup.conflicting_accesses);
    }

    /// A uniform shift by a multiple of w maps every address to the same
    /// bank: conflict metrics are invariant.
    #[test]
    fn shift_by_w_invariance((w, addrs) in arb_addrs(), k in 0usize..8) {
        let mut c = ConflictCounter::new(BankModel::new(w));
        let base = c.analyze(&WarpStep::all_read(&addrs));
        let shifted: Vec<usize> = addrs.iter().map(|a| a + k * w).collect();
        let s = c.analyze(&WarpStep::all_read(&shifted));
        prop_assert_eq!(base.degree, s.degree);
        prop_assert_eq!(base.conflicting_accesses, s.conflicting_accesses);
    }

    /// Totals reduce associatively: counting steps in one counter equals
    /// merging two counters that split the steps.
    #[test]
    fn totals_merge_is_concat((w, addrs) in arb_addrs(), split in 0usize..64) {
        let steps: Vec<WarpStep> =
            addrs.chunks(4).map(WarpStep::all_read).collect();
        let split = split % (steps.len() + 1);

        let mut all = ConflictCounter::new(BankModel::new(w));
        for s in &steps {
            all.count(s);
        }
        let mut left = ConflictCounter::new(BankModel::new(w));
        let mut right = ConflictCounter::new(BankModel::new(w));
        for (i, s) in steps.iter().enumerate() {
            if i < split { left.count(s); } else { right.count(s); }
        }
        let mut merged: ConflictTotals = left.totals();
        merged.merge(&right.totals());
        prop_assert_eq!(merged, all.totals());
    }

    /// conflicting_accesses is consistent with degree: zero iff degree
    /// ≤ 1, and at least degree when ≥ 2.
    #[test]
    fn conflicting_accesses_consistency((w, addrs) in arb_addrs()) {
        let mut c = ConflictCounter::new(BankModel::new(w));
        let s = c.analyze(&WarpStep::all_read(&addrs));
        if s.degree <= 1 {
            prop_assert_eq!(s.conflicting_accesses, 0);
        } else {
            prop_assert!(s.conflicting_accesses >= s.degree);
        }
    }
}
