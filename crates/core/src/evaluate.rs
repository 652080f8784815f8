//! Analytic evaluation of a warp assignment on the DMM.
//!
//! Given a [`WarpAssignment`], derive the exact `E`-step shared-memory
//! access pattern of the warp's merging stage (each thread scans its two
//! chunks in increasing key order) and measure it with the DMM conflict
//! counter. This is the fast, single-warp counterpart of running the full
//! simulated sort, and the oracle the theorem tests check against.

use wcms_dmm::{
    BankMatrix, BankModel, CellClass, ConflictCounter, ConflictTotals, MatrixCell, WarpStep,
};

use crate::assignment::{ScanFirst, WarpAssignment};

/// Result of evaluating one warp's merging stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpEval {
    /// Elements read in step `j` while residing in bank `(s + j) mod w` —
    /// the paper's *aligned* elements.
    pub aligned: usize,
    /// Per-step serialization degree (max distinct addresses per bank).
    pub degrees: Vec<usize>,
    /// Per-step number of accesses landing in the expected window bank
    /// `(s + j) mod w` — the quantity the constructions drive to `E`.
    pub window_multiplicity: Vec<usize>,
    /// Full conflict totals of the `E` steps.
    pub totals: ConflictTotals,
}

impl WarpEval {
    /// Serialized shared-memory cycles of the merging stage (Σ degrees).
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.totals.cycles
    }
}

/// Per-thread access address sequences (step → shared-memory address).
///
/// Addresses place the warp's `A` segment at 0 and its `B` segment at the
/// next multiple-of-`w` boundary (in the real tile both segments start at
/// bank 0; see DESIGN.md §5.2).
#[must_use]
pub fn address_sequences(asg: &WarpAssignment) -> Vec<Vec<usize>> {
    let b_base = asg.share_a().div_ceil(asg.w) * asg.w;
    let offsets = asg.thread_offsets();
    asg.threads
        .iter()
        .zip(offsets)
        .map(|(t, (pa, pb))| {
            let a_chunk = (0..t.a).map(|k| pa + k);
            let b_chunk = (0..t.b).map(|k| b_base + pb + k);
            match t.first {
                ScanFirst::A => a_chunk.chain(b_chunk).collect(),
                ScanFirst::B => b_chunk.chain(a_chunk).collect(),
            }
        })
        .collect()
}

/// Evaluate the warp's merging stage.
///
/// # Errors
///
/// Returns [`wcms_error::WcmsError::InvalidAssignment`] if the
/// assignment fails `WarpAssignment::validate`.
pub fn evaluate(asg: &WarpAssignment) -> Result<WarpEval, wcms_error::WcmsError> {
    asg.validate()?;
    let model = BankModel::new(asg.w);
    let mut counter = ConflictCounter::new(model);
    let seqs = address_sequences(asg);

    let mut aligned = 0usize;
    let mut degrees = Vec::with_capacity(asg.e);
    let mut window_multiplicity = Vec::with_capacity(asg.e);
    let mut addrs = vec![0usize; asg.w];

    for j in 0..asg.e {
        for (lane, seq) in seqs.iter().enumerate() {
            addrs[lane] = seq[j];
        }
        let step = WarpStep::all_read(&addrs);
        let s = counter.count(&step);
        degrees.push(s.degree);
        let expected_bank = (asg.window_start + j) % asg.w;
        let mult = addrs.iter().filter(|&&a| model.bank_of(a) == expected_bank).count();
        window_multiplicity.push(mult);
        aligned += mult;
    }
    Ok(WarpEval { aligned, degrees, window_multiplicity, totals: counter.totals() })
}

/// Build the Figure 1/3-style matrix: every element of the warp's window,
/// labelled with its owning thread and classified as aligned (`=`),
/// misaligned within the `E` banks (`!`), or filler (`.`).
#[must_use]
pub fn access_matrix(asg: &WarpAssignment) -> BankMatrix {
    let model = BankModel::new(asg.w);
    let seqs = address_sequences(asg);
    let max_addr = seqs.iter().flatten().copied().max().unwrap_or(0);
    let mut m = BankMatrix::new(model, model.column_of(max_addr) + 1);
    let in_window = |bank: usize| bank >= asg.window_start && bank < asg.window_start + asg.e;
    for (thread, seq) in seqs.iter().enumerate() {
        for (j, &addr) in seq.iter().enumerate() {
            let bank = model.bank_of(addr);
            let class = if bank == (asg.window_start + j) % asg.w {
                CellClass::Aligned
            } else if in_window(bank) {
                CellClass::Misaligned
            } else {
                CellClass::Filler
            };
            m.set_addr(addr, MatrixCell::Owned { thread, class });
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::ThreadAssign;

    /// A hand-built perfectly-aligned toy: w = 4, E = 3,
    /// |A| = 8 (2 columns), |B| = 4 (1 column).
    /// t0: 3 from A (col 0 of A, banks 0..3 → aligned).
    /// t1: 3 from B (col 0 of B → aligned).
    /// t2: 1 from A (bank 3, filler) + 2 from B (bank 3 … wait B done) —
    /// instead craft: t2: 1A + 2B? B has only 3. Use |B|=4: t2: 1A,2B
    /// hits B banks 3,0 … keep it simple and just assert the evaluator's
    /// arithmetic on a fully-A warp.
    #[test]
    fn sorted_warp_every_thread_own_column_when_e_divides_w() {
        // w = 4, E = 4 (power of two): sorted order, all from A.
        // Thread i reads addresses 4i..4i+4 → at step j every thread is in
        // bank j → degree 4 every step.
        let asg = WarpAssignment {
            w: 4,
            e: 4,
            window_start: 0,
            threads: vec![ThreadAssign { a: 4, b: 0, first: ScanFirst::A }; 4],
        };
        let ev = evaluate(&asg).unwrap();
        assert_eq!(ev.degrees, vec![4; 4]);
        assert_eq!(ev.window_multiplicity, vec![4; 4]);
        assert_eq!(ev.aligned, 16);
        assert_eq!(ev.cycles(), 16);
        assert_eq!(ev.totals.conflicting_accesses, 16);
    }

    #[test]
    fn interleaved_sorted_warp_is_conflict_light() {
        // w = 4, E = 3, every thread takes 3 consecutive from A: thread i
        // starts at bank 3i mod 4 — a rotation, so every step hits 4
        // distinct banks (gcd(3,4) = 1 → conflict-free steps).
        let asg = WarpAssignment {
            w: 4,
            e: 3,
            window_start: 0,
            threads: vec![ThreadAssign { a: 3, b: 0, first: ScanFirst::A }; 4],
        };
        let ev = evaluate(&asg).unwrap();
        assert_eq!(ev.degrees, vec![1; 3]);
        assert_eq!(ev.totals.extra_cycles, 0);
    }

    #[test]
    fn address_sequences_respect_scan_order() {
        let asg = WarpAssignment {
            w: 2,
            e: 3,
            window_start: 0,
            threads: vec![
                ThreadAssign { a: 2, b: 1, first: ScanFirst::A },
                ThreadAssign { a: 1, b: 2, first: ScanFirst::B },
            ],
        };
        let seqs = address_sequences(&asg);
        // share_a = 3 → B base rounds up to 4.
        assert_eq!(seqs[0], vec![0, 1, 4]);
        assert_eq!(seqs[1], vec![5, 6, 2]);
    }

    #[test]
    fn aligned_counts_window_hits_only() {
        // w = 4, E = 2, window at bank 0: thread 0 reads banks 0,1
        // (aligned twice); thread 1 reads banks 2,3 (filler).
        let asg = WarpAssignment {
            w: 4,
            e: 2,
            window_start: 0,
            threads: vec![
                ThreadAssign { a: 2, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 2, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 0, b: 2, first: ScanFirst::B },
                ThreadAssign { a: 0, b: 2, first: ScanFirst::B },
            ],
        };
        let ev = evaluate(&asg).unwrap();
        // Threads 0/1 read A banks (0,1) and (2,3); threads 2/3 read B
        // banks (0,1), (2,3). Step 0: banks {0,2,0,2} → window bank 0
        // multiplicity 2.
        assert_eq!(ev.window_multiplicity, vec![2, 2]);
        assert_eq!(ev.aligned, 4);
    }

    #[test]
    fn matrix_classification() {
        let asg = WarpAssignment {
            w: 4,
            e: 2,
            window_start: 0,
            threads: vec![
                ThreadAssign { a: 2, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 2, b: 0, first: ScanFirst::A },
                ThreadAssign { a: 0, b: 2, first: ScanFirst::B },
                ThreadAssign { a: 0, b: 2, first: ScanFirst::B },
            ],
        };
        let m = access_matrix(&asg);
        // Aligned: thread 0's two A elements and thread 2's two B
        // elements (banks 0,1 at steps 0,1).
        assert_eq!(m.count_class(CellClass::Aligned), 4);
        // Banks 2,3 hold thread 1's and thread 3's elements: filler.
        assert_eq!(m.count_class(CellClass::Filler), 4);
        assert_eq!(m.count_class(CellClass::Misaligned), 0);
    }

    #[test]
    fn evaluate_rejects_invalid() {
        let asg = WarpAssignment {
            w: 2,
            e: 3,
            window_start: 0,
            threads: vec![ThreadAssign { a: 1, b: 1, first: ScanFirst::A }; 2],
        };
        let err = evaluate(&asg).unwrap_err();
        assert!(matches!(err, wcms_error::WcmsError::InvalidAssignment { .. }), "{err}");
    }
}
