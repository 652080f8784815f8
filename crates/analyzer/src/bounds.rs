//! Pass 1 — the symbolic worst-case bound verifier.
//!
//! Statically proves, **without executing any backend or DMM counter**,
//! that the paper's constructions attain their closed-form aligned-element
//! counts: Theorem 3 (`E²` for odd `E < w/2`), Theorem 9
//! (`½(E² + E + 2Er − r² − r)`, `r = w − E`, for odd `w/2 < E < w`), the
//! power-of-two case (`d = gcd(w, E) = E`, sorted order aligns `E²`), and
//! the general shared-factor case (`d > 1`, sorted order aligns `d·E`).
//!
//! The engine is one number-theoretic observation (the heart of Lemmas
//! 2/7/8): a thread scans each of its chunks at *consecutive* addresses,
//! one per step, while the expected "window bank" also advances one bank
//! per step. A chunk whose first address is `a₀` and whose first step is
//! `j₀` therefore lands in the expected bank `(s + j) mod w` at **every**
//! step it covers, or at **none**, decided by the single congruence
//! `a₀ − j₀ ≡ s (mod w)`. Aligned counts and per-step window
//! multiplicities are then interval sums over the chunks that satisfy
//! their congruence — pure arithmetic over the assignment's shares
//! (`alignment_of_assignment`) or over any schedule-IR address stream
//! decomposed into maximal stride-1 runs (`alignment_of_seqs`).

use wcms_core::assignment::{ScanFirst, WarpAssignment};
use wcms_core::numtheory::gcd;
use wcms_core::sorted_case::sorted_warp;
use wcms_core::{construct, theorem_aligned_count};
use wcms_error::WcmsError;

/// Which regime of the paper covers a given `(w, E)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCase {
    /// Odd `E` co-prime with `w`, `3 ≤ E < w/2` — Theorem 3.
    SmallOdd,
    /// Odd `E` co-prime with `w`, `w/2 < E < w` — Theorem 9.
    LargeOdd {
        /// `r = w − E`, the theorem's remainder parameter.
        r: usize,
    },
    /// `E = 2^k ≥ 2`: `d = gcd(w, E) = E`, sorted order is itself the
    /// worst case with `E²` aligned elements.
    PowerOfTwo,
    /// Any other `E` (shared factor `d = gcd(w, E) > 1`, or the
    /// degenerate `E = 1`): sorted order aligns `d·E` elements with
    /// uniform per-step degree `d`.
    Sorted {
        /// `d = gcd(w, E)`.
        d: usize,
    },
}

impl BoundCase {
    /// Short display name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BoundCase::SmallOdd => "theorem-3",
            BoundCase::LargeOdd { .. } => "theorem-9",
            BoundCase::PowerOfTwo => "power-of-two",
            BoundCase::Sorted { .. } => "shared-factor",
        }
    }
}

/// Classify `(w, E)` into the regime whose closed form applies.
#[must_use]
pub fn classify(w: usize, e: usize) -> BoundCase {
    if wcms_core::small_e::is_small_e(w, e) {
        BoundCase::SmallOdd
    } else if wcms_core::large_e::is_large_e(w, e) {
        BoundCase::LargeOdd { r: w - e }
    } else if e >= 2 && e.is_power_of_two() {
        BoundCase::PowerOfTwo
    } else {
        BoundCase::Sorted { d: gcd(w as u64, e as u64) as usize }
    }
}

/// The closed-form aligned-element count the paper proves for `(w, E)`.
///
/// # Errors
///
/// Propagates [`WcmsError::NonCoprime`] from `theorem_aligned_count`
/// (cannot happen for `classify`-admitted regimes, but the analyzer's
/// own lint forbids panicking on it).
fn closed_form_aligned(w: usize, e: usize) -> Result<usize, WcmsError> {
    match classify(w, e) {
        BoundCase::SmallOdd | BoundCase::LargeOdd { .. } => theorem_aligned_count(w, e),
        BoundCase::PowerOfTwo => Ok(e * e),
        BoundCase::Sorted { d } => Ok(d * e),
    }
}

/// The worst-case warp assignment for `(w, E)`: the paper's construction
/// where one exists, sorted order otherwise (where sorted order *is* the
/// worst case or the best known bound).
///
/// # Errors
///
/// Propagates [`WcmsError::NonCoprime`] from the constructions (cannot
/// happen for `classify`-admitted regimes).
pub(crate) fn reference_assignment(w: usize, e: usize) -> Result<WarpAssignment, WcmsError> {
    match classify(w, e) {
        BoundCase::SmallOdd | BoundCase::LargeOdd { .. } => construct(w, e),
        BoundCase::PowerOfTwo | BoundCase::Sorted { .. } => Ok(sorted_warp(w, e)),
    }
}

/// Result of the symbolic alignment pass: the statically derived
/// counterparts of what `wcms_core::evaluate` measures with the DMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StaticAlignment {
    /// Total aligned elements (Σ of aligned chunk lengths).
    pub(crate) aligned: usize,
    /// Per-step window multiplicity: how many accesses land in the
    /// expected bank `(s + j) mod w` at step `j`.
    pub(crate) multiplicity: Vec<usize>,
    /// Lower bound on the merge stage's serialized cycles:
    /// Σⱼ max(multiplicityⱼ, 1).
    pub(crate) min_cycles: usize,
    /// Chunks (maximal stride-1 runs) the pass examined.
    chunks: usize,
}

impl StaticAlignment {
    fn from_multiplicity(multiplicity: Vec<usize>, chunks: usize) -> Self {
        let aligned = multiplicity.iter().sum();
        let min_cycles = multiplicity.iter().map(|&m| m.max(1)).sum();
        Self { aligned, multiplicity, min_cycles, chunks }
    }
}

/// Symbolically derive the aligned-element structure of an assignment's
/// merging stage from its *shares alone* — no addresses are
/// materialised, no DMM runs.
///
/// Each thread contributes at most two chunks. With prefix offsets
/// `(pa, pb)` (from [`WarpAssignment::thread_offsets`]) and window start
/// bank `s`, the chunk congruences are:
///
/// * scan `A` first: `A`-chunk over steps `[0, a)` aligned iff
///   `pa ≡ s (mod w)`; `B`-chunk over `[a, E)` aligned iff
///   `pb ≡ s + a (mod w)` (the `B` segment starts on a bank-0 boundary,
///   so only `pb mod w` matters);
/// * scan `B` first: `B`-chunk over `[0, b)` aligned iff
///   `pb ≡ s (mod w)`; `A`-chunk over `[b, E)` aligned iff
///   `pa ≡ s + b (mod w)`.
#[must_use]
pub(crate) fn alignment_of_assignment(asg: &WarpAssignment) -> StaticAlignment {
    let (w, e, s) = (asg.w, asg.e, asg.window_start);
    let mut mult = vec![0usize; e];
    let mut chunks = 0usize;
    let mut cover = |from: usize, to: usize, holds: bool| {
        if from < to {
            chunks += 1;
            if holds {
                for m in &mut mult[from..to] {
                    *m += 1;
                }
            }
        }
    };
    for (t, (pa, pb)) in asg.threads.iter().zip(asg.thread_offsets()) {
        match t.first {
            ScanFirst::A => {
                cover(0, t.a, pa % w == s % w);
                cover(t.a, e, pb % w == (s + t.a) % w);
            }
            ScanFirst::B => {
                cover(0, t.b, pb % w == s % w);
                cover(t.b, e, pa % w == (s + t.b) % w);
            }
        }
    }
    StaticAlignment::from_multiplicity(mult, chunks)
}

/// The same symbolic pass over schedule IR: per-thread address streams
/// (e.g. [`wcms_mergesort::schedule::MergeSchedule::merge_seqs`] for one
/// warp, or [`wcms_core::evaluate::address_sequences`]) are decomposed
/// into maximal stride-1 runs, and each run's alignment is decided by
/// its single congruence `a₀ − j₀ ≡ s (mod w)` — still no DMM.
///
/// `steps` is the merge-stage length `E`; streams shorter than `steps`
/// simply contribute fewer runs.
#[must_use]
fn alignment_of_seqs(
    w: usize,
    steps: usize,
    window_start: usize,
    seqs: &[Vec<usize>],
) -> StaticAlignment {
    let s = window_start % w;
    let mut mult = vec![0usize; steps];
    let mut chunks = 0usize;
    for seq in seqs {
        let mut run_start = 0usize;
        let mut j = 0usize;
        while j < seq.len().min(steps) {
            let next = j + 1;
            let run_ends = next >= seq.len().min(steps) || seq[next] != seq[j] + 1;
            if run_ends {
                chunks += 1;
                // Run covers steps [run_start, next) starting at address
                // seq[run_start]; aligned iff a₀ − j₀ ≡ s (mod w).
                if (seq[run_start] + w - run_start % w) % w == s {
                    for m in &mut mult[run_start..next] {
                        *m += 1;
                    }
                }
                run_start = next;
            }
            j = next;
        }
    }
    StaticAlignment::from_multiplicity(mult, chunks)
}

/// The verdict of the symbolic verifier for one `(w, E)`.
#[derive(Debug, Clone)]
pub struct BoundVerdict {
    /// Elements per thread.
    pub e: usize,
    /// Which closed form applies.
    pub case: BoundCase,
    /// Aligned count the symbolic pass derived.
    pub aligned: usize,
    /// Aligned count the closed form predicts.
    pub closed_form: usize,
    /// Static lower bound on merge-stage cycles.
    pub min_cycles: usize,
    /// Everything the verifier found wrong (empty = the bound is proved).
    pub failures: Vec<String>,
}

impl BoundVerdict {
    /// True iff every static check passed.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Verify the closed-form bound for one `(w, E)`: derive the alignment
/// structure symbolically (twice — from the shares and from the
/// materialised address streams, as independent derivations), and assert
/// it equals the applicable closed form with the per-case multiplicity
/// profile.
///
/// # Errors
///
/// Propagates construction errors for inadmissible `(w, E)` (zero or
/// `E ≥ w`).
pub fn verify_bound(w: usize, e: usize) -> Result<BoundVerdict, WcmsError> {
    if w == 0 || e == 0 {
        return Err(WcmsError::ZeroParam { name: if w == 0 { "w" } else { "E" } });
    }
    if e >= w {
        return Err(WcmsError::NonCoprime { w, e });
    }
    let case = classify(w, e);
    let asg = reference_assignment(w, e)?;
    let from_shares = alignment_of_assignment(&asg);
    let from_ir =
        alignment_of_seqs(w, e, asg.window_start, &wcms_core::evaluate::address_sequences(&asg));
    let closed_form = closed_form_aligned(w, e)?;

    let mut failures = Vec::new();
    if from_shares != from_ir {
        failures.push(format!(
            "share-level and IR-level derivations disagree: {from_shares:?} vs {from_ir:?}"
        ));
    }
    if from_shares.aligned != closed_form {
        failures.push(format!(
            "symbolic aligned count {} != closed form {closed_form}",
            from_shares.aligned
        ));
    }
    // Per-case multiplicity profile: the uniform regimes pin every step.
    let uniform = match case {
        BoundCase::SmallOdd | BoundCase::PowerOfTwo => Some(e),
        BoundCase::Sorted { d } => Some(d),
        BoundCase::LargeOdd { .. } => None,
    };
    if let Some(k) = uniform {
        if from_shares.multiplicity.iter().any(|&m| m != k) {
            failures.push(format!(
                "expected uniform window multiplicity {k}, got {:?}",
                from_shares.multiplicity
            ));
        }
    } else if from_shares.multiplicity.iter().any(|&m| m > e) {
        // No step can align more than one element per thread-chunk layer
        // beyond the window height E.
        failures.push(format!(
            "a step's window multiplicity exceeds E: {:?}",
            from_shares.multiplicity
        ));
    }

    Ok(BoundVerdict {
        e,
        case,
        aligned: from_shares.aligned,
        closed_form,
        min_cycles: from_shares.min_cycles,
        failures,
    })
}

/// Verify every `E < w` (the acceptance grid: all of `1..w`).
///
/// # Errors
///
/// Same conditions as [`verify_bound`].
pub fn verify_grid(w: usize) -> Result<Vec<BoundVerdict>, WcmsError> {
    (1..w).map(|e| verify_bound(w, e)).collect()
}

// --- Multiway rounds ------------------------------------------------------

/// The symbolic verdict for one k-way multiway merge round.
///
/// Multiway rounds have a closed-form per-warp aligned count only when
/// they are **stride-regular** — every thread's merge stream is one
/// maximal stride-1 run, as happens when the k input runs concatenate
/// into sorted order and the merge is the identity. Then thread `T`
/// reads addresses `TE..TE+E` and its single congruence
/// `TE ≡ s (mod w)` holds for exactly `gcd(w, E)` threads per warp:
/// the per-warp aligned count is `d·E`, the same shared-factor form as
/// the pairwise sorted case. Irregular rounds (the general k-way
/// interleaving) have no known closed form; the verifier *reports*
/// their per-warp counts without judging them.
#[derive(Debug, Clone)]
pub struct MultiwayRoundVerdict {
    /// Which round this is ("sorted" identity, "interleaved" k-way).
    pub label: &'static str,
    /// Elements per thread.
    pub e: usize,
    /// Fan-in of the round.
    pub k: usize,
    /// Symbolic per-warp aligned counts (one entry per warp).
    pub per_warp_aligned: Vec<usize>,
    /// The `d·E` closed form, present only for stride-regular rounds.
    pub closed_form: Option<usize>,
    /// True when every thread's merge stream is one stride-1 run.
    pub stride_regular: bool,
    /// Closed-form violations (empty for irregular rounds by design —
    /// having no closed form is reported, never failed).
    pub failures: Vec<String>,
}

impl MultiwayRoundVerdict {
    /// True iff no closed-form check was violated.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Symbolically verify the k-way multiway merge rounds of one block
/// tile for `(w, E)` with `b = 4w` threads: materialise the round's
/// schedule IR ([`wcms_mergesort::schedule::MergeSchedule::multiway_merge`]),
/// run the per-warp alignment pass over each warp's merge streams, and
/// check the stride-regular round against its `d·E` closed form. Two
/// rounds are examined: the identity round (k runs concatenating into
/// sorted order — stride-regular, closed form applies) and the maximal
/// k-way interleaving (no closed form — reported only).
///
/// # Errors
///
/// Propagates [`WcmsError::InvalidBlock`]/[`WcmsError::ZeroParam`] from
/// parameter validation (`b = 4w` requires power-of-two `w`).
pub fn verify_multiway_rounds(
    w: usize,
    e: usize,
    k: usize,
) -> Result<Vec<MultiwayRoundVerdict>, WcmsError> {
    use wcms_mergesort::schedule::MergeSchedule;
    use wcms_mergesort::SortParams;

    let b = 4 * w;
    let params = SortParams::new(w, e, b)?;
    let tile = b * e;
    let k = k.clamp(2, tile);
    // Runs are consecutive equal-ish slices of the tile; the last run
    // absorbs the remainder so every key is merged exactly once.
    let split = |keys: &[u32]| -> Vec<Vec<u32>> {
        let chunk = (tile / k).max(1);
        let mut runs: Vec<Vec<u32>> = keys.chunks(chunk).map(<[u32]>::to_vec).collect();
        while runs.len() > k {
            let tail = runs.pop();
            if let (Some(tail), Some(last)) = (tail, runs.last_mut()) {
                last.extend(tail);
            }
        }
        runs
    };

    // Round 1: k sorted runs that concatenate into sorted order — the
    // merge is the identity and every thread reads one stride-1 run.
    let sorted: Vec<u32> = (0..tile as u32).collect();
    // Round 2: run i holds keys ≡ i (mod k) — the merge interleaves all
    // k runs at every step, the least regular k-way round.
    let mut interleaved = vec![0u32; tile];
    {
        let chunk = (tile / k).max(1);
        let mut pos = 0usize;
        for i in 0..k {
            let count = if i + 1 == k { tile - i * chunk } else { chunk };
            for j in 0..count {
                interleaved[pos] = (j * k + i) as u32;
                pos += 1;
            }
        }
    }

    let mut out = Vec::with_capacity(2);
    for (label, keys) in [("sorted", sorted), ("interleaved", interleaved)] {
        let runs = split(&keys);
        if runs.iter().any(|r| r.windows(2).any(|p| p[0] > p[1])) {
            return Err(WcmsError::ZeroParam { name: "multiway run (not sorted)" });
        }
        let parts: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        let sched = MergeSchedule::multiway_merge(&parts, &params);

        let warps = b / w;
        let mut per_warp_aligned = Vec::with_capacity(warps);
        let mut stride_regular = true;
        for g in 0..warps {
            let seqs = &sched.merge_seqs[g * w..(g + 1) * w];
            let sa = alignment_of_seqs(w, e, 0, seqs);
            // One maximal stride-1 run per thread ⇔ chunk count equals
            // the warp's thread count.
            stride_regular &= sa.chunks == w;
            per_warp_aligned.push(sa.aligned);
        }

        let d = gcd(w as u64, e as u64) as usize;
        let closed_form = stride_regular.then_some(d * e);
        let mut failures = Vec::new();
        if let Some(cf) = closed_form {
            for (g, &got) in per_warp_aligned.iter().enumerate() {
                if got != cf {
                    failures.push(format!(
                        "warp {g}: stride-regular round aligned {got} != closed form {cf}"
                    ));
                }
            }
        }
        out.push(MultiwayRoundVerdict {
            label,
            e,
            k,
            per_warp_aligned,
            closed_form,
            stride_regular,
            failures,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_core::evaluate::evaluate;

    #[test]
    fn classify_covers_every_e_below_32() {
        for e in 1..32usize {
            let c = classify(32, e);
            match c {
                BoundCase::SmallOdd => assert!(e % 2 == 1 && (3..16).contains(&e)),
                BoundCase::LargeOdd { r } => {
                    assert!(e % 2 == 1 && e > 16);
                    assert_eq!(r, 32 - e);
                }
                BoundCase::PowerOfTwo => assert!(e.is_power_of_two() && e >= 2),
                BoundCase::Sorted { d } => {
                    assert_eq!(d, gcd(32, e as u64) as usize);
                    assert!(e == 1 || (d > 1 && !e.is_power_of_two()));
                }
            }
        }
    }

    #[test]
    fn every_bound_below_32_holds() {
        for v in verify_grid(32).unwrap() {
            assert!(v.holds(), "E={}: {:?}", v.e, v.failures);
            assert_eq!(v.aligned, v.closed_form, "E={}", v.e);
        }
    }

    #[test]
    fn symbolic_pass_matches_the_dmm_oracle_exactly() {
        // The static derivation must agree element-for-element with the
        // DMM measurement it replaces.
        for e in 1..32usize {
            let asg = reference_assignment(32, e).unwrap();
            let sa = alignment_of_assignment(&asg);
            let ev = evaluate(&asg).unwrap();
            assert_eq!(sa.aligned, ev.aligned, "E={e}");
            assert_eq!(sa.multiplicity, ev.window_multiplicity, "E={e}");
            assert!(sa.min_cycles <= ev.cycles(), "E={e}");
        }
    }

    #[test]
    fn ir_pass_handles_fragmented_runs() {
        // Stream with two separated runs: [5,6] then [9,10] on w=4, s=1.
        // Run 1 starts at addr 5 step 0: 5 − 0 ≡ 1 (mod 4) → aligned (2).
        // Run 2 starts at addr 9 step 2: 9 − 2 ≡ 3 (mod 4) → not aligned.
        let sa = alignment_of_seqs(4, 4, 1, &[vec![5, 6, 9, 10]]);
        assert_eq!(sa.aligned, 2);
        assert_eq!(sa.multiplicity, vec![1, 1, 0, 0]);
        assert_eq!(sa.chunks, 2);
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        assert!(matches!(verify_bound(0, 3), Err(WcmsError::ZeroParam { .. })));
        assert!(matches!(verify_bound(32, 0), Err(WcmsError::ZeroParam { .. })));
        assert!(matches!(verify_bound(32, 32), Err(WcmsError::NonCoprime { .. })));
    }

    #[test]
    fn other_warp_widths_verify_too() {
        for w in [8usize, 16, 64] {
            for v in verify_grid(w).unwrap() {
                assert!(v.holds(), "w={w} E={}: {:?}", v.e, v.failures);
            }
        }
    }

    #[test]
    fn multiway_identity_round_attains_the_gcd_closed_form() {
        // Co-prime, shared-factor, and power-of-two tunings, across
        // fan-ins: the sorted (stride-regular) round must hit d·E on
        // every warp.
        for (w, e) in [(32usize, 3usize), (32, 5), (32, 8), (32, 15), (16, 6), (8, 3)] {
            for k in [2usize, 3, 4, 8] {
                let verdicts = verify_multiway_rounds(w, e, k).unwrap();
                let sorted = &verdicts[0];
                assert_eq!(sorted.label, "sorted");
                assert!(sorted.stride_regular, "w={w} E={e} k={k}");
                let d = gcd(w as u64, e as u64) as usize;
                assert_eq!(sorted.closed_form, Some(d * e), "w={w} E={e} k={k}");
                assert!(sorted.holds(), "w={w} E={e} k={k}: {:?}", sorted.failures);
                assert!(sorted.per_warp_aligned.iter().all(|&a| a == d * e));
            }
        }
    }

    #[test]
    fn multiway_interleaved_round_is_reported_not_failed() {
        for (w, e, k) in [(32usize, 5usize, 4usize), (32, 8, 4), (16, 3, 2)] {
            let verdicts = verify_multiway_rounds(w, e, k).unwrap();
            let inter = &verdicts[1];
            assert_eq!(inter.label, "interleaved");
            assert!(!inter.stride_regular, "w={w} E={e} k={k}");
            assert_eq!(inter.closed_form, None);
            // No closed form ⇒ nothing to violate: holds by design.
            assert!(inter.holds());
            assert_eq!(inter.per_warp_aligned.len(), 4);
        }
    }
}
