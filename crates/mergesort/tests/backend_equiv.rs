//! Cross-backend equivalence properties: the cycle-accurate simulator,
//! the analytic counter engine, and the CPU reference must sort any
//! input to the same bytes — and sim and analytic must agree on every
//! counter, integer for integer, because they replay the *same* Merge
//! Path schedules. The multiset fingerprint pins a stronger property
//! than sortedness: no key is ever invented, dropped, or duplicated.

use proptest::prelude::*;
use wcms_core::WorstCaseBuilder;
use wcms_mergesort::{
    sort_algo_with_report_traced_on, sort_with_report_on, AlgorithmKind, AnalyticBackend,
    ReferenceBackend, SimBackend, SortParams,
};
use wcms_obs::Obs;

const W: usize = 8;
const B: usize = 16;
/// The tentpole's coverage grid: co-prime and non-co-prime `E`, both
/// sides of the small/large-case split at `w/2 = 4`, and the
/// power-of-two case where sorted order is itself the worst case.
const ES: [usize; 6] = [2, 3, 4, 5, 7, 8];

/// `(w, b)` shapes for the variant switches: the scaled-down default,
/// a bank count that is not a power of two (bank selection by modulo, a
/// 12-wide reduction, and blocks ending in a partial warp of 12 + 12 + 8
/// lanes), and the hardware's 32 banks.
const SHAPES: [(usize, usize); 3] = [(W, B), (12, 32), (32, 64)];

fn params(e: usize) -> SortParams {
    SortParams::new(W, e, B).unwrap()
}

/// Order-independent fingerprint of a key multiset: `(count, Σh, ⊕h)`
/// over a mixed per-key hash. Two slices with equal fingerprints are,
/// for test purposes, the same multiset.
fn multiset_fingerprint(xs: &[u32]) -> (usize, u64, u64) {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for &x in xs {
        let h = u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        sum = sum.wrapping_add(h);
        xor ^= h;
    }
    (xs.len(), sum, xor)
}

/// Deterministic workload classes: random-ish, sorted, reverse, and
/// adversarial. The constructed worst case needs `gcd(w, E) = 1` and
/// `E < w`, so outside that range the adversarial class falls back to a
/// sawtooth (and for power-of-two `E`, sorted order — class 1 — already
/// *is* the worst case, §III).
fn workload(kind: u8, seed: u64, e: usize, n: usize) -> Vec<u32> {
    match kind % 4 {
        0 => (0..n).map(|i| (((i as u64).wrapping_mul(2 * seed + 1)) % 9973) as u32).collect(),
        1 => (0..n as u32).collect(),
        2 => (0..n as u32).rev().collect(),
        _ if e % 2 == 1 && e < W => WorstCaseBuilder::new(W, e, B).unwrap().build(n).unwrap(),
        _ => (0..n).map(|i| (i % (4 * W)) as u32).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three backends sort to the same bytes; sim and analytic agree
    /// on the full report; the reference backend charges nothing.
    #[test]
    fn backends_agree_on_output_and_counters(
        e_idx in 0usize..ES.len(),
        kind in 0u8..4,
        seed in 0u64..1000,
        doublings in 0u32..3,
    ) {
        let e = ES[e_idx];
        let p = params(e);
        let n = p.block_elems() << doublings;
        let input = workload(kind, seed, e, n);
        let input_fp = multiset_fingerprint(&input);
        let mut want = input.clone();
        want.sort_unstable();

        let (sim_out, sim_rep) = sort_with_report_on(&input, &p, &SimBackend).unwrap();
        let (ana_out, ana_rep) = sort_with_report_on(&input, &p, &AnalyticBackend).unwrap();
        let (ref_out, ref_rep) = sort_with_report_on(&input, &p, &ReferenceBackend).unwrap();

        prop_assert_eq!(&sim_out, &want);
        prop_assert_eq!(&ana_out, &want);
        prop_assert_eq!(&ref_out, &want);
        prop_assert_eq!(multiset_fingerprint(&sim_out), input_fp);
        prop_assert_eq!(multiset_fingerprint(&ana_out), input_fp);
        prop_assert_eq!(multiset_fingerprint(&ref_out), input_fp);

        // The tentpole contract: integer-identical counters, per round
        // and per phase — full structural equality, no tolerances.
        prop_assert_eq!(sim_rep, ana_rep);

        // The reference backend is counter-free by definition.
        prop_assert_eq!(ref_rep.total().shared.combined().cycles, 0);
        prop_assert_eq!(ref_rep.total().global.sectors, 0);
        prop_assert_eq!(ref_rep.blocks_launched(), 0);
    }

    /// Same equivalence under the Modern GPU kernel structure (separate
    /// partition kernels) and under padded shared-memory tiles — the two
    /// structural switches that change which schedules execute — at
    /// every `(w, b)` shape of [`SHAPES`].
    #[test]
    fn backends_agree_on_variants(
        shape in 0usize..SHAPES.len(),
        e_idx in 0usize..ES.len(),
        seed in 0u64..500,
        mgpu in proptest::bool::ANY,
        padded in proptest::bool::ANY,
    ) {
        let (w, b) = SHAPES[shape];
        let e = ES[e_idx];
        let mut p = SortParams::new(w, e, b).unwrap();
        if mgpu {
            p = p.with_variant(wcms_mergesort::params::SortVariant::ModernGpu);
        }
        if padded {
            p = p.with_padding();
        }
        let n = p.block_elems() * 4;
        let input = workload(0, seed, e, n);
        let mut want = input.clone();
        want.sort_unstable();

        let (sim_out, sim_rep) = sort_with_report_on(&input, &p, &SimBackend).unwrap();
        let (ana_out, ana_rep) = sort_with_report_on(&input, &p, &AnalyticBackend).unwrap();
        let (ref_out, _) = sort_with_report_on(&input, &p, &ReferenceBackend).unwrap();

        prop_assert_eq!(&sim_out, &want);
        prop_assert_eq!(&ana_out, &want);
        prop_assert_eq!(&ref_out, &want);
        prop_assert_eq!(sim_rep, ana_rep);
    }

    /// The same three-backend contract quantified over *algorithms*:
    /// every `AlgorithmKind` (pairwise k=2, multiway k-way) sorts every
    /// workload class to the same bytes on all three backends, with
    /// sim/analytic counter agreement and the multiset preserved. `E`
    /// spans co-prime, non-co-prime, power-of-two, and large-E tunings
    /// so multiway sees both full-fan and clamped-fan final rounds.
    #[test]
    fn algorithms_agree_across_backends(
        e_idx in 0usize..4,
        kind in 0u8..4,
        seed in 0u64..500,
        doublings in 0u32..3,
        algo_idx in 0usize..AlgorithmKind::ALL.len(),
    ) {
        let e = [3usize, 5, 8, 15][e_idx];
        let p = params(e);
        let n = p.block_elems() << doublings;
        let input = workload(kind, seed, e, n);
        let input_fp = multiset_fingerprint(&input);
        let mut want = input.clone();
        want.sort_unstable();
        let algo = AlgorithmKind::ALL[algo_idx].instance();

        let noop = Obs::noop();
        let (sim_out, sim_rep) =
            sort_algo_with_report_traced_on(&input, &p, algo, &SimBackend, noop).unwrap();
        let (ana_out, ana_rep) =
            sort_algo_with_report_traced_on(&input, &p, algo, &AnalyticBackend, noop).unwrap();
        let (ref_out, ref_rep) =
            sort_algo_with_report_traced_on(&input, &p, algo, &ReferenceBackend, noop).unwrap();

        prop_assert_eq!(&sim_out, &want);
        prop_assert_eq!(&ana_out, &want);
        prop_assert_eq!(&ref_out, &want);
        prop_assert_eq!(multiset_fingerprint(&sim_out), input_fp);
        prop_assert_eq!(multiset_fingerprint(&ana_out), input_fp);
        prop_assert_eq!(multiset_fingerprint(&ref_out), input_fp);
        prop_assert_eq!(sim_rep, ana_rep);
        prop_assert_eq!(ref_rep.total().shared.combined().cycles, 0);
        prop_assert_eq!(ref_rep.blocks_launched(), 0);
    }
}
