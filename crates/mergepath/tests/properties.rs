//! Property-based tests of GPU Merge Path against the reference merge.

use proptest::prelude::*;
use wcms_mergepath::cpu::{merge_partitioned, merge_ref, mergesort_ref};
use wcms_mergepath::diagonal::{merge_path, merge_path_counted};
use wcms_mergepath::partition::{partition_even, validate_corank};
use wcms_mergepath::serial::{merge_emit, MergeSource};

fn sorted_vec(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1000, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

proptest! {
    /// The diagonal search finds exactly the stable-merge co-rank.
    #[test]
    fn corank_matches_stable_merge(a in sorted_vec(64), b in sorted_vec(64)) {
        let merged = merge_ref(&a, &b);
        for d in 0..=merged.len() {
            let i = merge_path(d, a.len(), b.len(), |x| a[x], |y| b[y]);
            // The first d merged elements are exactly a[..i] ++ b[..d-i].
            let mut prefix: Vec<u32> = a[..i].to_vec();
            prefix.extend_from_slice(&b[..d - i]);
            prefix.sort_unstable();
            let mut want = merged[..d].to_vec();
            want.sort_unstable();
            prop_assert_eq!(prefix, want, "d={}", d);
            let corank = wcms_mergepath::Corank { a: i, b: d - i };
            let valid = validate_corank(&a, &b, corank);
            prop_assert!(valid, "invalid corank {:?}", corank);
        }
    }

    /// Search iterations stay logarithmic.
    #[test]
    fn search_is_logarithmic(a in sorted_vec(256), b in sorted_vec(256), frac in 0.0f64..1.0) {
        let n = a.len() + b.len();
        let d = ((n as f64) * frac) as usize;
        let (_, iters) = merge_path_counted(d, a.len(), b.len(), |x| a[x], |y| b[y]);
        let bound = (n.max(2) as f64).log2().ceil() as usize + 1;
        prop_assert!(iters <= bound, "iters={} bound={}", iters, bound);
    }

    /// Partitioned merge equals the reference merge for any part count.
    #[test]
    fn partitioned_merge_correct(a in sorted_vec(128), b in sorted_vec(128), parts in 1usize..40) {
        prop_assert_eq!(merge_partitioned(&a, &b, parts), merge_ref(&a, &b));
    }

    /// Partition boundaries are monotone and cover the merge.
    #[test]
    fn partition_boundaries_monotone(a in sorted_vec(100), b in sorted_vec(100), parts in 1usize..20) {
        let cr = partition_even(a.len(), b.len(), parts, |x| a[x], |y| b[y]);
        prop_assert_eq!(cr.len(), parts + 1);
        prop_assert_eq!(cr[0].diagonal(), 0);
        prop_assert_eq!(cr[parts].diagonal(), a.len() + b.len());
        for w in cr.windows(2) {
            prop_assert!(w[0].a <= w[1].a && w[0].b <= w[1].b);
        }
    }

    /// The emitted merge sequence consumes each list in order and
    /// reproduces the reference merge values.
    #[test]
    fn merge_sequence_consumes_in_order(a in sorted_vec(64), b in sorted_vec(64)) {
        let n = a.len() + b.len();
        let mut seq = Vec::with_capacity(n);
        merge_emit(0, 0, a.len(), b.len(), n, |i| a[i], |j| b[j], |_, s, idx| seq.push((s, idx)));
        let values: Vec<u32> = seq
            .iter()
            .map(|&(src, idx)| match src {
                MergeSource::A => a[idx],
                MergeSource::B => b[idx],
            })
            .collect();
        prop_assert_eq!(values, merge_ref(&a, &b));
        // Indices within each list are strictly increasing.
        let a_idx: Vec<usize> =
            seq.iter().filter(|s| s.0 == MergeSource::A).map(|s| s.1).collect();
        prop_assert!(a_idx.windows(2).all(|w| w[0] < w[1]));
    }

    /// The reference mergesort is a sort.
    #[test]
    fn mergesort_ref_sorts(xs in proptest::collection::vec(0u32..500, 0..300)) {
        let mut want = xs.clone();
        want.sort_unstable();
        prop_assert_eq!(mergesort_ref(&xs), want);
    }
}
