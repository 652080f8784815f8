//! The sequential merging stage: one thread consuming its quantile in
//! increasing key order.
//!
//! [`merge_emit`] reports, for every output rank, *which list* and *which
//! index* the element came from — exactly the information the simulator
//! needs to derive the thread's shared-memory address sequence (the paper
//! views each merge round as "`E` accesses to shared memory" in increasing
//! key order), and the information the adversary generator inverts.

/// Which input list a merged element came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeSource {
    /// From the `A` list.
    A,
    /// From the `B` list.
    B,
}

/// Stable-merge `count` elements starting from co-rank `(a0, b0)`, where
/// `A` has `a_len` and `B` has `b_len` total elements. For the element of
/// output rank `r` (0-based, relative to this thread's window) taken from
/// index `idx` of list `src`, calls `emit(r, src, idx)`.
///
/// Ties take from `A` first, matching
/// [`merge_path`](crate::diagonal::merge_path).
///
/// # Panics
///
/// Panics if the window runs past the end of both lists.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's merge-window state
pub fn merge_emit<K, FA, FB, E>(
    a0: usize,
    b0: usize,
    a_len: usize,
    b_len: usize,
    count: usize,
    mut a_at: FA,
    mut b_at: FB,
    mut emit: E,
) where
    K: Ord,
    FA: FnMut(usize) -> K,
    FB: FnMut(usize) -> K,
    E: FnMut(usize, MergeSource, usize),
{
    let (mut i, mut j) = (a0, b0);
    for r in 0..count {
        let take_a = if i >= a_len {
            assert!(j < b_len, "merge window exceeds both lists");
            false
        } else if j >= b_len {
            true
        } else {
            a_at(i) <= b_at(j)
        };
        if take_a {
            emit(r, MergeSource::A, i);
            i += 1;
        } else {
            emit(r, MergeSource::B, j);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect the `(source, index)` sequence of a merge window.
    fn merge_sequence<K: Ord + Copy>(
        a: &[K],
        b: &[K],
        a0: usize,
        b0: usize,
        count: usize,
    ) -> Vec<(MergeSource, usize)> {
        let mut out = Vec::with_capacity(count);
        merge_emit(
            a0,
            b0,
            a.len(),
            b.len(),
            count,
            |i| a[i],
            |j| b[j],
            |_, s, idx| {
                out.push((s, idx));
            },
        );
        out
    }

    #[test]
    fn full_merge_sequence_interleaves() {
        let a = [1u32, 3, 5];
        let b = [2u32, 4, 6];
        let seq = merge_sequence(&a, &b, 0, 0, 6);
        assert_eq!(
            seq,
            vec![
                (MergeSource::A, 0),
                (MergeSource::B, 0),
                (MergeSource::A, 1),
                (MergeSource::B, 1),
                (MergeSource::A, 2),
                (MergeSource::B, 2),
            ]
        );
    }

    #[test]
    fn window_in_the_middle() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 4, 6, 8];
        // Co-rank of diagonal 2 is (1, 1); merge 3 elements: 3,4,5.
        let seq = merge_sequence(&a, &b, 1, 1, 3);
        assert_eq!(seq, vec![(MergeSource::A, 1), (MergeSource::B, 1), (MergeSource::A, 2)]);
    }

    #[test]
    fn exhausted_a_takes_b() {
        let a = [1u32];
        let b = [2u32, 3];
        let seq = merge_sequence(&a, &b, 1, 0, 2);
        assert_eq!(seq, vec![(MergeSource::B, 0), (MergeSource::B, 1)]);
    }

    #[test]
    fn ties_take_a_first() {
        let a = [5u32];
        let b = [5u32];
        let seq = merge_sequence(&a, &b, 0, 0, 2);
        assert_eq!(seq, vec![(MergeSource::A, 0), (MergeSource::B, 0)]);
    }

    #[test]
    fn emit_ranks_are_sequential() {
        let a = [1u32, 2];
        let b = [3u32];
        let mut ranks = Vec::new();
        merge_emit(0, 0, 2, 1, 3, |i| a[i], |j| b[j], |r, _, _| ranks.push(r));
        assert_eq!(ranks, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds both lists")]
    fn overrun_panics() {
        let a = [1u32];
        let b = [2u32];
        let _ = merge_sequence(&a, &b, 0, 0, 3);
    }
}
