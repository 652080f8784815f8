//! Exact inversion counting via merge-count, `O(n log n)`.
//!
//! An inversion is a pair `i < j` with `xs[i] > xs[j]`. Karsin et al.
//! report that the merge sort's bank-conflict averages grow with the
//! inversion count; the harness uses this to reproduce that trend.

/// Count inversions of `xs`.
#[must_use]
pub fn count_inversions(xs: &[u32]) -> u64 {
    if xs.len() < 2 {
        return 0;
    }
    let mut work = xs.to_vec();
    let mut buf = vec![0u32; xs.len()];
    merge_count(&mut work, &mut buf)
}

fn merge_count(xs: &mut [u32], buf: &mut [u32]) -> u64 {
    let n = xs.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (left_buf, right_buf) = buf.split_at_mut(mid);
    let mut inv = {
        let (l, r) = xs.split_at_mut(mid);
        merge_count(l, left_buf) + merge_count(r, right_buf)
    };
    // Merge xs[..mid] and xs[mid..] into buf, counting cross inversions.
    let (mut i, mut j, mut k) = (0usize, mid, 0usize);
    while i < mid && j < n {
        if xs[i] <= xs[j] {
            buf[k] = xs[i];
            i += 1;
        } else {
            // xs[i..mid] all exceed xs[j]: mid − i inversions.
            inv += (mid - i) as u64;
            buf[k] = xs[j];
            j += 1;
        }
        k += 1;
    }
    while i < mid {
        buf[k] = xs[i];
        i += 1;
        k += 1;
    }
    while j < n {
        buf[k] = xs[j];
        j += 1;
        k += 1;
    }
    xs.copy_from_slice(&buf[..n]);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(xs: &[u32]) -> u64 {
        let mut inv = 0;
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                if xs[i] > xs[j] {
                    inv += 1;
                }
            }
        }
        inv
    }

    #[test]
    fn known_counts() {
        assert_eq!(count_inversions(&[]), 0);
        assert_eq!(count_inversions(&[1]), 0);
        assert_eq!(count_inversions(&[1, 2, 3]), 0);
        assert_eq!(count_inversions(&[3, 2, 1]), 3);
        assert_eq!(count_inversions(&[2, 1, 3]), 1);
        assert_eq!(count_inversions(&[5, 5, 5]), 0); // ties are not inversions
    }

    #[test]
    fn matches_brute_force() {
        let xs: Vec<u32> = (0..200).map(|i| (i * 77 + 13) % 101).collect();
        assert_eq!(count_inversions(&xs), brute(&xs));
        let ys: Vec<u32> = (0..255).map(|i| (i * 31) % 64).collect();
        assert_eq!(count_inversions(&ys), brute(&ys));
    }
}
