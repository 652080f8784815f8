//! Warp-lockstep execution helpers: the simulator's tile
//! (`backend::sim`) runs its fill, register phase and merge stages
//! through them.
//!
//! Each helper takes per-thread sequences for one thread block, as
//! [`ThreadSlices`] over flat buffers, and replays them warp by warp,
//! step by step, against the simulated shared memory — charging exactly
//! the per-step serialization the DMM model prescribes. Sequences may
//! have unequal lengths (binary searches converge at different
//! iterations); exhausted lanes idle.

use wcms_error::WcmsError;
use wcms_gpu_sim::SharedMemory;

use crate::schedule::ThreadSlices;

/// Replay per-thread *read* sequences: thread `t` reads tile address
/// `seqs.thread(t)[j]` at its step `j`. Returns the values read, flat in
/// `seqs`' layout (the value of `seqs`' `i`-th address at index `i`).
///
/// # Errors
///
/// Propagates the tile's typed errors (out-of-bounds addresses).
pub(crate) fn lockstep_reads<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    seqs: ThreadSlices<'_, usize>,
    warp: usize,
) -> Result<Vec<K>, WcmsError> {
    let mut out = vec![K::default(); seqs.items().len()];
    replay_reads(smem, seqs, warp, |i, v| out[i] = v)?;
    Ok(out)
}

/// Replay per-thread read sequences for *accounting only*, discarding the
/// values. The charge is identical to [`lockstep_reads`] — same steps,
/// same lanes, same addresses — but nothing is collected, which matters
/// on the β₁/β₂ replay paths that only need the conflict counts (the
/// merged values already live in the [`crate::schedule::MergeSchedule`]).
///
/// # Errors
///
/// Propagates the tile's typed errors (out-of-bounds addresses).
pub(crate) fn lockstep_probe<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    seqs: ThreadSlices<'_, usize>,
    warp: usize,
) -> Result<(), WcmsError> {
    replay_reads(smem, seqs, warp, |_, _| {})
}

/// The read replay behind [`lockstep_reads`] and [`lockstep_probe`]:
/// hands each value read to `visit` with its index in the flat buffer.
/// The lane buffers are allocated once per call and reused across every
/// warp chunk and step.
fn replay_reads<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    seqs: ThreadSlices<'_, usize>,
    warp: usize,
    mut visit: impl FnMut(usize, K),
) -> Result<(), WcmsError> {
    let mut addrs: Vec<Option<usize>> = vec![None; warp];
    let mut vals: Vec<Option<K>> = vec![None; warp];
    for first in (0..seqs.threads()).step_by(warp) {
        let lanes = (seqs.threads() - first).min(warp);
        let steps = (first..first + lanes).map(|t| seqs.span(t).len()).max().unwrap_or(0);
        for j in 0..steps {
            for (lane, addr) in addrs[..lanes].iter_mut().enumerate() {
                *addr = seqs.thread(first + lane).get(j).copied();
            }
            smem.read_step(&addrs[..lanes], &mut vals)?;
            for (lane, val) in vals[..lanes].iter().enumerate() {
                if let Some(v) = *val {
                    visit(seqs.span(first + lane).start + j, v);
                }
            }
        }
    }
    Ok(())
}

/// Replay per-thread *write* sequences into contiguous windows: thread
/// `t` writes value `vals.thread(t)[j]` to address `starts[t] + j` at
/// step `j`.
///
/// # Errors
///
/// Propagates the tile's typed errors (CREW violations, out-of-bounds
/// addresses).
pub(crate) fn lockstep_writes<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    starts: &[usize],
    vals: ThreadSlices<'_, K>,
    warp: usize,
) -> Result<(), WcmsError> {
    debug_assert_eq!(starts.len(), vals.threads());
    let mut writes: Vec<Option<(usize, K)>> = vec![None; warp];
    for first in (0..vals.threads()).step_by(warp) {
        let lanes = (vals.threads() - first).min(warp);
        let steps = (first..first + lanes).map(|t| vals.span(t).len()).max().unwrap_or(0);
        for j in 0..steps {
            for (lane, write) in writes[..lanes].iter_mut().enumerate() {
                let t = first + lane;
                *write = vals.thread(t).get(j).map(|&v| (starts[t] + j, v));
            }
            smem.write_step(&writes[..lanes])?;
        }
    }
    Ok(())
}

/// Coalesced block transfer into shared memory: `b` threads write the
/// `values` round-robin (pass `k`, warp `v`, lane `l` → tile offset
/// `dst + k·b + v·w + l`). The canonical conflict-free tile fill.
///
/// # Errors
///
/// Propagates the tile's typed errors (out-of-bounds addresses).
pub(crate) fn coalesced_fill<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    dst: usize,
    values: &[K],
    block_threads: usize,
    warp: usize,
) -> Result<(), WcmsError> {
    let mut writes: Vec<Option<(usize, K)>> = vec![None; warp];
    let mut pos = 0usize;
    while pos < values.len() {
        let lanes = (values.len() - pos).min(warp.min(block_threads));
        for l in 0..lanes {
            writes[l] = Some((dst + pos + l, values[pos + l]));
        }
        writes[lanes..].iter_mut().for_each(|w| *w = None);
        smem.write_step(&writes[..lanes])?;
        pos += lanes;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_dmm::BankModel;

    fn smem(words: usize) -> SharedMemory<u32> {
        let mut m = SharedMemory::new(BankModel::new(4), words);
        m.fill_from(&(0..words as u32).map(|x| x * 10).collect::<Vec<_>>());
        m
    }

    /// Per-thread sequences laid end to end: `(items, ends)`.
    fn flat<T: Copy>(seqs: &[Vec<T>]) -> (Vec<T>, Vec<usize>) {
        let ends = seqs
            .iter()
            .scan(0, |end, s| {
                *end += s.len();
                Some(*end)
            })
            .collect();
        (seqs.concat(), ends)
    }

    #[test]
    fn lockstep_reads_route_values_to_threads() {
        let mut m = smem(16);
        // 6 threads over warps of 4; ragged lengths.
        let (seqs, ends) = flat(&[vec![0, 1], vec![4], vec![8, 9], vec![12], vec![2, 3], vec![6]]);
        let vals = lockstep_reads(&mut m, ThreadSlices::new(&seqs, &ends), 4).unwrap();
        let out = ThreadSlices::new(&vals, &ends);
        assert_eq!(out.thread(0), [0, 10]);
        assert_eq!(out.thread(1), [40]);
        assert_eq!(out.thread(2), [80, 90]);
        assert_eq!(out.thread(4), [20, 30]);
        assert_eq!(out.thread(5), [60]);
        // Steps: warp 0 issues 2 steps, warp 1 issues 2 steps.
        assert_eq!(m.drain_totals().steps, 4);
    }

    #[test]
    fn lockstep_reads_count_conflicts() {
        let mut m = smem(16);
        // Two lanes in bank 0 (addresses 0 and 4 on 4 banks) every step.
        let (seqs, ends) = flat(&[vec![0], vec![4], vec![1], vec![2]]);
        let _ = lockstep_reads(&mut m, ThreadSlices::new(&seqs, &ends), 4).unwrap();
        let t = m.drain_totals();
        assert_eq!(t.cycles, 2);
        assert_eq!(t.max_degree, 2);
    }

    #[test]
    fn lockstep_probe_charges_exactly_like_reads() {
        let (seqs, ends) = flat(&[vec![0, 4, 8], vec![4], vec![1, 5], vec![2], vec![3, 7]]);
        let seqs = ThreadSlices::new(&seqs, &ends);
        let mut read_m = smem(16);
        let _ = lockstep_reads(&mut read_m, seqs, 4).unwrap();
        let mut probe_m = smem(16);
        lockstep_probe(&mut probe_m, seqs, 4).unwrap();
        assert_eq!(read_m.drain_totals(), probe_m.drain_totals());
    }

    #[test]
    fn lockstep_writes_store_values() {
        let mut m = smem(8);
        // Thread 0 writes addresses 0, 1; thread 1 writes address 2.
        let (vals, ends) = flat(&[vec![100u32, 101], vec![102]]);
        lockstep_writes(&mut m, &[0, 2], ThreadSlices::new(&vals, &ends), 4).unwrap();
        assert_eq!(&m.as_slice()[..3], &[100, 101, 102]);
    }

    #[test]
    fn coalesced_fill_is_conflict_free() {
        let mut m = smem(16);
        let vals: Vec<u32> = (0..16).collect();
        coalesced_fill(&mut m, 0, &vals, 8, 4).unwrap();
        assert_eq!(m.as_slice(), vals.as_slice());
        let t = m.drain_totals();
        assert_eq!(t.extra_cycles, 0, "contiguous fill must not conflict");
        assert_eq!(t.steps, 4);
    }
}
