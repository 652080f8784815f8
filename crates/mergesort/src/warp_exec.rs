//! Warp-lockstep execution helpers shared by the base-case and
//! global-merge kernels.
//!
//! Each helper takes per-thread address sequences for one thread block
//! and replays them warp by warp, step by step, against the simulated
//! shared memory — charging exactly the per-step serialization the DMM
//! model prescribes. Sequences may have unequal lengths (binary searches
//! converge at different iterations); exhausted lanes idle.

use wcms_error::WcmsError;
use wcms_gpu_sim::SharedMemory;

/// Replay per-thread *read* sequences: `seqs[t][j]` is the tile address
/// thread `t` reads at its step `j`. Returns the values read, in the same
/// shape. The `addrs`/`vals` lane buffers are allocated once per call and
/// reused across every warp chunk and step.
///
/// # Errors
///
/// Propagates the tile's typed errors (out-of-bounds addresses).
pub(crate) fn lockstep_reads<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    seqs: &[Vec<usize>],
    warp: usize,
) -> Result<Vec<Vec<K>>, WcmsError> {
    let mut out: Vec<Vec<K>> = seqs.iter().map(|s| Vec::with_capacity(s.len())).collect();
    let mut addrs: Vec<Option<usize>> = vec![None; warp];
    let mut vals: Vec<Option<K>> = vec![None; warp];
    for (chunk_idx, warp_threads) in seqs.chunks(warp).enumerate() {
        let base = chunk_idx * warp;
        let lanes = warp_threads.len();
        let steps = warp_threads.iter().map(Vec::len).max().unwrap_or(0);
        for j in 0..steps {
            for (lane, seq) in warp_threads.iter().enumerate() {
                addrs[lane] = seq.get(j).copied();
            }
            smem.read_step(&addrs[..lanes], &mut vals)?;
            for lane in 0..lanes {
                if let Some(v) = vals[lane] {
                    out[base + lane].push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Replay per-thread read sequences for *accounting only*, discarding the
/// values. The charge is identical to [`lockstep_reads`] — same steps,
/// same lanes, same addresses — but no per-thread result vectors are
/// allocated, which matters on the β₁/β₂ replay paths that only need the
/// conflict counts (the merged values already live in the
/// [`crate::schedule::MergeSchedule`]).
///
/// # Errors
///
/// Propagates the tile's typed errors (out-of-bounds addresses).
pub(crate) fn lockstep_probe<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    seqs: &[Vec<usize>],
    warp: usize,
) -> Result<(), WcmsError> {
    let mut addrs: Vec<Option<usize>> = vec![None; warp];
    let mut vals: Vec<Option<K>> = vec![None; warp];
    for warp_threads in seqs.chunks(warp) {
        let lanes = warp_threads.len();
        let steps = warp_threads.iter().map(Vec::len).max().unwrap_or(0);
        for j in 0..steps {
            for (lane, seq) in warp_threads.iter().enumerate() {
                addrs[lane] = seq.get(j).copied();
            }
            smem.read_step(&addrs[..lanes], &mut vals)?;
        }
    }
    Ok(())
}

/// Replay per-thread *write* sequences: thread `t` writes value
/// `vals[t][j]` to address `addrs[t][j]` at step `j`.
///
/// # Errors
///
/// Propagates the tile's typed errors (CREW violations, out-of-bounds
/// addresses).
pub(crate) fn lockstep_writes<K: Copy + Default>(
    smem: &mut SharedMemory<K>,
    addrs: &[Vec<usize>],
    vals: &[Vec<K>],
    warp: usize,
) -> Result<(), WcmsError> {
    debug_assert_eq!(addrs.len(), vals.len());
    let mut writes: Vec<Option<(usize, K)>> = vec![None; warp];
    for (warp_addrs, warp_vals) in addrs.chunks(warp).zip(vals.chunks(warp)) {
        let steps = warp_addrs.iter().map(Vec::len).max().unwrap_or(0);
        #[allow(clippy::needless_range_loop)] // j indexes two parallel slices
        for j in 0..steps {
            for lane in 0..warp_addrs.len() {
                writes[lane] = warp_addrs[lane].get(j).map(|&a| (a, warp_vals[lane][j]));
            }
            writes[warp_addrs.len()..].iter_mut().for_each(|w| *w = None);
            smem.write_step(&writes[..warp_addrs.len().max(1)])?;
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

    #[test]
    fn lockstep_reads_route_values_to_threads() {
        let mut m = smem(16);
        // 6 threads over warps of 4; ragged lengths.
        let seqs = vec![vec![0, 1], vec![4], vec![8, 9], vec![12], vec![2, 3], vec![6]];
        let out = lockstep_reads(&mut m, &seqs, 4).unwrap();
        assert_eq!(out[0], vec![0, 10]);
        assert_eq!(out[1], vec![40]);
        assert_eq!(out[2], vec![80, 90]);
        assert_eq!(out[4], vec![20, 30]);
        assert_eq!(out[5], vec![60]);
        // Steps: warp 0 issues 2 steps, warp 1 issues 2 steps.
        assert_eq!(m.drain_totals().steps, 4);
    }

    #[test]
    fn lockstep_reads_count_conflicts() {
        let mut m = smem(16);
        // Two lanes in bank 0 (addresses 0 and 4 on 4 banks) every step.
        let seqs = vec![vec![0], vec![4], vec![1], vec![2]];
        let _ = lockstep_reads(&mut m, &seqs, 4).unwrap();
        let t = m.drain_totals();
        assert_eq!(t.cycles, 2);
        assert_eq!(t.max_degree, 2);
    }

    #[test]
    fn lockstep_probe_charges_exactly_like_reads() {
        let seqs = vec![vec![0, 4, 8], vec![4], vec![1, 5], vec![2], vec![3, 7]];
        let mut read_m = smem(16);
        let _ = lockstep_reads(&mut read_m, &seqs, 4).unwrap();
        let mut probe_m = smem(16);
        lockstep_probe(&mut probe_m, &seqs, 4).unwrap();
        assert_eq!(read_m.drain_totals(), probe_m.drain_totals());
    }

    #[test]
    fn lockstep_writes_store_values() {
        let mut m = smem(8);
        let addrs = vec![vec![0usize, 1], vec![2]];
        let vals = vec![vec![100u32, 101], vec![102]];
        lockstep_writes(&mut m, &addrs, &vals, 4).unwrap();
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
