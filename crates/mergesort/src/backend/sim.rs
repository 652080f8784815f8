//! The cycle-accurate lockstep backend — the paper's measurement
//! instrument, and the default everywhere.

use wcms_dmm::{BankModel, ConflictTotals};
use wcms_error::WcmsError;
use wcms_gpu_sim::{GpuKey, SharedMemory};

use crate::instrument::{PhaseTotals, RoundCounters};
use crate::params::SortParams;
use crate::schedule::{MergeSchedule, Stage, ThreadSlices};
use crate::warp_exec::{coalesced_fill, lockstep_probe, lockstep_reads, lockstep_writes};

use super::kernel::Tile;
use super::ExecBackend;

/// Warp-lockstep execution against a simulated [`wcms_gpu_sim::SharedMemory`]
/// tile: every access replayed step by step, every conflict charged by the
/// DMM model, CREW discipline enforced. Exact but slow — this is the
/// backend the analytic engine is validated against.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

/// The simulator's tile: a banked [`SharedMemory`] that every warp step
/// reads or writes lane by lane, raising its CREW and bounds errors.
struct SimTile<K> {
    smem: SharedMemory<K>,
    /// Words loaded so far; the next load starts here.
    filled: usize,
}

impl<K: GpuKey> Tile<K> for SimTile<K> {
    fn new(params: &SortParams) -> Self {
        let (model, be) = (BankModel::new(params.w), params.block_elems());
        let smem = if params.smem_padding {
            SharedMemory::new_padded(model, be)
        } else {
            SharedMemory::new(model, be)
        };
        Self { smem, filled: 0 }
    }

    fn load(&mut self, values: &[K], params: &SortParams) -> Result<(), WcmsError> {
        coalesced_fill(&mut self.smem, self.filled, values, params.b, params.w)?;
        self.filled += values.len();
        Ok(())
    }

    fn register_pass(
        &mut self,
        params: &SortParams,
        f: impl FnOnce(&mut [K]),
    ) -> Result<(), WcmsError> {
        let (w, e, b) = (params.w, params.e, params.b);
        let addrs: Vec<usize> = (0..params.block_elems()).collect();
        let starts: Vec<usize> = (0..b).map(|t| t * e).collect();
        let ends: Vec<usize> = (1..=b).map(|t| t * e).collect();
        let mut regs = lockstep_reads(&mut self.smem, ThreadSlices::new(&addrs, &ends), w)?;
        f(&mut regs);
        lockstep_writes(&mut self.smem, &starts, ThreadSlices::new(&regs, &ends), w)
    }

    fn merge_stage(
        &mut self,
        stage: Stage<'_, K>,
        params: &SortParams,
    ) -> Result<PhaseTotals, WcmsError> {
        let w = params.w;
        let sched = MergeSchedule::of(&stage, self.smem.as_slice(), params);
        lockstep_probe(&mut self.smem, sched.probe_seqs(), w)?;
        let partition = self.smem.drain_totals();
        lockstep_probe(&mut self.smem, sched.merge_seqs(), w)?;
        let merge = self.smem.drain_totals();
        lockstep_writes(&mut self.smem, sched.write_starts(), sched.merged_vals(), w)?;
        Ok(PhaseTotals { partition, merge, transfer: self.smem.drain_totals() })
    }

    fn drain(&mut self) -> ConflictTotals {
        self.smem.drain_totals()
    }

    fn into_vec(self) -> Vec<K> {
        self.smem.as_slice().to_vec()
    }
}

impl ExecBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        SimTile::base_block(chunk, global_offset, params)
    }

    fn merge_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        a_offset: usize,
        b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        SimTile::merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)
    }

    fn merge_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        run_offsets: &[usize],
        out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        SimTile::merge_unit_multi(runs, run_offsets, out_offset, block_index, params, precomputed)
    }
}
