//! Probes that time each layer from outside, through its public
//! functions, recording spans into a traced section's [`Obs`].
//!
//! [`Probe`] wraps any [`ExecBackend`] and forwards every work unit
//! unchanged, so a probed sort is bit-identical to a bare one. After
//! each pairwise merge unit it re-runs that unit's Merge Path co-rank
//! search and its schedule walk on the unit's own arguments, nested
//! inside the unit's span: the unit's self time stays the backend's
//! own, and the two re-runs measure the layers the backend calls.
//!
//! The remaining probes call the durable-state and wire layers
//! directly, one span per call.

use std::path::Path;
use std::time::Duration;

use wcms_bench::checkpoint::{CellResult, CheckpointStore, LoadOutcome};
use wcms_bench::shard::{LeaseAttempt, LeaseStore};
use wcms_error::WcmsError;
use wcms_gpu_sim::GpuKey;
use wcms_mergesort::instrument::RoundCounters;
use wcms_mergesort::schedule::{find_block_coranks, walk_block_merge, ScheduleSink};
use wcms_mergesort::{ExecBackend, SortParams};
use wcms_obs::{event, span, Obs};
use wcms_serve::cache::{CacheOutcome, ResultCache};
use wcms_serve::journal::JobJournal;
use wcms_serve::wire::{Request, Response};

/// A forwarding [`ExecBackend`] that records one span per work unit.
pub struct Probe<'a, B> {
    inner: B,
    obs: &'a Obs,
}

impl<'a, B: ExecBackend> Probe<'a, B> {
    /// Probe `inner`, recording into `obs`.
    pub fn new(inner: B, obs: &'a Obs) -> Self {
        Probe { inner, obs }
    }
}

/// Counts the schedule walker's callbacks (one per probe address pair,
/// single probe, or merged element).
#[derive(Default)]
struct CountingSink {
    steps: u64,
}

impl<K> ScheduleSink<K> for CountingSink {
    fn begin_thread(&mut self, _write_start: usize) {}
    fn probe(&mut self, _a_addr: usize, _b_addr: usize) {
        self.steps += 1;
    }
    fn probe_at(&mut self, _addr: usize) {
        self.steps += 1;
    }
    fn merge_read(&mut self, _addr: usize, _val: K) {
        self.steps += 1;
    }
    fn end_thread(&mut self) {}
}

impl<B: ExecBackend> ExecBackend for Probe<'_, B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let _unit = span!(self.obs, "backend.base_block");
        self.inner.base_block(chunk, global_offset, params)
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
        let _unit = span!(self.obs, "backend.merge_unit");
        let result =
            self.inner.merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)?;
        event!(self.obs, "merge-unit", steps => result.1.shared.merge.steps);

        let be = params.block_elems();
        let (diag_start, diag_end) = (block_index * be, (block_index + 1) * be);
        let (ca_start, ca_end) = {
            let _corank = span!(self.obs, "mergepath.corank");
            let mut counters = RoundCounters::default();
            find_block_coranks(a, b, diag_start, diag_end, precomputed, &mut counters)
        };
        let mut sink = CountingSink::default();
        {
            let _walk = span!(self.obs, "schedule.walk");
            // The inner unit validated these co-ranks before returning
            // Ok, so the slices are in range.
            walk_block_merge(
                &a[ca_start..ca_end],
                &b[diag_start - ca_start..diag_end - ca_end],
                params,
                &mut sink,
            );
        }
        event!(self.obs, "walk", steps => sink.steps);
        Ok(result)
    }

    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        let _unit = span!(self.obs, "backend.partition_unit");
        self.inner.partition_unit(a, b, num_blocks, params)
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
        let _unit = span!(self.obs, "backend.merge_unit_multi");
        self.inner.merge_unit_multi(runs, run_offsets, out_offset, block_index, params, precomputed)
    }

    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        let _unit = span!(self.obs, "backend.partition_unit_multi");
        self.inner.partition_unit_multi(runs, num_blocks, params)
    }
}

fn io_err(layer: &str, e: impl std::fmt::Display) -> String {
    format!("{layer}: {e}")
}

/// Checkpoint commit and load, then lease claim + release, `reps` times
/// each on a fresh store under `dir` (spans `checkpoint.store`,
/// `checkpoint.load`, `shard.claim_release`). Every load must return
/// exactly what was stored.
///
/// # Errors
///
/// A message naming the layer that failed or returned a wrong value.
pub fn probe_durable_state(
    obs: &Obs,
    dir: &Path,
    result: &CellResult,
    reps: usize,
) -> Result<(), String> {
    let store = CheckpointStore::open(dir).map_err(|e| io_err("checkpoint", e))?;
    let cells: Vec<String> = (0..reps).map(|i| format!("probe/cell/{i}")).collect();
    for cell in &cells {
        let _s = span!(obs, "checkpoint.store");
        store.store(cell, result).map_err(|e| io_err("checkpoint.store", e))?;
    }
    for cell in &cells {
        let loaded = {
            let _s = span!(obs, "checkpoint.load");
            store.load(cell)
        };
        match loaded {
            LoadOutcome::Cached(r) if r == *result => {}
            other => return Err(format!("checkpoint.load {cell}: {other:?}")),
        }
    }
    let leases = LeaseStore::open(&store, "probe", Duration::from_secs(30))
        .map_err(|e| io_err("shard", e))?;
    for cell in &cells {
        let _s = span!(obs, "shard.claim_release");
        match leases.try_acquire(cell).map_err(|e| io_err("shard.try_acquire", e))? {
            LeaseAttempt::Acquired(guard) => drop(guard),
            LeaseAttempt::Held { worker, .. } => {
                return Err(format!("shard.try_acquire {cell}: held by {worker}"))
            }
        }
    }
    Ok(())
}

/// Encode `request` and decode `payload`, `reps` times each (spans
/// `wire.request_encode`, `wire.response_decode`); records the payload
/// size as event `wire.bytes`. The decoded payload must be a success.
///
/// # Errors
///
/// A message when the payload does not decode to a success response.
pub fn probe_wire(obs: &Obs, request: &Request, payload: &str, reps: usize) -> Result<(), String> {
    for _ in 0..reps {
        let _s = span!(obs, "wire.request_encode");
        std::hint::black_box(request.encode());
    }
    for _ in 0..reps {
        let decoded = {
            let _s = span!(obs, "wire.response_decode");
            Response::decode(payload)
        };
        match decoded {
            Ok(Response::Generate { .. } | Response::Measure { .. }) => {}
            other => return Err(format!("wire.response_decode: {other:?}")),
        }
    }
    event!(obs, "wire", bytes => payload.len());
    Ok(())
}

/// Look `key` up `reps` times in the cache at `dir` (span
/// `cache.lookup`); every lookup must hit with `payload`.
///
/// # Errors
///
/// A message when a lookup misses or returns other bytes.
pub fn probe_cache_lookup(
    obs: &Obs,
    dir: &Path,
    key: &str,
    payload: &str,
    reps: usize,
) -> Result<(), String> {
    let cache = ResultCache::open(dir).map_err(|e| io_err("cache", e))?;
    for _ in 0..reps {
        let found = {
            let _s = span!(obs, "cache.lookup");
            cache.lookup(key)
        };
        if found != CacheOutcome::Hit(payload.to_string()) {
            return Err(format!("cache.lookup {key}: not a byte-identical hit"));
        }
    }
    Ok(())
}

/// Store `reps` distinct entries of `payload` in a fresh cache under
/// `dir` (span `cache.store`), and run `reps` journal lifecycles —
/// queued, running, complete — for `request` (span `journal.cycle`).
///
/// # Errors
///
/// A message naming the layer that failed.
pub fn probe_cache_store_and_journal(
    obs: &Obs,
    dir: &Path,
    request: &str,
    payload: &str,
    reps: usize,
) -> Result<(), String> {
    let cache = ResultCache::open(dir.join("cache")).map_err(|e| io_err("cache", e))?;
    for i in 0..reps {
        let _s = span!(obs, "cache.store");
        cache.store(&format!("probe-{i}"), payload).map_err(|e| io_err("cache.store", e))?;
    }
    let journal = JobJournal::open(dir.join("journal")).map_err(|e| io_err("journal", e))?;
    for _ in 0..reps {
        let _s = span!(obs, "journal.cycle");
        let id = journal.record_queued(request).map_err(|e| io_err("journal.queued", e))?;
        journal.mark_running(id, request).map_err(|e| io_err("journal.running", e))?;
        journal.complete(id).map_err(|e| io_err("journal.complete", e))?;
    }
    Ok(())
}
