//! The end-to-end simulated sort: base case, then `log₂(N/bE)` global
//! merge rounds, with all counters aggregated into a
//! [`crate::instrument::SortReport`] value.
//!
//! One round loop runs every sort. Round 0 is the base case, in which
//! every block is a group of one run; each later round merges groups of
//! consecutive runs, and a group of two is the paper's pairwise merge.
//! Thread blocks are mutually independent within a kernel (each owns a
//! disjoint `bE` output window), so every round runs one work unit per
//! window on idle cores through [`crate::exec`]. Each unit's output is
//! checked for length and copied straight into its window of a
//! preallocated buffer by the thread that ran it, and the counters are
//! reduced in window order — outputs, reports and the first error
//! returned are bit-identical at any thread count.
//!
//! The resilient entry points run the same loop under a private fault
//! guard: an injector corrupts each window's inputs, every group's
//! output is checked once its windows finish, the groups that failed
//! re-run, and a group out of retries re-runs its windows on
//! [`ReferenceBackend`].
//!
//! Two private helpers, `partition_group` and `merge_group_block`, are
//! the only code that picks the pairwise work unit for two runs or the
//! k-way unit for more.

use wcms_error::WcmsError;
use wcms_gpu_sim::fault::FaultInjector;
use wcms_gpu_sim::FaultCounters;
use wcms_mergepath::multiway::multiway_select;
use wcms_obs::{event, span, Obs};

use crate::algorithm::{PairwiseMerge, SortAlgorithm};
use crate::backend::{ExecBackend, ReferenceBackend, SimBackend};
use crate::exec::{self, SortGuard};
use crate::instrument::{RoundCounters, SortReport};
use crate::params::{SortParams, SortVariant};
use crate::verify::{check_round_output, multiset_hash};

/// The global rounds' view of the working buffer: each sorted run as its
/// `(offset, len)` span. Groups of consecutive runs merge per round;
/// `runs.chunks(fan_in)` is the round's group decomposition.
type RunSpan = (usize, usize);

/// One group's co-ranks from its partition kernel (the Modern GPU
/// structure), per output block: a pair carries its first run's
/// `(start, end)` pair, a wider group one pair per run.
enum GroupCoranks {
    Pair(Vec<(usize, usize)>),
    Multi(Vec<Vec<(usize, usize)>>),
}

impl GroupCoranks {
    /// Block `j`'s co-ranks, one `(start, end)` pair per run from the
    /// first run on.
    fn block(&self, j: usize) -> &[(usize, usize)] {
        match self {
            GroupCoranks::Pair(pairs) => std::slice::from_ref(&pairs[j]),
            GroupCoranks::Multi(pairs) => &pairs[j],
        }
    }
}

fn group_len(grp: &[RunSpan]) -> usize {
    grp.iter().map(|r| r.1).sum()
}

/// The keys of group `grp` in `cur`: its runs back to back.
fn group_keys<'a, K>(cur: &'a [K], grp: &[RunSpan]) -> &'a [K] {
    &cur[grp[0].0..grp[0].0 + group_len(grp)]
}

/// The runs of `grp` as slices of `keys`, the group's keys.
fn group_refs<'a, K>(keys: &'a [K], grp: &[RunSpan]) -> Vec<&'a [K]> {
    let base = grp[0].0;
    grp.iter().map(|&(off, len)| &keys[off - base..off - base + len]).collect()
}

/// Run the partition kernel of a group of two or more runs whose keys
/// are `keys`: the pairwise unit for two runs, the k-way unit for more.
fn partition_group<K: wcms_gpu_sim::GpuKey>(
    backend: &impl ExecBackend,
    keys: &[K],
    grp: &[RunSpan],
    params: &SortParams,
) -> (GroupCoranks, RoundCounters) {
    let blocks = keys.len() / params.block_elems();
    if let [(_, a_len), _] = *grp {
        let (a, b) = keys.split_at(a_len);
        let (pairs, c) = backend.partition_unit(a, b, blocks, params);
        return (GroupCoranks::Pair(pairs), c);
    }
    let (pairs, c) = backend.partition_unit_multi(&group_refs(keys, grp), blocks, params);
    (GroupCoranks::Multi(pairs), c)
}

/// Merge output block `j` of a group of two or more runs whose keys are
/// `keys`: the pairwise unit for two runs, the k-way unit for more.
/// `pre` is the block's co-ranks as [`GroupCoranks::block`] gives them
/// (Modern GPU); `None` makes the block search its own (Thrust).
fn merge_group_block<K: wcms_gpu_sim::GpuKey>(
    backend: &impl ExecBackend,
    keys: &[K],
    grp: &[RunSpan],
    j: usize,
    params: &SortParams,
    pre: Option<&[(usize, usize)]>,
) -> Result<(Vec<K>, RoundCounters), WcmsError> {
    if let [(a_off, a_len), (b_off, _)] = *grp {
        let (a, b) = keys.split_at(a_len);
        return backend.merge_unit(a, b, a_off, b_off, j, params, pre.map(|p| p[0]));
    }
    let offsets: Vec<usize> = grp.iter().map(|r| r.0).collect();
    backend.merge_unit_multi(&group_refs(keys, grp), &offsets, grp[0].0, j, params, pre)
}

/// Copy one work unit's output into its output window. An output of the
/// wrong length is a typed error, never a short or overlong sort.
fn fill_window<K: Copy>(
    window: &mut [K],
    out: &[K],
    round: usize,
    unit: usize,
) -> Result<(), WcmsError> {
    if out.len() != window.len() {
        return Err(WcmsError::CorruptOutput {
            round,
            block: unit,
            reason: format!(
                "work unit returned {} elements for a {}-element output window",
                out.len(),
                window.len()
            ),
        });
    }
    window.copy_from_slice(out);
    Ok(())
}

fn sum_counters<'a>(parts: impl IntoIterator<Item = &'a RoundCounters>) -> RoundCounters {
    let mut total = RoundCounters::default();
    for c in parts {
        total.absorb(c);
    }
    total
}

/// One round of the sort: its index (0 is the base case), its groups of
/// consecutive runs, and every `bE` output window as (group, block
/// within the group), in window order — the kernel's block order. A
/// window's index is also its kernel-wide block id.
struct Round<'a> {
    index: usize,
    groups: Vec<&'a [RunSpan]>,
    plan: Vec<(usize, usize)>,
}

impl Round<'_> {
    /// A group of one run after the base case copies its run unchanged:
    /// it has no partition kernel and draws no faults.
    fn passes_through(&self, gi: usize) -> bool {
        self.index > 0 && self.groups[gi].len() == 1
    }
}

/// Run window `w` of `round` on `engine` from `keys`, the keys of the
/// window's group, into `out`: the base block in round 0, block `j` of
/// the group's merge later, or a copy. `pre` is the block's co-ranks
/// from the partition kernel (Modern GPU); `None` makes the block search
/// its own.
fn run_unit<K: wcms_gpu_sim::GpuKey>(
    engine: &impl ExecBackend,
    params: &SortParams,
    round: &Round,
    w: usize,
    keys: &[K],
    pre: Option<&[(usize, usize)]>,
    out: &mut [K],
) -> Result<RoundCounters, WcmsError> {
    let (gi, j) = round.plan[w];
    let grp = round.groups[gi];
    let (unit_out, c) = if round.index == 0 {
        engine.base_block(keys, grp[0].0, params)?
    } else if round.passes_through(gi) {
        out.copy_from_slice(&keys[j * out.len()..(j + 1) * out.len()]);
        return Ok(RoundCounters::default());
    } else {
        merge_group_block(engine, keys, grp, j, params, pre)?
    };
    fill_window(out, &unit_out, round.index, w)?;
    Ok(c)
}

/// The fault guard of a resilient sort: the injector that corrupts each
/// window's inputs and the policy that retries and degrades the groups
/// that fail. `None` runs the plain sort. Only this module's entry
/// points set it.
type FaultGuard<'a> = Option<(&'a FaultInjector, &'a RecoveryPolicy)>;

/// What the fault guard did to one window's inputs before its unit ran.
#[derive(Default)]
struct Injected {
    /// The first run's co-rank pair was corrupted.
    corank: bool,
    /// The bits flipped in the keys the unit loaded, if a tile fault
    /// fired.
    tile_bits: Option<usize>,
}

/// One window's attempt: what was injected, and what its unit returned.
type Outcome = (Injected, Result<RoundCounters, WcmsError>);

/// The partition kernels of one launch, by group (empty when the round
/// has none).
type Partitions = Vec<Option<(GroupCoranks, RoundCounters)>>;

/// The typed errors by which a unit reports corrupted inputs: a fault
/// the guard detected. Any other error ends the sort.
fn detects(e: &WcmsError) -> bool {
    matches!(
        e,
        WcmsError::PartitionValidation { .. }
            | WcmsError::SmemOutOfBounds { .. }
            | WcmsError::CrewViolation { .. }
            | WcmsError::CorruptOutput { .. }
    )
}

/// A window's inputs as the fault guard corrupted them: its co-ranks,
/// and its group's keys with the number of bits flipped in them.
type Corrupted<K> = (Option<Vec<(usize, usize)>>, Option<(Vec<K>, usize)>);

/// Draw window `w`'s faults on `attempt` and corrupt copies of its
/// inputs: in a merge round the first run's co-rank pair (a faulty
/// partition kernel, or a torn read of its array), and in every round
/// bits of the group's keys, which the unit may or may not load.
fn inject<K: wcms_gpu_sim::GpuKey>(
    injector: &FaultInjector,
    round: &Round,
    w: usize,
    keys: &[K],
    pre: Option<&[(usize, usize)]>,
    attempt: usize,
    be: usize,
) -> Corrupted<K> {
    let (gi, j) = round.plan[w];
    let grp = round.groups[gi];
    let r = round.index;
    let coranks = (r > 0 && injector.corank_fault_at(r, w, attempt)).then(|| {
        let mut pairs: Vec<(usize, usize)> = pre.map_or_else(
            || {
                let lens: Vec<usize> = grp.iter().map(|run| run.1).collect();
                let refs = group_refs(keys, grp);
                let starts = multiway_select(&lens, j * be, |i, x| refs[i][x]);
                let ends = multiway_select(&lens, (j + 1) * be, |i, x| refs[i][x]);
                starts.into_iter().zip(ends).collect()
            },
            <[_]>::to_vec,
        );
        pairs[0] = injector.corrupt_corank(pairs[0], r, w, attempt);
        pairs
    });
    let tile = injector.tile_fault_at(r, w, attempt).then(|| {
        let mut tile = keys.to_vec();
        let bits = injector.flip_tile_bits(&mut tile, r, w, attempt);
        (tile, bits)
    });
    (coranks, tile)
}

/// Count and trace what the guard injected into window `w` of round
/// `round` on `attempt`. Every fault becomes a `fault-injected` event
/// carrying the injector's seed and the fault's coordinates (the
/// window is the kernel-wide block, `unit`) — enough to replay it.
fn record(
    obs: &Obs,
    injector: &FaultInjector,
    injected: &Injected,
    (round, w, attempt): (usize, usize, usize),
    counters: &mut FaultCounters,
) {
    let seed = injector.config().seed;
    if injected.corank {
        counters.corank_faults += 1;
        event!(obs, "fault-injected",
            kind => "corank", seed => seed, round => round, unit => w, attempt => attempt);
    }
    if let Some(bits) = injected.tile_bits {
        counters.tile_faults += 1;
        counters.bits_flipped += bits;
        event!(obs, "fault-injected",
            kind => "tile-bitflip", seed => seed, round => round, unit => w, attempt => attempt);
    }
}

/// What every round of one sort runs on.
struct Pipeline<'a, B> {
    params: &'a SortParams,
    backend: &'a B,
    obs: &'a Obs,
    threads: fn() -> usize,
    guard: FaultGuard<'a>,
}

impl<B: ExecBackend> Pipeline<'_, B> {
    /// Launch `round`'s kernels once for the groups `todo` marks: the
    /// Modern GPU partition kernels of its merges, then one unit per
    /// window of those groups, each written in place into its window of
    /// `dst`. Returns the partitions and the windows' outcomes in window
    /// order. Under the guard each window's inputs are corrupted first,
    /// and every window runs whatever the others return, for the fold to
    /// judge; a plain sort returns its lowest-indexed error.
    fn launch<K: wcms_gpu_sim::GpuKey>(
        &self,
        round: &Round,
        src: &[K],
        dst: &mut [K],
        todo: &[bool],
        attempt: usize,
    ) -> Result<(Partitions, Vec<Outcome>), WcmsError> {
        let be = self.params.block_elems();
        let mut partitions = Vec::new();
        if round.index > 0 && self.params.variant == SortVariant::ModernGpu {
            partitions = exec::map((self.threads)(), &round.groups, |gi, grp| {
                (todo[gi] && !round.passes_through(gi))
                    .then(|| partition_group(self.backend, group_keys(src, grp), grp, self.params))
            });
        }
        let windows = dst.chunks_mut(be).enumerate().filter(|&(w, _)| todo[round.plan[w].0]);
        let outcomes = exec::try_map((self.threads)(), windows, |_, (w, out)| {
            let (gi, j) = round.plan[w];
            let keys = group_keys(src, round.groups[gi]);
            let pre = partitions.get(gi).and_then(Option::as_ref).map(|(c, _)| c.block(j));
            let (coranks, tile) = match self.guard {
                Some((injector, _)) if !round.passes_through(gi) => {
                    inject(injector, round, w, keys, pre, attempt, be)
                }
                _ => (None, None),
            };
            let injected =
                Injected { corank: coranks.is_some(), tile_bits: tile.as_ref().map(|t| t.1) };
            let keys = tile.as_ref().map_or(keys, |t| t.0.as_slice());
            let pre = coranks.as_deref().or(pre);
            match (self.guard, run_unit(self.backend, self.params, round, w, keys, pre, out)) {
                (None, Err(e)) => Err(e),
                (_, result) => Ok((injected, result)),
            }
        })?;
        Ok((partitions, outcomes))
    }

    /// Run `round` from `src` into `dst` and return its accepted
    /// counters. A plain sort launches every window once. Under the
    /// guard, a group's attempt is judged by folding its windows in
    /// window order and then checking its output; the groups that
    /// failed launch again, and a group out of retries fails the sort or
    /// degrades: its windows re-run on the reference backend, with no
    /// injection and no precomputed co-ranks, and add no counters.
    fn round<K: wcms_gpu_sim::GpuKey>(
        &self,
        round: &Round,
        src: &[K],
        dst: &mut [K],
        fault: &mut FaultReport,
    ) -> Result<RoundCounters, WcmsError> {
        let mut todo = vec![true; round.groups.len()];
        let Some((injector, policy)) = self.guard else {
            let (partitions, outcomes) = self.launch(round, src, dst, &todo, 0)?;
            // An unguarded launch returns only when every window succeeded.
            let units = outcomes.iter().filter_map(|(_, result)| result.as_ref().ok());
            return Ok(sum_counters(partitions.iter().flatten().map(|(_, c)| c).chain(units)));
        };
        let be = self.params.block_elems();
        let mut total = RoundCounters::default();
        for attempt in 0..=policy.max_retries {
            let pending = todo.iter().filter(|&&t| t).count();
            if pending == 0 {
                break;
            }
            if attempt > 0 {
                fault.counters.retries += pending;
            }
            let (partitions, outcomes) = self.launch(round, src, dst, &todo, attempt)?;
            // The fold: each group's windows in window order, as its
            // blocks would meet them one after another. The first window
            // that detected a fault fails the attempt, and the windows
            // past it count for nothing.
            let mut outcomes = outcomes.into_iter();
            for (gi, grp) in round.groups.iter().enumerate() {
                if !todo[gi] {
                    continue;
                }
                let windows = (grp[0].0 / be..).zip(outcomes.by_ref().take(group_len(grp) / be));
                let partition = partitions.get(gi).and_then(Option::as_ref).map(|(_, c)| *c);
                let mut accepted = partition.unwrap_or_default();
                let mut clean = true;
                for (w, (injected, result)) in windows {
                    if !clean {
                        continue;
                    }
                    let at = (round.index, w, attempt);
                    record(self.obs, injector, &injected, at, &mut fault.counters);
                    match result {
                        Ok(c) => accepted.absorb(&c),
                        Err(e) if detects(&e) => clean = false,
                        Err(e) => return Err(e),
                    }
                }
                let keys = group_keys(src, grp);
                let out = group_keys(dst, grp);
                if clean
                    && check_round_output(out, keys.len(), multiset_hash(keys), round.index, gi)
                        .is_ok()
                {
                    total.absorb(&accepted);
                    todo[gi] = false;
                } else {
                    fault.counters.detected += 1;
                }
            }
        }

        let Some(first) = todo.iter().position(|&t| t) else { return Ok(total) };
        if !policy.cpu_fallback {
            return Err(WcmsError::FaultUnrecoverable {
                round: round.index,
                block: first,
                retries: policy.max_retries,
            });
        }
        let windows = dst.chunks_mut(be).enumerate().filter(|&(w, _)| todo[round.plan[w].0]);
        exec::try_map((self.threads)(), windows, |_, (w, out)| {
            let keys = group_keys(src, round.groups[round.plan[w].0]);
            run_unit(&ReferenceBackend, self.params, round, w, keys, None, out)
        })?;
        for gi in (0..todo.len()).filter(|&gi| todo[gi]) {
            fault.counters.cpu_fallbacks += 1;
            fault.degraded.push((round.index, gi));
        }
        Ok(total)
    }
}

/// Sort `input` on the simulated GPU and return the sorted output with
/// the full instrumentation report.
///
/// ```
/// use wcms_mergesort::{sort_with_report, SortParams};
///
/// let params = SortParams::new(8, 3, 16)?; // tiny tile for the example
/// let n = params.block_elems() * 4;
/// let input: Vec<u32> = (0..n as u32).rev().collect();
/// let (sorted, report) = sort_with_report(&input, &params)?;
/// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(report.rounds.len(), 2); // log2(4) global merge rounds
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
///
/// # Errors
///
/// Returns [`WcmsError::InvalidLength`] if `input.len()` is not `bE·2^m`
/// (see [`SortParams::valid_len`]), and propagates any kernel-detected
/// corruption (CREW violations, out-of-bounds tiles, bad co-ranks).
pub fn sort_with_report<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    sort_with_report_on(input, params, &SimBackend)
}

/// [`sort_with_report`] generic over the execution backend: the round
/// loop and the fan-out onto idle cores live here, the per-unit
/// execution in `backend`. Every backend sees the identical
/// decomposition into work units, so backends can only differ in how a
/// unit executes — the property the analytic/sim cross-validation rests
/// on.
///
/// # Errors
///
/// Same conditions as [`sort_with_report`].
pub fn sort_with_report_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    sort_algo_with_report_traced_on(input, params, &PairwiseMerge, backend, Obs::noop())
}

/// [`sort_with_report_on`] generic over the *algorithm* as well, under
/// an [`Obs`] bundle. The round loop asks `algo` for each round's
/// fan-in; a group of two runs merges through the pairwise work units
/// and a wider group through the k-way units, so [`PairwiseMerge`] is
/// the paper's pairwise merge sort. Every `(algorithm, backend)`
/// combination sees the identical decomposition into work units.
///
/// A `sort` span wraps the whole pipeline, the base case runs inside a
/// `base-case` span and each global round inside a `merge-round` span,
/// per-round `round-counters` events carry the merge-step and
/// bank-conflict totals (round 0 is the base case), and the accepted
/// totals feed the `sort_*` metric counters. With [`Obs::noop`] every
/// probe is a single untaken branch — the untraced entry points
/// delegate here.
///
/// # Errors
///
/// Same conditions as [`sort_with_report`].
pub fn sort_algo_with_report_traced_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    algo: &(impl SortAlgorithm + ?Sized),
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    let (out, report, _) =
        sort_on_threads(input, params, algo, backend, obs, exec::idle_threads, None)?;
    Ok((out, report))
}

/// The one round loop behind every entry point, with each phase run on
/// `threads()` threads (the entry points pass the idle-core rule) and
/// under `guard`, which only the resilient entry points set.
fn sort_on_threads<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    algo: &(impl SortAlgorithm + ?Sized),
    backend: &impl ExecBackend,
    obs: &Obs,
    threads: fn() -> usize,
    guard: FaultGuard,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    let n = input.len();
    if !params.valid_len(n) {
        return Err(WcmsError::InvalidLength { n, block_elems: params.block_elems() });
    }
    let be = params.block_elems();
    let _running = SortGuard::enter();
    let _sort_span = span!(obs, "sort", n => n, backend => backend.name());
    let pipeline = Pipeline { params, backend, obs, threads, guard };
    let mut fault = FaultReport::default();

    // Round 0 is the base case: every block is a group of one run and
    // sorts its own tile. Later rounds take their fan-in from `algo`,
    // and the run list tracks the surviving sorted runs' spans. A round
    // reads `cur` (the input, in round 0) and writes every window of
    // `next`, then the two swap.
    let mut runs: Vec<RunSpan> = (0..n / be).map(|i| (i * be, be)).collect();
    let mut counters = Vec::with_capacity(1 + params.global_rounds(n));
    let (mut cur, mut next) = (vec![K::default(); n], vec![K::default(); n]);
    for index in 0.. {
        let fan_in = match index {
            0 => 1,
            _ if runs.len() > 1 => algo.fan_in(runs.len()).clamp(2, runs.len()),
            _ => break,
        };
        let groups: Vec<&[RunSpan]> = runs.chunks(fan_in).collect();
        let plan = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, grp)| (0..group_len(grp) / be).map(move |j| (gi, j)))
            .collect();
        let round = Round { index, groups, plan };
        let _round_span = if index == 0 {
            span!(obs, "base-case", blocks => runs.len())
        } else {
            span!(obs, "merge-round", round => index, list_len => runs[0].1)
        };
        let src = if index == 0 { input } else { &cur };
        let c = pipeline.round(&round, src, &mut next, &mut fault)?;
        event!(obs, "round-counters",
            round => index,
            merge_steps => c.shared.merge.steps,
            extra_cycles => c.shared.combined().extra_cycles,
            blocks => c.blocks);
        counters.push(c);
        runs = round.groups.iter().map(|grp| (grp[0].0, group_len(grp))).collect();
        std::mem::swap(&mut cur, &mut next);
    }

    let mut rounds = counters.into_iter();
    let base = rounds.next().unwrap_or_default();
    let report = SortReport { params: *params, n, base, rounds: rounds.collect() };
    observe_report(obs, &report);
    if guard.is_some() && obs.is_active() {
        let c = &fault.counters;
        obs.metrics.counter("faults_injected_total").add((c.tile_faults + c.corank_faults) as u64);
        obs.metrics.counter("faults_detected_total").add(c.detected as u64);
        obs.metrics.counter("fault_retries_total").add(c.retries as u64);
        obs.metrics.counter("fault_cpu_fallbacks_total").add(c.cpu_fallbacks as u64);
    }
    Ok((cur, report, fault))
}

/// Feed one accepted [`SortReport`] into the metric counters. The
/// invariant the observability tests pin: `sort_merge_steps_total`
/// advances by exactly `report.total().shared.merge.steps` and
/// `sort_conflict_extra_cycles_total` by exactly
/// `report.total().shared.combined().extra_cycles`, on every backend.
fn observe_report(obs: &Obs, report: &SortReport) {
    if !obs.is_active() {
        return;
    }
    let total = report.total();
    obs.metrics.counter("sorts_total").inc();
    obs.metrics.counter("sort_rounds_total").add(report.rounds.len() as u64);
    obs.metrics.counter("sort_merge_steps_total").add(total.shared.merge.steps as u64);
    obs.metrics.counter("sort_blocks_launched_total").add(report.blocks_launched() as u64);
    total.to_kernel().observe(&obs.metrics, "sort");
}

/// Sort an arbitrary-length input by padding with max-value sentinels up
/// to the next valid length and truncating afterwards. The reported `n`
/// is the padded length.
///
/// # Errors
///
/// Propagates kernel-detected corruption from [`sort_with_report`]
/// (the length itself is always made valid by padding).
pub fn sort_padded<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    if params.valid_len(input.len()) {
        return sort_with_report(input, params);
    }
    let target = params.next_valid_len(input.len());
    let mut padded = input.to_vec();
    padded.resize(target, K::max_value());
    let (mut out, report) = sort_with_report(&padded, params)?;
    out.truncate(input.len());
    Ok((out, report))
}

/// How a resilient sort reacts to detected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per group after its first failed attempt (each retry
    /// restarts from the group's immutable, checkpointed input).
    pub max_retries: usize,
    /// After the retry budget: recompute the group on the trusted CPU
    /// reference path (`true`), or give up with
    /// [`WcmsError::FaultUnrecoverable`] (`false`).
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 2, cpu_fallback: true }
    }
}

/// What happened fault-wise during one resilient sort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Injection and recovery totals.
    pub counters: FaultCounters,
    /// Work units that fell back to the CPU reference path, as
    /// `(round, unit)` — unit is the block index in round 0 (base case)
    /// and the group index in global merge rounds.
    pub degraded: Vec<(usize, usize)>,
}

impl FaultReport {
    /// True if no fault fired and no recovery work happened — the
    /// GPU-side counters then match a plain [`sort_with_report`] run
    /// bit-for-bit.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.counters == FaultCounters::default() && self.degraded.is_empty()
    }
}

/// [`sort_with_report`] hardened against transient faults: every kernel
/// runs under a [`FaultInjector`] and every work unit's output is
/// checked (sortedness + multiset fingerprint against its immutable
/// input) before it is accepted.
///
/// It is the plain sort's round loop under a fault guard. Detection and
/// recovery are per group — a thread block in the base case, a merged
/// group of runs in a global round:
///
/// 1. a typed kernel error (CREW violation, out-of-bounds tile, invalid
///    co-rank, corrupt output) in one of the group's windows, or a
///    failed `check_round_output` on its output, marks the attempt bad;
/// 2. the group retries from its checkpointed input up to
///    [`RecoveryPolicy::max_retries`] times — transient faults (keyed by
///    attempt) clear, hard faults do not;
/// 3. on exhaustion the group's windows re-run on the trusted
///    [`ReferenceBackend`] and the group is recorded in the
///    `FaultReport`, or the sort fails with
///    [`WcmsError::FaultUnrecoverable`] if `cpu_fallback` is off.
///
/// The [`SortReport`] counts only the *accepted* GPU work (a degraded
/// group contributes no GPU counters); wasted attempts show up in the
/// `FaultReport` instead. With [`FaultInjector::disabled`] the output
/// and report are bit-identical to [`sort_with_report`] and the fault
/// report is `FaultReport::clean`.
///
/// ```
/// use wcms_gpu_sim::fault::{FaultConfig, FaultInjector};
/// use wcms_mergesort::{sort_resilient, RecoveryPolicy, SortParams};
///
/// let params = SortParams::new(8, 3, 16)?;
/// let input: Vec<u32> = (0..params.block_elems() as u32 * 8).rev().collect();
/// let inj = FaultInjector::new(FaultConfig {
///     seed: 7,
///     tile_bitflip_rate: 0.5,
///     ..FaultConfig::default()
/// });
/// let (out, _report, faults) =
///     sort_resilient(&input, &params, &inj, &RecoveryPolicy::default())?;
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// assert!(faults.counters.detected >= 1); // faults fired and were caught
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
///
/// # Errors
///
/// [`WcmsError::InvalidLength`] for a non-`bE·2^m` input, and
/// [`WcmsError::FaultUnrecoverable`] when a unit exhausts its retries
/// with CPU fallback disabled. With `cpu_fallback` on, injected faults
/// never surface as errors — only as entries in the `FaultReport`.
pub fn sort_resilient<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    sort_resilient_algo_traced_on(
        input,
        params,
        &PairwiseMerge,
        injector,
        policy,
        &SimBackend,
        Obs::noop(),
    )
}

/// [`sort_resilient`] generic over the algorithm and the execution
/// backend, under an [`Obs`] bundle.
///
/// The retry/degrade policy is a pure wrapper around *any*
/// [`ExecBackend`]: injection corrupts a window's inputs, the unit runs
/// on `backend`, and the degrade ladder always bottoms out on the
/// trusted [`ReferenceBackend`] regardless of the primary backend.
/// Retry is *group*-granular: the group of runs merged together is the
/// smallest unit whose output multiset is known in advance (the pair,
/// for [`PairwiseMerge`]; the block, in the base case).
///
/// The trace has the plain sort's shape — the `sort`, `base-case` and
/// `merge-round` spans, and `round-counters` events carrying the
/// accepted counters — plus a `fault-injected` event for every injected
/// fault, carrying the injector seed and the fault's exact coordinates
/// (round, kernel-wide block as `unit`, attempt) — enough to replay it
/// — and the fault totals feed the `fault_*` metric counters.
///
/// # Errors
///
/// Same conditions as [`sort_resilient`].
pub fn sort_resilient_algo_traced_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    algo: &(impl SortAlgorithm + ?Sized),
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    let guard = Some((injector, policy));
    sort_on_threads(input, params, algo, backend, obs, exec::idle_threads, guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    fn check_sorts(input: &[u32], p: &SortParams) {
        let mut want = input.to_vec();
        want.sort_unstable();
        let (out, report) = sort_with_report(input, p).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.n, input.len());
        assert_eq!(report.total().shared.combined().crew_violations, 0);
    }

    #[test]
    fn sorts_single_block() {
        let p = params();
        let input: Vec<u32> = (0..48u32).rev().collect();
        check_sorts(&input, &p);
    }

    #[test]
    fn sorts_multiple_rounds() {
        let p = params();
        let n = p.block_elems() * 8; // 3 global rounds
        let input: Vec<u32> =
            (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % 10_007).collect();
        check_sorts(&input, &p);
        let (_, report) = sort_with_report(&input, &p).unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.base.blocks, 8);
        assert!(report.rounds.iter().all(|r| r.blocks == 8));
    }

    #[test]
    fn sorts_adversarial_shapes() {
        let p = params();
        let n = p.block_elems() * 4;
        for input in [
            (0..n as u32).collect::<Vec<_>>(),
            (0..n as u32).rev().collect::<Vec<_>>(),
            vec![3u32; n],
            (0..n as u32).map(|i| i % 7).collect::<Vec<_>>(),
        ] {
            check_sorts(&input, &p);
        }
    }

    use crate::algorithm::{AlgorithmKind, MultiwayMerge};
    use crate::backend::{AnalyticBackend, BackendKind};

    #[test]
    fn pairwise_algo_is_bit_identical_to_legacy_entry_points() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let legacy = sort_with_report(&input, &p).unwrap();
            let algo = sort_algo_with_report_traced_on(
                &input,
                &p,
                &PairwiseMerge,
                &SimBackend,
                Obs::noop(),
            )
            .unwrap();
            assert_eq!(legacy, algo, "PairwiseMerge must preserve semantics exactly");
        }
    }

    #[test]
    fn multiway_sorts_with_fewer_rounds() {
        let p = params();
        let n = p.block_elems() * 16; // pairwise: 4 rounds; 4-way: 2
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let algo = MultiwayMerge::default();
        let (out, report) =
            sort_algo_with_report_traced_on(&input, &p, &algo, &SimBackend, Obs::noop()).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.rounds.len(), 2);
        let (_, pair_report) = sort_with_report(&input, &p).unwrap();
        assert_eq!(pair_report.rounds.len(), 4);
    }

    #[test]
    fn multiway_backends_agree_integer_exactly() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu), params().with_padding()]
        {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(31) % 4096).collect();
            let algo = MultiwayMerge::default();
            let (sim_out, sim_rep) =
                sort_algo_with_report_traced_on(&input, &p, &algo, &SimBackend, Obs::noop())
                    .unwrap();
            let (ana_out, ana_rep) =
                sort_algo_with_report_traced_on(&input, &p, &algo, &AnalyticBackend, Obs::noop())
                    .unwrap();
            let (ref_out, ref_rep) =
                sort_algo_with_report_traced_on(&input, &p, &algo, &ReferenceBackend, Obs::noop())
                    .unwrap();
            assert_eq!(ana_out, sim_out);
            assert_eq!(ref_out, sim_out);
            assert_eq!(ana_rep, sim_rep, "analytic counters must be integer-identical");
            assert_eq!(ref_rep.total().shared.combined().conflicting_accesses, 0);
        }
    }

    #[test]
    fn multiway_handles_non_power_of_k_run_counts() {
        // 8 runs under k = 3: groups of 3, 3, 2 → runs of 3bE, 3bE, 2bE,
        // then one final 3-way group of unequal runs.
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = input.clone();
        want.sort_unstable();
        let algo = MultiwayMerge { k: 3 };
        let (out, report) =
            sort_algo_with_report_traced_on(&input, &p, &algo, &SimBackend, Obs::noop()).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.rounds.len(), 2);
    }

    /// Also 3-way over 8 runs, whose tail group is a pair of unequal
    /// position: every group shape goes through the guarded group path.
    #[test]
    fn multiway_resilient_disabled_injector_matches_plain() {
        let p = params();
        for (algo, runs) in [(MultiwayMerge::default(), 16), (MultiwayMerge { k: 3 }, 8)] {
            let n = p.block_elems() * runs;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 512).collect();
            let (plain_out, plain_rep) =
                sort_algo_with_report_traced_on(&input, &p, &algo, &SimBackend, Obs::noop())
                    .unwrap();
            let (out, rep, faults) = sort_resilient_algo_traced_on(
                &input,
                &p,
                &algo,
                &FaultInjector::disabled(),
                &RecoveryPolicy::default(),
                &SimBackend,
                Obs::noop(),
            )
            .unwrap();
            assert_eq!(out, plain_out, "k = {}", algo.k);
            assert_eq!(rep, plain_rep, "k = {}", algo.k);
            assert!(faults.clean(), "k = {}: {faults:?}", algo.k);
        }
    }

    #[test]
    fn multiway_resilient_recovers_from_faults() {
        let p = params();
        let n = p.block_elems() * 16;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let algo = MultiwayMerge::default();
        for (tile, corank) in [(0.3, 0.0), (0.0, 0.5), (1.0, 0.0)] {
            let inj = faulty(7, tile, corank);
            let (out, _, faults) = sort_resilient_algo_traced_on(
                &input,
                &p,
                &algo,
                &inj,
                &RecoveryPolicy { max_retries: 4, cpu_fallback: true },
                &SimBackend,
                Obs::noop(),
            )
            .unwrap();
            assert_eq!(out, want, "tile={tile} corank={corank}");
            assert!(faults.counters.any_injected(), "tile={tile} corank={corank} fired nothing");
            assert!(faults.counters.detected > 0, "tile={tile} corank={corank}");
        }
    }

    /// The driver on `&kind` returns what it returns on the backend the
    /// kind names, for every kind, algorithm and kernel structure.
    #[test]
    fn backend_kind_algo_dispatch_matches_generic_drivers() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).rev().collect();
            for algo in AlgorithmKind::ALL {
                let a = algo.instance();
                let direct = [
                    sort_algo_with_report_traced_on(&input, &p, a, &SimBackend, Obs::noop()),
                    sort_algo_with_report_traced_on(&input, &p, a, &AnalyticBackend, Obs::noop()),
                    sort_algo_with_report_traced_on(&input, &p, a, &ReferenceBackend, Obs::noop()),
                ];
                for (kind, direct) in BackendKind::ALL.into_iter().zip(direct) {
                    let on_kind =
                        sort_algo_with_report_traced_on(&input, &p, a, &kind, Obs::noop());
                    assert_eq!(on_kind.unwrap(), direct.unwrap(), "{kind} {algo} {:?}", p.variant);
                }
            }
        }
    }

    #[test]
    fn deterministic_counters_across_runs() {
        let p = params();
        let n = p.block_elems() * 4;
        let input: Vec<u32> = (0..n as u32).map(|i| (i * 31) % 257).collect();
        let (_, r1) = sort_with_report(&input, &p).unwrap();
        let (_, r2) = sort_with_report(&input, &p).unwrap();
        assert_eq!(r1, r2, "the window-order reduction must be deterministic");
    }

    const ONE: fn() -> usize = || 1;
    const FOUR: fn() -> usize = || 4;

    /// The thread count is invisible to callers: output and report are
    /// identical on 1 and 4 threads for every backend with counters,
    /// both kernel structures and every algorithm, 3-way over 8 runs
    /// (unequal final group) included.
    #[test]
    fn one_and_four_threads_are_bit_identical() {
        let multiway = MultiwayMerge::default();
        let three_way = MultiwayMerge { k: 3 };
        let algos: [&dyn SortAlgorithm; 3] = [&PairwiseMerge, &multiway, &three_way];
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            for algo in algos {
                let obs = Obs::noop();
                let sim1 = sort_on_threads(&input, &p, algo, &SimBackend, obs, ONE, None).unwrap();
                let sim4 = sort_on_threads(&input, &p, algo, &SimBackend, obs, FOUR, None).unwrap();
                assert_eq!(sim1, sim4, "sim, {} {:?}", algo.name(), p.variant);
                let ana1 =
                    sort_on_threads(&input, &p, algo, &AnalyticBackend, obs, ONE, None).unwrap();
                let ana4 =
                    sort_on_threads(&input, &p, algo, &AnalyticBackend, obs, FOUR, None).unwrap();
                assert_eq!(ana1, ana4, "analytic, {} {:?}", algo.name(), p.variant);
            }
        }
    }

    /// The guarded loop under an active injector: output, report,
    /// fault report (degraded units in order) and the first error are
    /// identical on 1 and 4 threads.
    #[test]
    fn resilient_one_and_four_threads_are_bit_identical() {
        let three_way = MultiwayMerge { k: 3 };
        let algos: [&dyn SortAlgorithm; 2] = [&PairwiseMerge, &three_way];
        let policy = RecoveryPolicy::default();
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
            for algo in algos {
                for inj in [faulty(7, 0.3, 0.3), faulty(3, 1.0, 0.0)] {
                    let run = |threads| {
                        let guard = Some((&inj, &policy));
                        sort_on_threads(&input, &p, algo, &SimBackend, Obs::noop(), threads, guard)
                            .unwrap()
                    };
                    let (one, four) = (run(ONE), run(FOUR));
                    assert!(one.2.counters.any_injected(), "{}: nothing fired", algo.name());
                    assert_eq!(one, four, "{} {:?}", algo.name(), p.variant);
                }
                let strict = RecoveryPolicy { max_retries: 1, cpu_fallback: false };
                let inj = faulty(3, 1.0, 0.0);
                let err = |threads| {
                    let guard = Some((&inj, &strict));
                    sort_on_threads(&input, &p, algo, &SimBackend, Obs::noop(), threads, guard)
                        .unwrap_err()
                        .to_string()
                };
                assert_eq!(err(ONE), err(FOUR), "{} {:?}", algo.name(), p.variant);
            }
        }
    }

    /// Forwards to the simulator, but every merge unit for the second
    /// window of its group returns one key short.
    struct ShortUnit;

    impl ExecBackend for ShortUnit {
        fn name(&self) -> &'static str {
            "short-unit"
        }

        fn base_block<K: wcms_gpu_sim::GpuKey>(
            &self,
            chunk: &[K],
            global_offset: usize,
            params: &SortParams,
        ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
            SimBackend.base_block(chunk, global_offset, params)
        }

        fn merge_unit<K: wcms_gpu_sim::GpuKey>(
            &self,
            a: &[K],
            b: &[K],
            a_offset: usize,
            b_offset: usize,
            block_index: usize,
            params: &SortParams,
            precomputed: Option<(usize, usize)>,
        ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
            let (mut out, c) = SimBackend.merge_unit(
                a,
                b,
                a_offset,
                b_offset,
                block_index,
                params,
                precomputed,
            )?;
            if block_index == 1 {
                out.pop();
            }
            Ok((out, c))
        }

        fn merge_unit_multi<K: wcms_gpu_sim::GpuKey>(
            &self,
            runs: &[&[K]],
            run_offsets: &[usize],
            out_offset: usize,
            block_index: usize,
            params: &SortParams,
            precomputed: Option<&[(usize, usize)]>,
        ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
            SimBackend.merge_unit_multi(
                runs,
                run_offsets,
                out_offset,
                block_index,
                params,
                precomputed,
            )
        }
    }

    /// A unit output of the wrong length is a typed error naming the
    /// lowest such window, on any thread count — not a panic and not a
    /// short sort.
    #[test]
    fn a_short_unit_is_a_typed_error() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32 * 8).rev().collect();
        for threads in [ONE, FOUR] {
            let err =
                sort_on_threads(&input, &p, &PairwiseMerge, &ShortUnit, Obs::noop(), threads, None)
                    .unwrap_err();
            assert!(
                matches!(&err, WcmsError::CorruptOutput { round: 1, block: 1, reason }
                    if reason.contains("47 elements for a 48-element")),
                "{err}"
            );
        }
    }

    #[test]
    fn padded_sort_handles_ragged_sizes() {
        let p = params();
        let input: Vec<u32> = (0..100u32).rev().collect();
        let (out, report) = sort_padded(&input, &p).unwrap();
        let mut want = input.clone();
        want.sort_unstable();
        assert_eq!(out, want);
        assert_eq!(report.n, p.next_valid_len(100));
    }

    #[test]
    fn rejects_invalid_length() {
        let err = sort_with_report(&[1u32, 2, 3], &params()).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{err}");
    }

    use wcms_gpu_sim::fault::FaultConfig;

    fn faulty(seed: u64, tile: f64, corank: f64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed,
            tile_bitflip_rate: tile,
            corank_rate: corank,
            ..FaultConfig::default()
        })
    }

    /// The acceptance property of the fault subsystem: with the injector
    /// disabled, output AND counters are bit-identical to the plain
    /// driver, and the fault report is clean.
    #[test]
    fn disabled_injector_is_bit_identical_to_plain_driver() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let (plain_out, plain_rep) = sort_with_report(&input, &p).unwrap();
            let (out, rep, faults) =
                sort_resilient(&input, &p, &FaultInjector::disabled(), &RecoveryPolicy::default())
                    .unwrap();
            assert_eq!(out, plain_out);
            assert_eq!(rep, plain_rep, "counters must match bit-for-bit");
            assert!(faults.clean(), "{faults:?}");
        }
    }

    /// Transient faults at moderate rates: the output is still the exact
    /// sorted permutation (zero silent corruption), faults are detected,
    /// and retries recover without exhausting the budget.
    #[test]
    fn recovers_from_transient_faults() {
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let inj = faulty(7, 0.3, 0.3);
        let (out, _, faults) = sort_resilient(
            &input,
            &p,
            &inj,
            &RecoveryPolicy { max_retries: 6, cpu_fallback: true },
        )
        .unwrap();
        assert_eq!(out, want);
        assert!(faults.counters.any_injected(), "rates of 0.3 must fire somewhere");
        assert!(faults.counters.detected > 0);
        assert!(faults.counters.retries > 0);
    }

    /// A hard fault (rate 1.0) defeats every retry; the driver degrades
    /// the affected units to the CPU path and still returns the exact
    /// sorted permutation.
    #[test]
    fn hard_faults_degrade_to_cpu_and_stay_correct() {
        let p = params();
        let n = p.block_elems() * 4;
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = input.clone();
        want.sort_unstable();
        let inj = faulty(3, 1.0, 0.0);
        let policy = RecoveryPolicy { max_retries: 2, cpu_fallback: true };
        let (out, rep, faults) = sort_resilient(&input, &p, &inj, &policy).unwrap();
        assert_eq!(out, want);
        // A base block reads its whole chunk, so its flip is always
        // consumed: all 4 base blocks must degrade. (A merge-round flip
        // can land in pair data outside the block's window — injected
        // but harmless — so pairs may legitimately recover.)
        for j in 0..4 {
            assert!(faults.degraded.contains(&(0, j)), "{faults:?}");
        }
        assert!(faults.counters.cpu_fallbacks >= 4);
        // Degraded units contribute no GPU counters.
        assert_eq!(rep.base.blocks, 0);
        // Every degraded unit burned its full retry budget first.
        assert!(faults.counters.retries >= faults.counters.cpu_fallbacks * policy.max_retries);
    }

    /// With CPU fallback disabled, a hard fault surfaces as the typed
    /// unrecoverable error instead of bad data.
    #[test]
    fn hard_fault_without_fallback_is_a_typed_error() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32 * 2).rev().collect();
        let inj = faulty(3, 1.0, 0.0);
        let err = sort_resilient(
            &input,
            &p,
            &inj,
            &RecoveryPolicy { max_retries: 1, cpu_fallback: false },
        )
        .unwrap_err();
        assert!(matches!(err, WcmsError::FaultUnrecoverable { round: 0, retries: 1, .. }), "{err}");
    }

    /// Co-rank corruption — whether it trips the kernel's structural
    /// validation or survives to the round check — never corrupts the
    /// output, on both kernel structures.
    #[test]
    fn corank_corruption_is_always_caught() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(31) % 4096).collect();
            let mut want = input.clone();
            want.sort_unstable();
            for seed in 0..4 {
                let inj = faulty(seed, 0.0, 0.5);
                let (out, _, faults) =
                    sort_resilient(&input, &p, &inj, &RecoveryPolicy::default()).unwrap();
                assert_eq!(out, want, "seed {seed}");
                assert!(faults.counters.corank_faults > 0, "seed {seed} fired nothing");
            }
        }
    }

    /// Same seed ⇒ same injected faults ⇒ same fault report, end to end.
    #[test]
    fn fault_runs_replay_deterministically() {
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 512).collect();
        let inj = faulty(99, 0.4, 0.4);
        let policy = RecoveryPolicy::default();
        let (out1, rep1, f1) = sort_resilient(&input, &p, &inj, &policy).unwrap();
        let (out2, rep2, f2) = sort_resilient(&input, &p, &inj, &policy).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2);
        assert_eq!(f1, f2);
    }

    /// The Modern GPU variant sorts identically but pays for its separate
    /// partition kernels: more global requests and more blocks launched.
    #[test]
    fn mgpu_variant_sorts_with_extra_partition_cost() {
        let thrust = params();
        let mgpu = params().with_variant(SortVariant::ModernGpu);
        let n = thrust.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).rev().collect();

        let (out_t, rep_t) = sort_with_report(&input, &thrust).unwrap();
        let (out_m, rep_m) = sort_with_report(&input, &mgpu).unwrap();
        assert_eq!(out_t, out_m, "variants must agree on the output");
        // Shared-memory conflicts are identical: the tile work is the same.
        assert_eq!(
            rep_t.total().shared.merge,
            rep_m.total().shared.merge,
            "merging-stage conflicts are variant-independent"
        );
        // The partition kernels add global requests and launches.
        assert!(rep_m.total().global.requests > rep_t.total().global.requests);
        assert!(rep_m.blocks_launched() > rep_t.blocks_launched());
    }

    /// Outcome of one resilient run: every `FaultCounters` field as
    /// `[tile_faults, bits_flipped, corank_faults, detected, retries,
    /// cpu_fallbacks]` with the degraded units, or the error.
    type Pinned = Result<([usize; 6], &'static [(usize, usize)]), &'static str>;

    /// One pinned case: algorithm, runs, injector as `(seed, tile rate,
    /// co-rank rate)`, strict policy, outcome.
    type PinRow<'a> = (&'a dyn SortAlgorithm, usize, (u64, f64, f64), bool, Pinned);

    /// The fault path, pinned: counters, degraded units and the
    /// no-fallback error for pairwise and 4-way, 8 and 16 runs, tile,
    /// co-rank and mixed injectors, the default and a strict policy. Both
    /// kernel structures draw the same faults, so each row holds for
    /// Thrust and Modern GPU alike. Any change to a literal is a change of
    /// fault behaviour.
    #[test]
    fn pinned_fault_reports() {
        const E0_1: &str = "round 0, block 1: fault persisted through 1 retries and CPU fallback";
        const E1_0: &str = "round 1, block 0: fault persisted through 1 retries and CPU fallback";
        const E1_1: &str = "round 1, block 1: fault persisted through 1 retries and CPU fallback";
        let (tile, corank, mixed) = ((7, 0.3, 0.0), (5, 0.0, 0.5), (99, 0.3, 0.3));
        let multiway = MultiwayMerge::default();
        #[rustfmt::skip]
        let rows: [PinRow; 24] = [
            (&PairwiseMerge, 8, tile, false, Ok(([9, 9, 0, 6, 6, 0], &[]))),
            (&PairwiseMerge, 8, tile, true, Err(E1_0)),
            (&PairwiseMerge, 8, corank, false,
                Ok(([0, 0, 31, 13, 9, 4], &[(1, 1), (2, 0), (2, 1), (3, 0)]))),
            (&PairwiseMerge, 8, corank, true, Err(E1_1)),
            (&PairwiseMerge, 8, mixed, false,
                Ok(([25, 25, 24, 17, 13, 4], &[(1, 0), (1, 1), (2, 0), (3, 0)]))),
            (&PairwiseMerge, 8, mixed, true, Err(E0_1)),
            (&PairwiseMerge, 16, tile, false, Ok(([37, 37, 0, 13, 13, 0], &[]))),
            (&PairwiseMerge, 16, tile, true, Err(E1_0)),
            (&PairwiseMerge, 16, corank, false, Ok(([0, 0, 69, 30, 21, 9],
                &[(1, 1), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (4, 0)]))),
            (&PairwiseMerge, 16, corank, true, Err(E1_1)),
            (&PairwiseMerge, 16, mixed, false, Ok(([64, 64, 61, 37, 29, 8],
                &[(1, 0), (1, 1), (1, 6), (2, 0), (2, 2), (3, 0), (3, 1), (4, 0)]))),
            (&PairwiseMerge, 16, mixed, true, Err(E0_1)),
            (&multiway, 8, tile, false, Ok(([7, 7, 0, 4, 4, 0], &[]))),
            (&multiway, 8, tile, true, Ok(([7, 7, 0, 4, 4, 0], &[]))),
            (&multiway, 8, corank, false, Ok(([0, 0, 20, 9, 6, 3], &[(1, 0), (1, 1), (2, 0)]))),
            (&multiway, 8, corank, true, Err(E1_0)),
            (&multiway, 8, mixed, false, Ok(([14, 14, 16, 12, 9, 3], &[(1, 0), (1, 1), (2, 0)]))),
            (&multiway, 8, mixed, true, Err(E0_1)),
            (&multiway, 16, tile, false, Ok(([16, 16, 0, 7, 7, 0], &[]))),
            (&multiway, 16, tile, true, Ok(([16, 16, 0, 7, 7, 0], &[]))),
            (&multiway, 16, corank, false,
                Ok(([0, 0, 13, 12, 8, 4], &[(1, 0), (1, 1), (1, 2), (2, 0)]))),
            (&multiway, 16, corank, true, Err(E1_0)),
            (&multiway, 16, mixed, false,
                Ok(([17, 17, 17, 22, 17, 5], &[(1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]))),
            (&multiway, 16, mixed, true, Err(E0_1)),
        ];
        for (algo, runs, (seed, tile, corank), strict, want) in rows {
            let policy = if strict {
                RecoveryPolicy { max_retries: 1, cpu_fallback: false }
            } else {
                RecoveryPolicy::default()
            };
            for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
                let n = p.block_elems() * runs;
                let input: Vec<u32> =
                    (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
                let inj = faulty(seed, tile, corank);
                let got = sort_resilient_algo_traced_on(
                    &input,
                    &p,
                    algo,
                    &inj,
                    &policy,
                    &SimBackend,
                    Obs::noop(),
                );
                let got = match &got {
                    Ok((_, _, f)) => {
                        let c = &f.counters;
                        let fields = [
                            c.tile_faults,
                            c.bits_flipped,
                            c.corank_faults,
                            c.detected,
                            c.retries,
                            c.cpu_fallbacks,
                        ];
                        Ok((fields, f.degraded.as_slice()))
                    }
                    Err(e) => Err(e.to_string()),
                };
                let want = want.map_err(str::to_string);
                let row = format!(
                    "{} {runs} runs {:?} strict={strict} {:?}",
                    algo.name(),
                    (seed, tile, corank),
                    p.variant
                );
                assert_eq!(got, want, "{row}");
            }
        }
    }

    /// A guarded sort traces as a plain one does, faults included: on
    /// Sim, pairwise and 4-way, under an active injector, its journal
    /// validates and opens a `sort` span, its `round-counters` events
    /// (one per round) sum to the accepted report and to the `sort_*`
    /// counters, and its `fault-injected` events number
    /// `faults_injected_total`.
    #[test]
    fn a_guarded_sort_traces_its_rounds_and_faults() {
        use std::sync::Arc;
        use wcms_obs::journal::{parse_journal, validate};
        use wcms_obs::{journal_jsonl, Clock, Phase, RingCollector};

        let p = params();
        let n = p.block_elems() * 16;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let multiway = MultiwayMerge::default();
        let algos: [&dyn SortAlgorithm; 2] = [&PairwiseMerge, &multiway];
        for algo in algos {
            let ring = Arc::new(RingCollector::new());
            let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(1));
            let inj = faulty(99, 0.3, 0.3);
            let policy = RecoveryPolicy::default();
            let (_, report, faults) =
                sort_resilient_algo_traced_on(&input, &p, algo, &inj, &policy, &SimBackend, &obs)
                    .unwrap();
            let name = algo.name();
            assert!(faults.counters.any_injected(), "{name}: nothing fired");
            assert!(!faults.degraded.is_empty(), "{name}: nothing degraded");

            let (records, dropped) = ring.drain();
            let journal = parse_journal(&journal_jsonl(&records, dropped)).unwrap();
            let validation = validate(&journal);
            assert!(validation.is_ok(), "{name}: {:?}", validation.errors);
            let records = |phase: Phase, name: &'static str| {
                journal.records.iter().filter(move |r| r.phase == phase && r.name == name)
            };
            assert_eq!(records(Phase::Begin, "sort").count(), 1, "{name}");
            let rounds = || records(Phase::Event, "round-counters");
            assert_eq!(rounds().count(), 1 + report.rounds.len(), "{name}");
            let sum = |key| rounds().filter_map(|r| r.field(key)?.as_u64()).sum::<u64>();
            let total = report.total();
            let counter = |metric| obs.metrics.counter(metric).get();
            assert_eq!(sum("merge_steps"), total.shared.merge.steps as u64, "{name}");
            assert_eq!(sum("merge_steps"), counter("sort_merge_steps_total"), "{name}");
            let extra = total.shared.combined().extra_cycles as u64;
            assert_eq!(sum("extra_cycles"), extra, "{name}");
            assert_eq!(sum("extra_cycles"), counter("sort_conflict_extra_cycles_total"), "{name}");
            let injected = records(Phase::Event, "fault-injected").count() as u64;
            assert_eq!(injected, counter("faults_injected_total"), "{name}");
        }
    }

    /// In a 3-way round over 8 runs the tail group is a pair owning
    /// blocks 6–7: every block of the round, the tail pair's included,
    /// draws its faults under its own kernel-wide id.
    #[test]
    fn tail_pair_of_a_kway_round_uses_its_own_block_ids() {
        use std::sync::Arc;
        use wcms_obs::{Clock, FieldValue, RingCollector};

        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32 * 8).rev().collect();
        let ring = Arc::new(RingCollector::new());
        let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(1));
        let inj = FaultInjector::new(FaultConfig {
            seed: 3,
            tile_bitflip_rate: 1.0,
            ..FaultConfig::default()
        });
        let policy = RecoveryPolicy { max_retries: 0, cpu_fallback: true };
        let three_way = MultiwayMerge { k: 3 };
        sort_resilient_algo_traced_on(&input, &p, &three_way, &inj, &policy, &SimBackend, &obs)
            .unwrap();
        let field = |fields: &[wcms_obs::Field], key| {
            fields.iter().find(|f| f.key == key).map(|f| f.value.clone())
        };
        let mut units: Vec<u64> = ring
            .drain()
            .0
            .iter()
            .filter(|r| r.name == "fault-injected")
            .filter(|r| field(&r.fields, "round") == Some(FieldValue::U64(1)))
            .filter_map(|r| match field(&r.fields, "unit") {
                Some(FieldValue::U64(unit)) => Some(unit),
                _ => None,
            })
            .collect();
        units.sort_unstable();
        assert_eq!(units, (0..8).collect::<Vec<u64>>());
    }
}
