//! Pluggable execution backends for the simulated sort.
//!
//! The round structure of the pairwise merge sort — base case, then
//! `log₂(N/bE)` global merge rounds — is fixed by the algorithm; what
//! varies is *how one work unit executes*: cycle-accurate lockstep
//! replay, fast analytic conflict counting, or a plain CPU reference.
//! [`ExecBackend`] captures exactly that unit ("run one base-case block
//! / one merge block and return `(output, RoundCounters)`"), and the
//! drivers in [`crate::driver`] are generic over it:
//!
//! ```text
//!          sort_with_report_on · sort_algo_with_report_traced_on
//!                     sort_resilient_algo_traced_on
//!        (round loop, exec fan-out, retry/degrade policy; a group
//!         of two runs → the pairwise units, wider → the k-way units)
//!                                   │
//!                           trait ExecBackend
//!       base_block · merge_unit(_multi) · partition_unit(_multi)
//!       ┌────────────────┬──────────┴───────┬──────────────────┐
//!  BackendKind       SimBackend      AnalyticBackend    ReferenceBackend
//!  (--backend)       lockstep        schedule replay    sort_unstable
//!  forwards each     SharedMemory    into a             / merge_emit,
//!  unit to the       replay, exact   StepAccumulator,   no counters
//!  backend it names  values+counters exact counters     (degrade ladder)
//! ```
//!
//! [`Cancellable`] wraps any of them so every unit first polls a
//! [`CancelToken`].
//!
//! [`SimBackend`] and [`AnalyticBackend`] consume the *same* address
//! schedules ([`crate::schedule::MergeSchedule`]) and differ only in the
//! accounting engine, which is why their counters agree integer for
//! integer (asserted by the cross-validation tests in the bench crate).

mod analytic;
mod reference;
mod sim;

pub use analytic::AnalyticBackend;
pub use reference::ReferenceBackend;
pub use sim::SimBackend;

use wcms_error::cancel::CancelToken;
use wcms_error::WcmsError;
use wcms_gpu_sim::GpuKey;

use crate::instrument::RoundCounters;
use crate::params::SortParams;

/// One execution engine for the sort's work units.
///
/// A backend owns the execution of a single thread block's work — one
/// base-case tile sort, one global-merge output window, one partition
/// kernel — and reports the unit's counters. The drivers compose units
/// into full sorts; backends never see the round loop.
pub trait ExecBackend: Sync {
    /// Short stable name (the `--backend` CLI value).
    fn name(&self) -> &'static str;

    /// Sort one base-case block of exactly `bE` elements. `global_offset`
    /// is the block's word offset in device memory (sector accounting).
    ///
    /// # Errors
    ///
    /// [`WcmsError::InvalidLength`] for a chunk that is not `bE` long,
    /// plus any kernel-detected corruption the backend models.
    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError>;

    /// Merge one block's `bE`-element output window of the sorted pair
    /// `(a, b)`. Mirrors `crate::globalmerge::merge_block`'s contract:
    /// `precomputed` carries the co-ranks of a separate partition kernel
    /// (Modern GPU), `None` makes the block search its own (Thrust).
    ///
    /// # Errors
    ///
    /// [`WcmsError::PartitionValidation`] for a corrupted co-rank pair,
    /// plus any kernel-detected corruption the backend models.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel launch signature
    fn merge_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        a_offset: usize,
        b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError>;

    /// The Modern GPU partition kernel for one pair: every merge block's
    /// `(ca_start, ca_end)` co-ranks plus the kernel's counters. The
    /// kernel is shared-memory-free, so the lockstep default serves the
    /// analytic backend too.
    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        crate::globalmerge::partition_pass(a, b, num_blocks, params)
    }

    /// Merge one block's `bE`-element output window of a *multiway*
    /// group of sorted runs — the k-way analogue of
    /// [`ExecBackend::merge_unit`], mirroring
    /// `crate::globalmerge::merge_block_multi`'s contract.
    ///
    /// # Errors
    ///
    /// [`WcmsError::PartitionValidation`] for a corrupted co-rank
    /// vector, plus any kernel-detected corruption the backend models.
    fn merge_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        run_offsets: &[usize],
        out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError>;

    /// The partition kernel for one *multiway* group: every merge
    /// block's per-run `(start, end)` co-ranks plus the kernel's
    /// counters. Shared-memory-free, so the lockstep default serves the
    /// analytic backend too (same counters by shared construction).
    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        crate::globalmerge::partition_pass_multi(runs, num_blocks, params)
    }
}

/// Any [`ExecBackend`] made cancellable: the wrapped backend's work
/// units run unchanged, but every unit first polls the [`CancelToken`]
/// and fails fast with [`WcmsError::Cancelled`] once it fires.
///
/// Work units are small (one `bE`-element tile or output window), so a
/// per-unit poll bounds the overrun after a deadline to a fraction of a
/// millisecond — this is the hook that lets a sweep supervisor's
/// timeout actually *stop* a cell instead of abandoning a thread that
/// keeps simulating forever. The drivers' fan-out loops propagate the
/// first `Err` and stop issuing units, so the whole sort unwinds
/// promptly.
#[derive(Debug, Clone)]
pub struct Cancellable<B> {
    inner: B,
    token: CancelToken,
}

impl<B: ExecBackend> Cancellable<B> {
    /// Wrap `inner` so its units poll `token`.
    #[must_use]
    pub fn new(inner: B, token: CancelToken) -> Self {
        Self { inner, token }
    }
}

impl<B: ExecBackend> ExecBackend for Cancellable<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        self.token.check()?;
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
        self.token.check()?;
        self.inner.merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)
    }

    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        // Infallible signature: a fired token is caught by the next
        // fallible unit, at worst one partition pass later.
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
        self.token.check()?;
        self.inner.merge_unit_multi(runs, run_offsets, out_offset, block_index, params, precomputed)
    }

    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        // Infallible signature, same as the pairwise partition unit.
        self.inner.partition_unit_multi(runs, num_blocks, params)
    }
}

/// Value-level backend selector (the `--backend {sim,analytic,reference}`
/// flag of every bench binary).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum BackendKind {
    /// Cycle-accurate lockstep simulation ([`SimBackend`]).
    #[default]
    Sim,
    /// Fast analytic conflict prediction ([`AnalyticBackend`]).
    Analytic,
    /// Plain CPU reference, no counters ([`ReferenceBackend`]).
    Reference,
}

impl BackendKind {
    /// All selectable backends, in CLI listing order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Sim, BackendKind::Analytic, BackendKind::Reference];

    /// The stable CLI name (`sim`, `analytic`, `reference`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Analytic => "analytic",
            BackendKind::Reference => "reference",
        }
    }

    /// The next rung of the graceful-degradation ladder: when a cell
    /// repeatedly times out on this backend, the sweep supervisor
    /// retries it on a strictly cheaper engine — `sim → analytic`
    /// (identical measurements, 7.4–7.6× faster over `crossval
    /// --quick`'s 34 cells) and `analytic → reference` (completes, but
    /// models no GPU time).
    /// `None` from `reference`: there is nothing cheaper, the cell
    /// becomes an explicit gap.
    #[must_use]
    pub fn demote(self) -> Option<BackendKind> {
        match self {
            BackendKind::Sim => Some(BackendKind::Analytic),
            BackendKind::Analytic => Some(BackendKind::Reference),
            BackendKind::Reference => None,
        }
    }
}

/// Evaluate `$body` with `$b` bound to the backend that `$kind` names.
macro_rules! on_backend {
    ($kind:expr, |$b:ident| $body:expr) => {
        match $kind {
            BackendKind::Sim => {
                let $b = SimBackend;
                $body
            }
            BackendKind::Analytic => {
                let $b = AnalyticBackend;
                $body
            }
            BackendKind::Reference => {
                let $b = ReferenceBackend;
                $body
            }
        }
    };
}

/// A [`BackendKind`] runs every unit on the backend it names, so the
/// generic drivers take `&kind`, or `&Cancellable::new(kind, token)`,
/// like any concrete backend.
impl ExecBackend for BackendKind {
    fn name(&self) -> &'static str {
        BackendKind::name(*self)
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        on_backend!(self, |e| e.base_block(chunk, global_offset, params))
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
        on_backend!(self, |e| {
            e.merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)
        })
    }

    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        on_backend!(self, |e| e.partition_unit(a, b, num_blocks, params))
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
        on_backend!(self, |e| {
            e.merge_unit_multi(runs, run_offsets, out_offset, block_index, params, precomputed)
        })
    }

    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        on_backend!(self, |e| e.partition_unit_multi(runs, num_blocks, params))
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = WcmsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "analytic" => Ok(BackendKind::Analytic),
            "reference" => Ok(BackendKind::Reference),
            other => Err(WcmsError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown backend '{other}' (expected sim, analytic or reference)"),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sort_with_report_on;

    #[test]
    fn kind_round_trips_through_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("gpu".parse::<BackendKind>().is_err());
    }

    #[test]
    fn kind_names_match_backend_names() {
        assert_eq!(BackendKind::Sim.name(), SimBackend.name());
        assert_eq!(BackendKind::Analytic.name(), AnalyticBackend.name());
        assert_eq!(BackendKind::Reference.name(), ReferenceBackend.name());
        for kind in BackendKind::ALL {
            assert_eq!(ExecBackend::name(&kind), kind.name());
        }
    }

    #[test]
    fn default_kind_is_sim() {
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }

    #[test]
    fn demotion_ladder_bottoms_out_at_reference() {
        assert_eq!(BackendKind::Sim.demote(), Some(BackendKind::Analytic));
        assert_eq!(BackendKind::Analytic.demote(), Some(BackendKind::Reference));
        assert_eq!(BackendKind::Reference.demote(), None);
    }

    #[test]
    fn live_token_leaves_the_sort_bit_identical() {
        let params = SortParams::new(8, 3, 16).unwrap();
        let input: Vec<u32> = (0..params.block_elems() as u32 * 4).rev().collect();
        for kind in BackendKind::ALL {
            let plain = sort_with_report_on(&input, &params, &kind).unwrap();
            let gated = Cancellable::new(kind, CancelToken::new("t"));
            let cancellable = sort_with_report_on(&input, &params, &gated).unwrap();
            assert_eq!(plain, cancellable, "{kind}: wrapper must be transparent");
        }
    }

    #[test]
    fn fired_token_stops_the_sort_with_a_typed_error() {
        let params = SortParams::new(8, 3, 16).unwrap();
        let input: Vec<u32> = (0..params.block_elems() as u32 * 4).rev().collect();
        let token = CancelToken::new("fig4/wc/192");
        token.cancel();
        let gated = Cancellable::new(BackendKind::Sim, token);
        let err = sort_with_report_on(&input, &params, &gated).unwrap_err();
        assert!(matches!(err, WcmsError::Cancelled { ref cell } if cell == "fig4/wc/192"), "{err}");
    }
}
