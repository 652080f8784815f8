//! # `wcms-mergesort` — the GPU pairwise merge sort, simulated
//!
//! A faithful re-implementation of the Thrust / Modern GPU pairwise merge
//! sort (§II-A of the paper) executing on the simulated GPU of
//! [`wcms_gpu_sim`], with every shared-memory access charged its DMM
//! serialization cost and every global access its coalescing cost.
//!
//! Structure (all parameters per [`params::SortParams`]):
//!
//! 1. **Base case** — each thread block sorts `bE` elements in shared
//!    memory: per-thread odd–even register sort (`network`), then
//!    `log₂ b` in-block Merge Path rounds.
//! 2. **Global rounds** — `⌈log₂ N/(bE)⌉` pairwise rounds; in round
//!    `i`, `2ⁱ` blocks cooperate per pair, each finding its `bE`
//!    quantile by mutual binary search in global memory (or reading it
//!    from a partition kernel's array, [`schedule`]) and merging it in
//!    shared memory.
//!
//! Both are work units written once (`backend::kernel`) against a
//! shared-memory tile; the backends differ only in their tile.
//!
//! [`driver::sort_with_report`] runs the whole pipeline (each phase's
//! blocks on idle cores through [`exec`], reduced in window order) and
//! returns a
//! [`instrument::SortReport`] with per-round, per-phase conflict counts —
//! the quantities behind every figure in the paper's evaluation.
//! [`assess::assess_input`] turns that into a one-call verdict on how
//! adversarial an arbitrary workload is for a tuning.
//!
//! [`driver::sort_resilient`] runs the same round loop under a private
//! fault guard: a seeded [`wcms_gpu_sim::fault::FaultInjector`]
//! corrupts each window's inputs, each group's output is checked
//! (`verify::check_round_output`), a failed group retries from its
//! immutable input, and one out of retries re-runs its work units on
//! the CPU reference backend — transient faults are detected and
//! recovered, never silently propagated.
//!
//! The one round loop is generic over a pluggable [`backend::ExecBackend`]
//! that executes one work unit at a time: the cycle-accurate
//! [`backend::SimBackend`] (the default), the
//! [`backend::AnalyticBackend`] with integer-identical counters (the
//! simulator takes 2.6–2.8× its time on `crossval`'s cells),
//! and the counter-free CPU [`backend::ReferenceBackend`] that also
//! serves as the resilient degrade ladder's bottom rung. All three
//! share the per-thread address schedules of [`schedule`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod algorithm;
pub(crate) mod assess;
pub(crate) mod backend;
pub mod bitonic;
pub(crate) mod driver;
pub mod exec;
pub mod instrument;
pub(crate) mod network;
pub mod params;
pub mod schedule;
pub(crate) mod verify;
pub(crate) mod warp_exec;

pub use algorithm::{AlgorithmKind, PairwiseMerge, SortAlgorithm};
pub use assess::assess_input;
pub use backend::{
    AnalyticBackend, BackendKind, Cancellable, ExecBackend, ReferenceBackend, SimBackend,
};
pub use bitonic::bitonic_sort_with_report;
pub use driver::{
    sort_algo_with_report_traced_on, sort_padded, sort_resilient, sort_with_report,
    sort_with_report_on, RecoveryPolicy,
};
pub use instrument::{RoundCounters, SortReport};
pub use params::SortParams;
