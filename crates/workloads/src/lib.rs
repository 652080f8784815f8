//! # `wcms-workloads` — input distributions for sorting experiments
//!
//! The paper evaluates on random inputs (10-run averages) against the
//! constructed worst case. This crate provides those and the surrounding
//! distributions used by the harness and by the β-vs-inversions analysis
//! of Karsin et al. (§II-A): all generation is *seeded* and reproducible.
//!
//! * [`random`] — uniform `u32` keys and random permutations;
//! * [`sorted`] — sorted and reverse-sorted ramps;
//! * [`nearly`] — bounded-disorder inputs (k random swaps, local shuffle);
//! * [`dist`] — duplicate-heavy and sawtooth distributions;
//! * `inversions` — exact inversion counting (merge-count);
//! * `adversarial` — the worst-case/conflict-heavy generators of
//!   [`wcms_core`] wrapped as workloads (with size padding);
//! * [`dataset`] — a binary key-file format for exporting constructed
//!   inputs (e.g. to a real-GPU CUDA harness);
//! * `spec` — a serializable [`spec::WorkloadSpec`]
//!   naming every input class the harness sweeps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod adversarial;
pub mod dataset;
pub mod dist;
pub(crate) mod inversions;
pub mod nearly;
pub mod random;
pub mod sorted;
pub(crate) mod spec;

pub use inversions::count_inversions;
pub use spec::WorkloadSpec;
