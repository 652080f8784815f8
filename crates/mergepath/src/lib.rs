//! # `wcms-mergepath` — GPU Merge Path
//!
//! The pairwise merge primitive of Green, McColl & Bader ("GPU Merge
//! Path", ICS 2012) that Thrust and Modern GPU build their merge sorts on,
//! and the algorithm whose *merging stage* the paper attacks.
//!
//! Merging two sorted lists `A` and `B` with `t` threads proceeds in two
//! stages:
//!
//! 1. **Partitioning** — thread `i` finds the *co-rank* split of diagonal
//!    `d = i · (|A|+|B|)/t` via a *mutual binary search* over both lists
//!    ([`diagonal::merge_path`]): the unique `(aᵢ, bᵢ)` with
//!    `aᵢ + bᵢ = d` such that merging `A[..aᵢ]` and `B[..bᵢ]` yields the
//!    `d` smallest elements.
//! 2. **Merging** — thread `i` sequentially merges its quantile
//!    `A[aᵢ..aᵢ₊₁]` and `B[bᵢ..bᵢ₊₁]` independently of all other threads
//!    ([`serial::merge_emit`]).
//!
//! All search and merge routines take *accessor closures* instead of
//! slices, so the same code runs against plain memory (CPU reference) or
//! against the instrumented simulated shared/global memories.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod diagonal;
pub mod multiway;
pub mod partition;
pub mod serial;

pub use partition::Corank;
