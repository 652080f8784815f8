//! # `wcms-dmm` — the Distributed Memory Machine model
//!
//! The Distributed Memory Machine (DMM) of Mehlhorn & Vishkin (1984) is the
//! model in which Berney & Sitchinava (IPDPS 2020) analyse bank conflicts of
//! the GPU pairwise merge sort. It consists of `w` synchronous processors
//! (the lanes of a warp) and `w` memory modules (the banks of GPU shared
//! memory). Address `x` lives in bank `x mod w`, so memory can be viewed as
//! a 2-D matrix of `w` rows (banks) with contiguous addresses laid out in
//! column-major order.
//!
//! In every time step each processor may issue one memory request; a bank
//! serves one *distinct address* per step, so `m` distinct addresses landing
//! in the same bank serialize into `m` cycles — a *bank conflict*. Multiple
//! processors reading the **same** address broadcast in a single cycle (the
//! paper's footnote 1: on modern GPUs a concurrent read of one location is
//! not a contention). The model is CREW: concurrent writes to one address
//! are forbidden and reported as violations.
//!
//! This crate provides:
//!
//! * [`BankModel`] — the bank mapping and matrix view (`matrix`);
//! * `access` — per-step warp access descriptions;
//! * `conflict` — the conflict accounting engine and its three metrics
//!   (per-step *degree*, the paper's *conflicting accesses* count, and
//!   hardware-style *extra cycles*);
//! * `fastcount` — the count-then-reduce accumulator computing the
//!   same metrics in `O(active lanes + w)` per step for trusted
//!   (race-free) schedules — the engine behind the analytic sort backend;
//! * `layout` — the Dotsenko-style padding that defeats bank conflicts
//!   at the price of `1/w` extra shared memory;
//! * [`stats`] — small summary-statistics helpers shared by the harnesses.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod access;
pub(crate) mod conflict;
pub(crate) mod fastcount;
pub(crate) mod layout;
pub(crate) mod matrix;
pub mod stats;

pub use access::{Access, WarpStep};
pub use conflict::{ConflictCounter, ConflictTotals, StepConflicts};
pub use fastcount::StepAccumulator;
pub use layout::{pad_address, padded_len};
pub use matrix::{BankMatrix, CellClass, MatrixCell};

/// The bank mapping of a DMM / GPU shared memory: `w` banks, address `x`
/// residing in bank `x mod w`.
///
/// `w` is the warp width and bank count; on all Nvidia GPUs the paper
/// considers, `w = 32`. The model itself allows any positive `w` and the
/// paper's illustrations use `w = 16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BankModel {
    banks: usize,
}

impl BankModel {
    /// Create a bank model with `banks` memory modules.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        assert!(banks > 0, "a DMM needs at least one memory bank");
        Self { banks }
    }

    /// The standard 32-bank model of every GPU in the paper's evaluation.
    #[must_use]
    pub fn gpu32() -> Self {
        Self::new(32)
    }

    /// Number of banks `w`.
    #[must_use]
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Bank holding address `addr` (`addr mod w`).
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        // Hot path of every conflict engine; every real GPU has a
        // power-of-two bank count, where the modulo is a mask instead of
        // a hardware divide.
        if self.banks.is_power_of_two() {
            addr & (self.banks - 1)
        } else {
            addr % self.banks
        }
    }

    /// Column (row index within the bank) of `addr` in the matrix view.
    #[must_use]
    #[inline]
    pub fn column_of(&self, addr: usize) -> usize {
        addr / self.banks
    }
}

impl Default for BankModel {
    fn default() -> Self {
        Self::gpu32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_mapping_is_modular() {
        let m = BankModel::new(16);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(15), 15);
        assert_eq!(m.bank_of(16), 0);
        assert_eq!(m.bank_of(33), 1);
    }

    #[test]
    fn column_major_roundtrip() {
        let m = BankModel::new(32);
        for addr in 0..4096 {
            assert_eq!(m.column_of(addr) * m.banks() + m.bank_of(addr), addr);
        }
    }

    #[test]
    fn gpu32_is_32_banks() {
        assert_eq!(BankModel::gpu32().banks(), 32);
    }

    #[test]
    #[should_panic(expected = "at least one memory bank")]
    fn zero_banks_rejected() {
        let _ = BankModel::new(0);
    }

    #[test]
    fn default_is_gpu32() {
        assert_eq!(BankModel::default(), BankModel::gpu32());
    }
}
