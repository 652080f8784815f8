//! # `wcms-gpu-sim` — a warp-lockstep GPU memory simulator
//!
//! The paper's experiments ran on physical Nvidia GPUs (a Quadro M4000 and
//! an RTX 2080 Ti) with bank conflicts measured by Nvidia's profilers.
//! This crate is the software substitute: a deterministic simulator of the
//! two memory systems that the pairwise merge sort exercises, built on the
//! CREW DMM model from [`wcms_dmm`] (the exact model the paper's analysis
//! uses):
//!
//! * [`smem::SharedMemory`] — a banked shared-memory tile. Every warp
//!   step is charged its serialization cost (*degree* = max distinct
//!   addresses per bank), matching the profiler metric the paper records
//!   (`l1tex__data_bank_conflicts`).
//! * [`gmem::GlobalMemory`] — device memory with a 32-byte-sector
//!   coalescing model; counts sectors/transactions per warp access, the
//!   quantity behind the `A_g` term of Karsin et al.'s analysis.
//! * `device` — parameter presets for the paper's GPUs (plus the
//!   GTX 770 of the prior work) and a generic device.
//! * `occupancy` — the resident-block/occupancy calculation the paper
//!   performs in §IV-A (75% vs. 100% occupancy of the two Thrust tunings).
//! * `cost` — a documented cycle cost model translating measured
//!   counters into estimated runtime; used only for figure *shapes*,
//!   never for the conflict counts themselves.
//! * `counters` — per-kernel and per-sort counter bundles.
//! * [`fault`] — deterministic (seeded) fault injection: tile bit-flips,
//!   co-rank corruption and dataset truncation for resilience testing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod cost;
pub(crate) mod counters;
pub(crate) mod device;
pub mod fault;
pub(crate) mod gmem;
pub(crate) mod key;
pub(crate) mod occupancy;
pub(crate) mod smem;

pub use cost::CostModel;
pub use counters::{FaultCounters, KernelCounters};
pub use device::DeviceSpec;
pub use fault::{FaultConfig, FaultInjector};
pub use gmem::{scalar_traffic, tile_traffic, tile_traffic_words, GlobalMemory, GlobalTotals};
pub use key::GpuKey;
pub use occupancy::Occupancy;
pub use smem::SharedMemory;
