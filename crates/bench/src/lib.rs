//! # `wcms-bench` — the experiment harness
//!
//! Regenerates every figure of the paper's evaluation (§IV) on the
//! simulated GPUs:
//!
//! * **Fig. 4** — throughput vs. `N` on the Quadro M4000, Thrust
//!   (`E=15, b=512`) and Modern GPU (`E=15, b=128`), random vs.
//!   constructed worst case;
//! * **Fig. 5** — throughput vs. `N` on the RTX 2080 Ti for both
//!   parameter sets (`E=15/b=512`, `E=17/b=256`) and both libraries;
//! * **Fig. 6** — runtime per element and bank conflicts per element vs.
//!   `N` (Thrust, RTX 2080 Ti, both parameter sets, worst-case inputs);
//! * **summary** — the peak/average slowdown statistics quoted inline in
//!   §IV-B, plus the Karsin β₁/β₂ averages.
//!
//! Binaries `fig4`, `fig5`, `fig6`, `summary` print the series as CSV or
//! markdown.
//!
//! Every measuring entry point takes a [`wcms_mergesort::BackendKind`]
//! (surfaced as `--backend` on the binaries): the cycle-accurate
//! simulator (default), the integer-identical analytic engine, or the
//! counter-free CPU reference. [`crossval`] is the harness that holds
//! the analytic backend to that "integer-identical" claim.
//!
//! Sweeps run under the [`supervisor`]: `--jobs <n>` worker threads
//! with byte-identical output at any worker count, cooperative
//! per-cell cancellation (`--timeout`), checksummed resumable
//! checkpoints with quarantine of corrupt files ([`checkpoint`]), and
//! a sim → analytic → reference demotion ladder for cells that time
//! out. The `chaos` binary SIGKILLs, corrupts, and resumes sweeps to
//! prove the stack end-to-end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cliargs;
pub mod crossval;
pub mod experiment;
pub mod figures;
pub mod panel;
pub mod protocol;
pub mod resilient;
pub mod series;
pub mod shard;
pub mod summary;
pub mod supervisor;
