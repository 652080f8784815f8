//! Static analysis for the wcms workspace — three passes, no execution
//! of any backend required for a verdict:
//!
//! 1. [`bounds`] — a **symbolic bound verifier**: derives per-warp
//!    aligned counts and access multiplicities for every `E < w`
//!    directly from the number-theoretic structure of the worst-case
//!    assignments (Lemmas 2/4/7/8 of the paper) and proves them equal
//!    to the closed forms of Theorem 3, Theorem 9 and the
//!    power-of-two/shared-factor cases.
//! 2. [`interleave`] + [`supervisor_model`] + [`shard_model`] +
//!    [`model_fs`] — a **model checker**: exhaustive bounded
//!    exploration of the sweep supervisor's
//!    cancel/deadline/commit/quarantine protocol and of the scale-out
//!    lease/steal protocol (workers × crashes × clock skew × expiry),
//!    plus a filesystem crash-consistency explorer that enumerates a
//!    machine crash after every step of the checkpoint store's durable
//!    publish sequences. The shard models execute the *production*
//!    transition functions (`wcms_bench::protocol`) — the spec cannot
//!    drift from the code it verifies.
//! 3. [`lint`] — a **token-level workspace lint engine**: panic-path,
//!    raw-thread-spawn, wall-clock, protocol-clock and
//!    durable-write-outside-protocol lints over the crate sources, with an
//!    explicit allowlist and machine-readable diagnostics.
//!
//! The [`crosscheck`] module bridges pass 1 to the dynamic world: it
//! diffs the symbolic verdicts against the `AnalyticBackend`'s measured
//! conflict counters so the static story and the measured story can
//! never silently drift apart.
//!
//! Everything is wired into the `wcms-analyze` binary; CI runs
//! `wcms-analyze --all` as a required gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod crosscheck;
pub mod interleave;
pub mod lint;
pub mod model_fs;
pub mod shard_model;
pub mod supervisor_model;
