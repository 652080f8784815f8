//! # `wcms-error` — the workspace-wide error taxonomy
//!
//! Every fallible library path in the workspace reports a [`WcmsError`]
//! instead of panicking, so callers (the CLI, the sweep harness, other
//! services embedding the simulator) can distinguish *bad input* from
//! *bugs*: invalid tuning parameters, corrupt datasets, CREW write
//! violations, failed partition validation, occupancy misfits and sweep
//! timeouts all carry enough structure to be matched on and reported.
//!
//! The taxonomy is deliberately one flat enum: the workspace's crates
//! form a single pipeline (construct → simulate → measure), and a flat
//! enum lets an error cross crate boundaries without nested wrapping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod cli;
#[cfg(feature = "model-check")]
pub mod mc;

pub use cancel::CancelToken;

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, WcmsError>;

/// Any error a wcms library crate can report on caller-supplied input.
#[derive(Debug)]
#[non_exhaustive]
pub enum WcmsError {
    /// `E` and the warp width `w` are not co-prime (or `E` is outside
    /// the constructions' `3 ≤ E < w`, odd range), so no worst-case
    /// construction exists (§III of the paper).
    NonCoprime {
        /// Warp width / bank count.
        w: usize,
        /// Elements per thread.
        e: usize,
    },

    /// The block size `b` violates the kernel geometry: it must be a
    /// power of two, at least two warps (`b ≥ 2w`), and therefore a
    /// multiple of the warp width.
    InvalidBlock {
        /// Threads per block as supplied.
        b: usize,
        /// Warp width.
        w: usize,
        /// Which geometric constraint failed.
        reason: String,
    },

    /// `w` or `E` was zero (degenerate tuning).
    ZeroParam {
        /// Name of the offending parameter (`"w"` or `"E"`).
        name: &'static str,
    },

    /// An input length does not fit the merge-tree structure
    /// (`n = bE·2^m`).
    InvalidLength {
        /// Supplied length.
        n: usize,
        /// Block tile size `bE` of the tuning.
        block_elems: usize,
    },

    /// A per-warp thread assignment failed structural validation.
    InvalidAssignment {
        /// First violated invariant.
        reason: String,
    },

    /// A kernel configuration does not fit on the device: not even one
    /// block can be resident (shared memory exhausted or block larger
    /// than the thread ceiling).
    OccupancyMisfit {
        /// Device name.
        device: String,
        /// Threads per block requested.
        block_threads: usize,
        /// Shared-memory bytes per block requested.
        shared_bytes: usize,
        /// Which resource ran out.
        reason: String,
    },

    /// A kernel's shared-memory tile exceeds the per-SM capacity — the
    /// configuration can never launch.
    SharedMemOverflow {
        /// Bytes the tile needs.
        required: usize,
        /// Bytes one SM offers.
        available: usize,
        /// Device name.
        device: String,
    },

    /// Two lanes of one warp wrote the same shared-memory address in the
    /// same step (a CREW violation — the simulated machine is
    /// concurrent-read, *exclusive*-write).
    CrewViolation {
        /// Warp-step index at which the collision happened.
        step: usize,
        /// The doubly-written address.
        address: usize,
    },

    /// A warp lane addressed past the end of its shared-memory tile —
    /// the hallmark of a corrupted co-rank or offset.
    SmemOutOfBounds {
        /// The offending logical address.
        address: usize,
        /// Tile size in words.
        words: usize,
    },

    /// A Merge Path co-rank failed validation against the data — either
    /// caller-supplied or corrupted in flight (fault injection, flaky
    /// device).
    PartitionValidation {
        /// Global merge round (1-based; 0 = base case).
        round: usize,
        /// Block index within the kernel.
        block: usize,
        /// The offending co-rank `(a, b)`.
        corank: (usize, usize),
    },

    /// A sorted-run invariant failed after a kernel: the output window
    /// is not sorted or is not a permutation of its input (silent data
    /// corruption detected).
    CorruptOutput {
        /// Global merge round (1-based; 0 = base case).
        round: usize,
        /// Block index within the kernel.
        block: usize,
        /// What the check found.
        reason: String,
    },

    /// Fault recovery exhausted its retry budget and the degraded CPU
    /// path also failed — the sort cannot produce a trustworthy output.
    FaultUnrecoverable {
        /// Global merge round (1-based; 0 = base case).
        round: usize,
        /// Block index within the kernel.
        block: usize,
        /// Retries attempted before giving up.
        retries: usize,
    },

    /// An on-disk dataset is unreadable: bad magic, unsupported
    /// version, wrong key width, truncated payload, trailing bytes or
    /// checksum mismatch.
    DatasetCorrupt {
        /// What the decoder found.
        reason: String,
    },

    /// A sweep cell exceeded its wall-clock budget (after retries).
    SweepTimeout {
        /// Human-readable cell label (series and input size).
        cell: String,
        /// Budget in seconds.
        budget_secs: f64,
        /// Attempts made before giving up.
        attempts: usize,
    },

    /// A computation observed its [`CancelToken`] fire and stopped
    /// cooperatively (deadline expiry or supervisor shutdown). This is
    /// expected control flow, not data corruption.
    Cancelled {
        /// Label of the cancelled work (usually the sweep-cell name).
        cell: String,
    },

    /// A sweep cell panicked; the supervisor isolated the panic and the
    /// sweep continued without it.
    CellPanicked {
        /// The cell that panicked.
        cell: String,
        /// The panic payload, rendered (`"<non-string panic>"` when the
        /// payload was not a string).
        payload: String,
    },

    /// A checkpoint file failed its integrity checks (bad checksum
    /// footer, torn JSON, unreadable manifest) and was quarantined.
    CheckpointCorrupt {
        /// Path of the offending file.
        path: String,
        /// What the integrity check found.
        reason: String,
    },

    /// A `--resume` was attempted against a checkpoint directory whose
    /// manifest records a different configuration — mixing those cells
    /// in would silently corrupt the sweep.
    CheckpointMismatch {
        /// Checkpoint directory.
        dir: String,
        /// The fingerprint field that differs (`figure`, `backend`,
        /// `grid`, `seed` or `schema`).
        field: &'static str,
        /// Value the resuming run expects.
        expected: String,
        /// Value recorded in the manifest.
        found: String,
    },

    /// Caller handed a kernel step mismatched buffers (e.g. an output
    /// slice shorter than the address slice) — an API-contract breach
    /// reported as data instead of a panic so a corrupted schedule
    /// cannot take the whole sweep down.
    BufferMismatch {
        /// Which buffer pair disagreed.
        what: &'static str,
        /// Length the operation needs.
        need: usize,
        /// Length the caller supplied.
        got: usize,
    },

    /// A service shed this request because its admission queue is
    /// full. This is flow control, not failure: the caller should back
    /// off for roughly `retry_after_ms` and retry.
    Overloaded {
        /// Jobs already queued when the request was rejected.
        queue_depth: usize,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },

    /// A wire frame or protocol document failed validation: oversized
    /// or truncated frame, unparsable request, unknown operation.
    /// Hostile bytes on a socket must become this, never a panic.
    WireMalformed {
        /// What the protocol validator found.
        reason: String,
    },

    /// A command line the binary's flag table refuses: an unknown
    /// token, a missing or unparsable value, a repeated flag, or a
    /// combination of flags that means nothing (see [`cli`]).
    Usage {
        /// What is wrong, naming the offending token.
        reason: String,
    },

    /// An underlying I/O error (dataset or checkpoint files).
    Io(std::io::Error),
}

impl fmt::Display for WcmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcmsError::NonCoprime { w, e } => write!(
                f,
                "no worst-case construction for w={w}, E={e}: need odd 3 <= E < w with \
                 gcd(w, E) = 1"
            ),
            WcmsError::InvalidBlock { b, w, reason } => {
                write!(f, "invalid block size b={b} for w={w}: {reason}")
            }
            WcmsError::ZeroParam { name } => write!(f, "parameter {name} must be positive"),
            WcmsError::InvalidLength { n, block_elems } => write!(
                f,
                "input length {n} is not bE*2^m for block tile bE={block_elems}; \
                 pad to the next valid length or use sort_padded"
            ),
            WcmsError::InvalidAssignment { reason } => {
                write!(f, "invalid warp assignment: {reason}")
            }
            WcmsError::OccupancyMisfit { device, block_threads, shared_bytes, reason } => write!(
                f,
                "kernel (b={block_threads}, smem={shared_bytes} B) does not fit on {device}: \
                 {reason}"
            ),
            WcmsError::SharedMemOverflow { required, available, device } => write!(
                f,
                "shared-memory tile of {required} B exceeds the {available} B per SM of {device}"
            ),
            WcmsError::CrewViolation { step, address } => write!(
                f,
                "CREW violation: two lanes wrote shared address {address} in warp step {step}"
            ),
            WcmsError::SmemOutOfBounds { address, words } => {
                write!(f, "shared-memory access at address {address} outside the {words}-word tile")
            }
            WcmsError::PartitionValidation { round, block, corank } => write!(
                f,
                "merge-path co-rank ({}, {}) failed validation in round {round}, block {block}",
                corank.0, corank.1
            ),
            WcmsError::CorruptOutput { round, block, reason } => {
                write!(f, "corrupt output in round {round}, block {block}: {reason}")
            }
            WcmsError::FaultUnrecoverable { round, block, retries } => write!(
                f,
                "round {round}, block {block}: fault persisted through {retries} retries and \
                 CPU fallback"
            ),
            WcmsError::DatasetCorrupt { reason } => write!(f, "corrupt dataset: {reason}"),
            WcmsError::SweepTimeout { cell, budget_secs, attempts } => write!(
                f,
                "sweep cell {cell} exceeded its {budget_secs:.1} s budget ({attempts} attempts)"
            ),
            WcmsError::Cancelled { cell } => write!(f, "{cell}: cancelled cooperatively"),
            WcmsError::CellPanicked { cell, payload } => {
                write!(f, "cell {cell} panicked: {payload}")
            }
            WcmsError::CheckpointCorrupt { path, reason } => {
                write!(f, "corrupt checkpoint {path}: {reason}")
            }
            WcmsError::CheckpointMismatch { dir, field, expected, found } => write!(
                f,
                "checkpoint directory {dir} was written by a different configuration \
                 ({field}: manifest has {found}, this run needs {expected}); \
                 re-run without --resume to clear it"
            ),
            WcmsError::BufferMismatch { what, need, got } => {
                write!(f, "buffer mismatch: {what} needs {need} entries, caller supplied {got}")
            }
            WcmsError::Overloaded { queue_depth, retry_after_ms } => write!(
                f,
                "overloaded: admission queue full at depth {queue_depth}; \
                 retry after {retry_after_ms} ms"
            ),
            WcmsError::WireMalformed { reason } => write!(f, "malformed wire data: {reason}"),
            WcmsError::Usage { reason } => f.write_str(reason),
            WcmsError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WcmsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WcmsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WcmsError {
    fn from(e: std::io::Error) -> Self {
        WcmsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_parameters() {
        let e = WcmsError::NonCoprime { w: 32, e: 6 };
        let msg = e.to_string();
        assert!(msg.contains("w=32") && msg.contains("E=6"), "{msg}");

        let e = WcmsError::OccupancyMisfit {
            device: "RTX 2080 Ti".into(),
            block_threads: 2048,
            shared_bytes: 64 * 1024,
            reason: "block exceeds the resident-thread ceiling".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("b=2048") && msg.contains("RTX 2080 Ti"), "{msg}");
    }

    #[test]
    fn io_errors_wrap_with_source() {
        let e = WcmsError::from(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("i/o error"));
    }

    #[test]
    fn errors_format_for_cell_reports() {
        let e =
            WcmsError::SweepTimeout { cell: "fig4/wc/2^20".into(), budget_secs: 30.0, attempts: 3 };
        assert!(e.to_string().contains("fig4/wc/2^20"));
    }

    #[test]
    fn supervisor_errors_name_the_cell() {
        let e = WcmsError::Cancelled { cell: "fig4/wc/4096".into() };
        assert!(e.to_string().contains("fig4/wc/4096"), "{e}");
        let e = WcmsError::CellPanicked { cell: "fig4/wc/4096".into(), payload: "boom".into() };
        assert!(e.to_string().contains("boom"), "{e}");
    }

    #[test]
    fn serving_errors_carry_actionable_detail() {
        let e = WcmsError::Overloaded { queue_depth: 64, retry_after_ms: 250 };
        let msg = e.to_string();
        assert!(msg.contains("64") && msg.contains("250"), "{msg}");

        let e = WcmsError::WireMalformed { reason: "declared frame length 3000000000".into() };
        assert!(e.to_string().contains("3000000000"), "{e}");
    }

    #[test]
    fn checkpoint_mismatch_names_the_diverging_field() {
        let e = WcmsError::CheckpointMismatch {
            dir: "results/.checkpoint/fig4/sim".into(),
            field: "backend",
            expected: "sim".into(),
            found: "analytic".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("backend") && msg.contains("analytic"), "{msg}");
        assert!(msg.contains("--resume"), "must tell the operator the way out: {msg}");
    }
}
