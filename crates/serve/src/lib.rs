//! # `wcms-serve` — the crash-only adversarial-input service
//!
//! A long-running daemon over a length-prefixed framed protocol on
//! plain blocking TCP (no async runtime — the workspace is offline and
//! vendored), serving the paper's worst-case constructions and
//! measurements to repeat traffic:
//!
//! * [`wire`] — the framed JSON protocol: `generate`, `measure`,
//!   `grid`, `status`, `health`; oversized frames rejected before
//!   allocation.
//! * `deadline` — socket read/write deadlines (every wcms socket has
//!   them; the `socket-without-deadline` lint enforces it) and client
//!   budget clamping.
//! * `admission` — the bounded job queue that sheds load with typed
//!   [`wcms_error::WcmsError::Overloaded`] rejections instead of
//!   buffering unbounded backlog.
//! * [`journal`] — crash-only durable job state: queued jobs recovered
//!   after SIGKILL, mid-run jobs tombstoned, corrupt records
//!   quarantined.
//! * [`cache`] — the content-addressed result cache; hits replay the
//!   cold computation's bytes exactly.
//! * [`server`] — the accept loop, worker pools, and the request
//!   lifecycle tying the layers together (deadline propagation via
//!   [`wcms_error::CancelToken`], the sim→analytic→reference demotion
//!   ladder as graceful degradation).
//! * [`load`] — the open-loop load generator behind `wcms-load` and
//!   its `BENCH_serve.json` report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod admission;
pub mod cache;
pub(crate) mod deadline;
pub mod journal;
pub mod load;
pub mod server;
pub mod wire;
