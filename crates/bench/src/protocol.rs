//! The scale-out layer's **executable spec**: the pure transition
//! functions of the lease/steal protocol and the atomic-write commit
//! sequence, shared verbatim by production code and the model checker.
//!
//! PR 8 made sweeps multi-process (lease files, deadline stealing,
//! crash-only recovery). Its safety argument lives in two places that
//! must never drift apart: the production paths in [`crate::shard`] /
//! [`crate::checkpoint`], and the exhaustive interleaving +
//! crash-consistency models in `wcms-analyzer`. This module is the
//! single source both sides execute:
//!
//! * [`lease_decision`] — what a worker does after reading a lease
//!   path (claim / quarantine / steal / back off), as a pure function
//!   of the [`LeaseView`] it observed and the clock it trusts;
//! * [`fresh_lease`] — the payload a claim stamps;
//! * [`release_decision`] — whether a guard drop may delete the lease
//!   it re-read (only its own, never a stealer's);
//! * [`ATOMIC_WRITE_STEPS`] / [`LEASE_CLAIM_STEPS`] — the ordered
//!   step plans of the two durable publish sequences (temp → write →
//!   fsync → rename, and temp → write → fsync → `hard_link` →
//!   unlink), one step per syscall. The workspace's one durable-write
//!   executor, [`crate::checkpoint::write_atomic`], iterates these
//!   constants; the `ModelFs` crash explorer enumerates a crash after
//!   every step of the same constants.
//!
//! The [`probe`] submodule is the conformance instrument (mirroring
//! `wcms_error::mc`): while armed on the current thread, every
//! decision, release verdict and executed commit step is appended to a
//! thread-local log, so a unit test can *assert* — not merely trust —
//! that every durable write (checkpoint cells, lease claims, serve
//! cache entries and journal records) runs exactly the transitions the
//! model explores.

use std::time::Duration;

use wcms_obs::json;

use crate::checkpoint::{decode_file, get_num, get_str, quoted};

/// The payload of a lease file.
///
/// `pid` and `deadline_ms` are stored as JSON numbers and are exact up
/// to 2^53 (the codec parses through f64) — far above any real pid or
/// epoch-millisecond value. The fingerprint is a hex string and covers
/// the full u64 range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Pid of the claiming process (diagnostic only — expiry and
    /// identity decisions never consult it alone).
    pub pid: u64,
    /// Pid-independent worker id of the claimant.
    pub worker: String,
    /// FNV hash of the store's manifest, binding the lease to the
    /// sweep configuration that wrote it.
    pub fingerprint: u64,
    /// Epoch milliseconds after which the lease may be stolen.
    pub deadline_ms: u64,
    /// The claimant's trace context (`<trace>/<span>` wire form), when
    /// its sweep runs under one — purely diagnostic provenance linking
    /// the lease file into the fleet's causal tree. Never consulted by
    /// any protocol decision, and absent from the encoding when `None`
    /// so pre-trace lease files and their byte-exact goldens survive.
    pub trace: Option<String>,
}

impl LeaseInfo {
    /// Render as the one-line JSON payload (the on-disk file adds the
    /// checksum footer via [`crate::checkpoint::encode_file`]).
    #[must_use]
    pub fn encode(&self) -> String {
        let trace =
            self.trace.as_ref().map_or_else(String::new, |t| format!(",\"trace\":{}", quoted(t)));
        format!(
            "{{\"pid\":{},\"worker\":{},\"fingerprint\":\"{:016x}\",\"deadline_ms\":{}{trace}}}",
            self.pid,
            quoted(&self.worker),
            self.fingerprint,
            self.deadline_ms,
        )
    }

    /// Parse the output of [`LeaseInfo::encode`]. `None` for anything
    /// torn or malformed (the lease is then quarantined). A missing
    /// `trace` key is an untraced claimant, not corruption.
    #[must_use]
    pub fn decode(text: &str) -> Option<Self> {
        let v = json::parse(text).ok()?;
        Some(Self {
            pid: get_num(&v, "pid")? as u64,
            worker: get_str(&v, "worker")?.to_string(),
            fingerprint: u64::from_str_radix(get_str(&v, "fingerprint")?, 16).ok()?,
            deadline_ms: get_num(&v, "deadline_ms")? as u64,
            trace: get_str(&v, "trace").map(ToString::to_string),
        })
    }
}

/// What a reader found at a lease path — the entire input of
/// [`lease_decision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseView {
    /// No lease file exists.
    Missing,
    /// A file exists but fails the checksum frame or the payload parse
    /// (torn write, bit rot).
    Corrupt,
    /// A well-formed lease.
    Valid(LeaseInfo),
}

/// Classify raw lease-file text (`None` = the read returned `ENOENT`)
/// into the view [`lease_decision`] consumes. This is the same
/// checksum-then-parse ladder recovery runs, so the model's notion of
/// "corrupt" is the implementation's.
#[must_use]
pub fn classify_lease(text: Option<&str>) -> LeaseView {
    match text {
        None => LeaseView::Missing,
        Some(text) => match decode_file(text).ok().and_then(LeaseInfo::decode) {
            Some(info) => LeaseView::Valid(info),
            None => LeaseView::Corrupt,
        },
    }
}

/// The action [`lease_decision`] chose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseAction {
    /// No lease: claim by atomic `hard_link` of a fresh payload.
    Claim,
    /// Corrupt lease: move it to quarantine (bounded, evidence
    /// preserved) and re-read.
    Quarantine,
    /// Expired lease: steal by renaming it away (one winner) and
    /// re-read.
    Steal,
    /// Live foreign lease: back off.
    Held {
        /// The holder's worker id.
        worker: String,
        /// Milliseconds until the lease may be stolen.
        remaining_ms: u64,
    },
}

/// The lease state machine's read transition: what a worker does with
/// the view it observed at clock reading `now_ms`. Pure — the only
/// inputs are the arguments, the only output the action — so the
/// model checker explores exactly the branch structure production
/// runs.
#[must_use]
pub fn lease_decision(view: &LeaseView, now_ms: u64) -> LeaseAction {
    let action = match view {
        LeaseView::Missing => LeaseAction::Claim,
        LeaseView::Corrupt => LeaseAction::Quarantine,
        LeaseView::Valid(info) if info.deadline_ms <= now_ms => LeaseAction::Steal,
        LeaseView::Valid(info) => LeaseAction::Held {
            worker: info.worker.clone(),
            remaining_ms: info.deadline_ms - now_ms,
        },
    };
    probe::decision(view, &action);
    action
}

/// The payload a claim stamps: deadline = `now_ms + ttl`, saturating
/// (a `u64::MAX` ttl means "never expires", not wraparound-expired).
#[must_use]
pub fn fresh_lease(
    pid: u64,
    worker: &str,
    fingerprint: u64,
    now_ms: u64,
    ttl: Duration,
) -> LeaseInfo {
    LeaseInfo {
        pid,
        worker: worker.to_string(),
        fingerprint,
        deadline_ms: now_ms.saturating_add(u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX)),
        trace: None,
    }
}

/// The release transition: a guard drop re-reads the lease path and
/// may delete the file **only** when the payload still names this
/// holder (`pid` *and* `worker`) — a stolen lease belongs to the
/// stealer and must survive the original owner's drop.
#[must_use]
pub fn release_decision(on_disk: Option<&LeaseInfo>, pid: u64, worker: &str) -> bool {
    let ours = on_disk.is_some_and(|info| info.pid == pid && info.worker == worker);
    probe::release(ours);
    ours
}

/// One step of a durable publish sequence: one syscall each. The step
/// *plans* below are the protocol; the durable-write executor
/// ([`crate::checkpoint::write_atomic`]) runs them in order, and the
/// `ModelFs` crash explorer inserts a machine crash after every prefix
/// of the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStep {
    /// Create the private temp file (a name no other call uses).
    CreateTemp,
    /// Write the checksum-framed payload into the temp file.
    WritePayload,
    /// `fsync` the temp file — the payload is durable *before* any
    /// name points at it.
    SyncTemp,
    /// Publish by `rename`: the temp name atomically becomes the
    /// target, replacing any previous file.
    Rename,
    /// Publish by `hard_link` (lease claims): fails with
    /// `AlreadyExists` when the name is taken, which is the claim
    /// race's one loser path.
    HardLink,
    /// Unlink the temp name (after a `HardLink`; a `Rename` consumes
    /// the temp name by itself).
    RemoveTemp,
}

/// The atomic-write sequence every durable file except a lease claim
/// commits through (checkpoint cells, manifests, aux artifacts, serve
/// cache entries, journal records): temp → write → fsync → rename.
pub const ATOMIC_WRITE_STEPS: &[CommitStep] =
    &[CommitStep::CreateTemp, CommitStep::WritePayload, CommitStep::SyncTemp, CommitStep::Rename];

/// The lease-claim sequence: temp → write → fsync → `hard_link` →
/// unlink temp.
pub const LEASE_CLAIM_STEPS: &[CommitStep] = &[
    CommitStep::CreateTemp,
    CommitStep::WritePayload,
    CommitStep::SyncTemp,
    CommitStep::HardLink,
    CommitStep::RemoveTemp,
];

/// Conformance instrumentation: a thread-local log of every protocol
/// transition taken on this thread while armed.
///
/// Mirrors `wcms_error::mc`: off by default (one thread-local flag
/// read per transition — noise next to the fs I/O each transition
/// brackets), armed only by conformance tests that then assert the
/// production code's recorded transitions equal the spec's.
pub mod probe {
    use std::cell::{Cell, RefCell};

    use super::{CommitStep, LeaseAction, LeaseView};

    /// One observed protocol transition.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProbeOp {
        /// [`super::lease_decision`] ran: observed `view`, chose
        /// `action`.
        Decision {
            /// The lease view the decision consumed.
            view: LeaseView,
            /// The action it returned.
            action: LeaseAction,
        },
        /// [`super::release_decision`] ran with verdict `ours`.
        Release {
            /// True iff the on-disk lease still named the holder.
            ours: bool,
        },
        /// The durable-write executor ran one commit-plan step. The
        /// publish step (`Rename` or `HardLink`) names the plan.
        Step(CommitStep),
    }

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static LOG: RefCell<Vec<ProbeOp>> = const { RefCell::new(Vec::new()) };
    }

    /// Start recording transitions on this thread. Clears any previous
    /// log.
    pub fn arm() {
        LOG.with(|l| l.borrow_mut().clear());
        ARMED.with(|a| a.set(true));
    }

    /// Stop recording and return the transitions observed since
    /// [`arm`].
    #[must_use]
    pub fn disarm() -> Vec<ProbeOp> {
        ARMED.with(|a| a.set(false));
        LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
    }

    /// True while a trace is armed on this thread.
    #[must_use]
    fn is_armed() -> bool {
        ARMED.with(Cell::get)
    }

    fn record(op: ProbeOp) {
        if is_armed() {
            LOG.with(|l| l.borrow_mut().push(op));
        }
    }

    pub(super) fn decision(view: &LeaseView, action: &LeaseAction) {
        if is_armed() {
            record(ProbeOp::Decision { view: view.clone(), action: action.clone() });
        }
    }

    pub(super) fn release(ours: bool) {
        record(ProbeOp::Release { ours });
    }

    /// Record one executed commit-plan step (called by the
    /// durable-write executor, [`crate::checkpoint::write_atomic`]).
    pub(crate) fn executed(step: CommitStep) {
        record(ProbeOp::Step(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(worker: &str, deadline_ms: u64) -> LeaseInfo {
        LeaseInfo { pid: 7, worker: worker.into(), fingerprint: 0xfeed, deadline_ms, trace: None }
    }

    #[test]
    fn decision_table_is_total_and_exact() {
        assert_eq!(lease_decision(&LeaseView::Missing, 0), LeaseAction::Claim);
        assert_eq!(lease_decision(&LeaseView::Corrupt, 0), LeaseAction::Quarantine);
        // Expiry is `deadline <= now`: the boundary instant steals.
        assert_eq!(lease_decision(&LeaseView::Valid(info("w", 100)), 100), LeaseAction::Steal);
        assert_eq!(lease_decision(&LeaseView::Valid(info("w", 100)), 101), LeaseAction::Steal);
        assert_eq!(
            lease_decision(&LeaseView::Valid(info("w", 100)), 99),
            LeaseAction::Held { worker: "w".into(), remaining_ms: 1 }
        );
    }

    #[test]
    fn fresh_lease_saturates_instead_of_wrapping() {
        let l = fresh_lease(1, "w", 0, u64::MAX - 5, Duration::from_secs(60));
        assert_eq!(l.deadline_ms, u64::MAX, "wraparound would make a fresh lease pre-expired");
        let l = fresh_lease(1, "w", 0, 1_000, Duration::from_millis(30_000));
        assert_eq!(l.deadline_ms, 31_000);
    }

    #[test]
    fn untraced_lease_encoding_is_byte_identical_to_pre_trace_format() {
        // A worker without tracing must write the exact payload older
        // workers wrote — mixed fleets share one lease directory.
        let l = info("w0", 1_234);
        assert_eq!(
            l.encode(),
            "{\"pid\":7,\"worker\":\"w0\",\"fingerprint\":\"000000000000feed\",\"deadline_ms\":1234}"
        );
        // And a pre-trace payload decodes with trace = None.
        assert_eq!(LeaseInfo::decode(&l.encode()), Some(l));
        // A traced claimant round-trips its context.
        let traced =
            LeaseInfo { trace: Some("00000000000000ab/00000000000000cd".into()), ..info("w1", 9) };
        assert_eq!(LeaseInfo::decode(&traced.encode()), Some(traced));
    }

    #[test]
    fn release_requires_both_pid_and_worker_to_match() {
        let ours = info("me", 10);
        assert!(release_decision(Some(&ours), 7, "me"));
        assert!(!release_decision(Some(&ours), 8, "me"), "pid mismatch is a stolen lease");
        assert!(!release_decision(Some(&ours), 7, "you"), "worker mismatch is a stolen lease");
        assert!(!release_decision(None, 7, "me"), "a vanished lease is not ours to delete");
    }

    #[test]
    fn classify_is_the_recovery_ladder() {
        let l = info("w", 42);
        let framed = crate::checkpoint::encode_file(&l.encode());
        assert_eq!(classify_lease(Some(&framed)), LeaseView::Valid(l));
        assert_eq!(classify_lease(Some("torn garbage")), LeaseView::Corrupt);
        // A valid frame around a non-lease payload is still corrupt.
        let framed = crate::checkpoint::encode_file("{\"not\":\"a lease\"}");
        assert_eq!(classify_lease(Some(&framed)), LeaseView::Corrupt);
        assert_eq!(classify_lease(None), LeaseView::Missing);
    }

    #[test]
    fn step_plans_fsync_before_publish() {
        for plan in [ATOMIC_WRITE_STEPS, LEASE_CLAIM_STEPS] {
            let sync = plan.iter().position(|s| *s == CommitStep::SyncTemp);
            let publish =
                plan.iter().position(|s| matches!(s, CommitStep::Rename | CommitStep::HardLink));
            assert!(sync < publish, "{plan:?}: data must be durable before a name points at it");
        }
    }

    #[test]
    fn probe_records_transitions_in_order_while_armed() {
        probe::arm();
        let _ = lease_decision(&LeaseView::Missing, 5);
        let _ = release_decision(None, 1, "w");
        probe::executed(CommitStep::SyncTemp);
        let ops = probe::disarm();
        assert_eq!(
            ops,
            vec![
                probe::ProbeOp::Decision { view: LeaseView::Missing, action: LeaseAction::Claim },
                probe::ProbeOp::Release { ours: false },
                probe::ProbeOp::Step(CommitStep::SyncTemp),
            ]
        );
        // Disarmed: nothing is recorded.
        let _ = lease_decision(&LeaseView::Missing, 5);
        assert!(probe::disarm().is_empty());
    }
}
