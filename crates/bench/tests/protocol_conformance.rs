//! Conformance: production executes exactly the pure transitions the
//! model checker explores.
//!
//! The `wcms-analyzer` shard/fs models are only an *executable spec*
//! if the production paths actually run the `protocol` module's
//! transition functions and step plans — a hand-rolled copy that
//! drifted would silently void every exhaustively-checked guarantee.
//! These tests arm the [`wcms_bench::protocol::probe`] thread-local
//! trace around real `CheckpointStore` / `LeaseStore` operations on a
//! real filesystem and assert the recorded transitions are, in order,
//! the spec's: every durable commit walks `ATOMIC_WRITE_STEPS` /
//! `LEASE_CLAIM_STEPS` exactly, every acquire round starts with
//! `lease_decision`, and every guard drop consults
//! `release_decision`.

use std::time::Duration;

use wcms_bench::checkpoint::encode_file;
use wcms_bench::protocol::{
    probe::{self, ProbeOp},
    CommitStep, LeaseAction, LeaseInfo, LeaseView, ATOMIC_WRITE_STEPS, LEASE_CLAIM_STEPS,
};
use wcms_bench::{CellResult, CheckpointStore, LeaseAttempt, LeaseStore};
use wcms_obs::Clock;

fn tmp_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("wcms-conform-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    CheckpointStore::open(dir).expect("store opens")
}

/// The commit steps of a trace, in order.
fn steps_of(ops: &[ProbeOp]) -> Vec<CommitStep> {
    ops.iter()
        .filter_map(|op| match op {
            ProbeOp::Step(step) => Some(*step),
            _ => None,
        })
        .collect()
}

fn decisions_of(ops: &[ProbeOp]) -> Vec<&LeaseAction> {
    ops.iter()
        .filter_map(|op| match op {
            ProbeOp::Decision { action, .. } => Some(action),
            _ => None,
        })
        .collect()
}

#[test]
fn checkpoint_store_commits_through_the_atomic_write_plan() {
    let store = tmp_store("atomic");
    probe::arm();
    store
        .store("cell/a", &CellResult::Skipped { reason: "conformance".into(), attempts: 1 })
        .expect("cell commits");
    let ops = probe::disarm();
    assert_eq!(
        steps_of(&ops),
        ATOMIC_WRITE_STEPS.to_vec(),
        "a cell commit must walk the spec's atomic-write plan exactly: {ops:?}"
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn lease_claim_is_decision_then_the_claim_plan_then_release() {
    let store = tmp_store("claim");
    let leases = LeaseStore::open(&store, "w0", Duration::from_secs(60)).expect("lease dir");
    probe::arm();
    let guard = match leases.try_acquire("cell/b").expect("acquire works") {
        LeaseAttempt::Acquired(g) => g,
        LeaseAttempt::Held { worker, .. } => panic!("fresh cell held by {worker}"),
    };
    drop(guard);
    let ops = probe::disarm();

    // Round 1: the missing-lease read goes through lease_decision and
    // chooses Claim — no other decision precedes it.
    assert!(
        matches!(
            ops.first(),
            Some(ProbeOp::Decision { view: LeaseView::Missing, action: LeaseAction::Claim })
        ),
        "first transition must be lease_decision(Missing) -> Claim: {ops:?}"
    );
    // The claim publishes through the spec's lease-claim plan exactly.
    assert_eq!(
        steps_of(&ops),
        LEASE_CLAIM_STEPS.to_vec(),
        "the claim must walk temp->write->fsync->hard_link->unlink: {ops:?}"
    );
    // The guard drop consults release_decision, which says "ours".
    assert_eq!(
        ops.last(),
        Some(&ProbeOp::Release { ours: true }),
        "the drop must end with release_decision(ours=true): {ops:?}"
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn corrupt_lease_takes_the_quarantine_transition_before_claiming() {
    let store = tmp_store("quarantine");
    let leases = LeaseStore::open(&store, "w0", Duration::from_secs(60)).expect("lease dir");
    leases.write_raw("cell/c", "definitely not a framed lease").expect("plant corruption");
    probe::arm();
    match leases.try_acquire("cell/c").expect("acquire works") {
        LeaseAttempt::Acquired(g) => drop(g),
        LeaseAttempt::Held { worker, .. } => panic!("corrupt lease held by {worker}"),
    }
    let ops = probe::disarm();
    let decisions = decisions_of(&ops);
    assert_eq!(
        decisions.first(),
        Some(&&LeaseAction::Quarantine),
        "the corrupt read must run lease_decision(Corrupt) -> Quarantine: {ops:?}"
    );
    assert_eq!(
        decisions.get(1),
        Some(&&LeaseAction::Claim),
        "the re-read after quarantine must decide Claim: {ops:?}"
    );
    assert_eq!(steps_of(&ops), LEASE_CLAIM_STEPS.to_vec());
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn expired_lease_takes_the_steal_transition_under_virtual_time() {
    let store = tmp_store("steal");
    let clock = Clock::virtual_us(1);
    let ttl = Duration::from_secs(30);
    let dead = LeaseStore::open_with_clock(&store, "dead", ttl, clock.clone()).expect("dead");
    let live = LeaseStore::open_with_clock(&store, "live", ttl, clock.clone()).expect("live");
    match dead.try_acquire("cell/d").expect("claim") {
        LeaseAttempt::Acquired(g) => std::mem::forget(g), // SIGKILL: no release
        LeaseAttempt::Held { .. } => panic!("first claim must win"),
    }
    clock.sleep(ttl + Duration::from_millis(1));
    probe::arm();
    match live.try_acquire("cell/d").expect("steal") {
        LeaseAttempt::Acquired(g) => drop(g),
        LeaseAttempt::Held { worker, .. } => panic!("expired lease not stolen (held by {worker})"),
    }
    let ops = probe::disarm();
    // First transition: lease_decision on the dead worker's valid
    // lease chooses Steal; the re-read then claims through the plan.
    match ops.first() {
        Some(ProbeOp::Decision { view: LeaseView::Valid(info), action: LeaseAction::Steal }) => {
            assert_eq!(info.worker, "dead");
        }
        other => panic!("expected lease_decision(Valid) -> Steal first, got {other:?}"),
    }
    let decisions = decisions_of(&ops);
    assert_eq!(decisions.get(1), Some(&&LeaseAction::Claim), "{ops:?}");
    assert_eq!(steps_of(&ops), LEASE_CLAIM_STEPS.to_vec());
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn a_stolen_lease_survives_the_original_owners_release() {
    let store = tmp_store("stolen");
    let leases = LeaseStore::open(&store, "victim", Duration::from_secs(60)).expect("lease dir");
    let guard = match leases.try_acquire("cell/e").expect("claim") {
        LeaseAttempt::Acquired(g) => g,
        LeaseAttempt::Held { .. } => panic!("claim must win"),
    };
    // A stealer replaced the lease while we were working.
    let stealer = LeaseInfo {
        pid: 999_999,
        worker: "stealer".into(),
        fingerprint: 0,
        deadline_ms: u64::MAX,
        trace: None,
    };
    leases.write_raw("cell/e", &encode_file(&stealer.encode())).expect("plant steal");
    probe::arm();
    drop(guard);
    let ops = probe::disarm();
    assert_eq!(
        ops,
        vec![ProbeOp::Release { ours: false }],
        "release_decision must rule the stolen lease not-ours"
    );
    assert!(leases.exists("cell/e"), "the stealer's lease must survive the victim's drop");
    std::fs::remove_dir_all(store.dir()).ok();
}
