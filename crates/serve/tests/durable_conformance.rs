//! Conformance: the serve layer's durable writes — result-cache entries
//! and job-journal records — publish through the workspace's one
//! durable-write executor, so they walk exactly the step plan the
//! `wcms-analyzer` crash explorer enumerates. A hand-rolled temp →
//! fsync → rename here would record no steps and fail these tests.

use wcms_bench::protocol::probe::{self, ProbeOp};
use wcms_bench::protocol::{CommitStep, ATOMIC_WRITE_STEPS};
use wcms_serve::cache::ResultCache;
use wcms_serve::journal::JobJournal;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcms-serve-conform-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `op` with the conformance probe armed on this thread and return
/// the commit steps it executed, in order.
fn steps_during(op: impl FnOnce()) -> Vec<CommitStep> {
    probe::arm();
    op();
    probe::disarm()
        .into_iter()
        .filter_map(|o| match o {
            ProbeOp::Step(step) => Some(step),
            _ => None,
        })
        .collect()
}

#[test]
fn cache_stores_walk_the_atomic_write_plan() {
    let dir = scratch("cache");
    let cache = ResultCache::open(&dir).expect("cache opens");
    let steps =
        steps_during(|| cache.store("wcms/v1 conformance key", "{\"ok\":true}").expect("stores"));
    assert_eq!(steps, ATOMIC_WRITE_STEPS.to_vec(), "ResultCache::store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_records_walk_the_atomic_write_plan() {
    let dir = scratch("journal");
    let journal = JobJournal::open(&dir).expect("journal opens");
    let request = "{\"op\":\"measure\"}";
    let mut id = 0;
    let queued = steps_during(|| id = journal.record_queued(request).expect("journals"));
    assert_eq!(queued, ATOMIC_WRITE_STEPS.to_vec(), "JobJournal::record_queued");
    let running = steps_during(|| journal.mark_running(id, request).expect("re-journals"));
    assert_eq!(running, ATOMIC_WRITE_STEPS.to_vec(), "JobJournal::mark_running");
    let _ = std::fs::remove_dir_all(&dir);
}
