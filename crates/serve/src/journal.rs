//! The crash-only job journal.
//!
//! Every admitted compute job is journaled to disk *before* it enters
//! the queue and re-journaled when a worker picks it up, through the
//! checkpoint store's durable-write executor
//! ([`wcms_bench::checkpoint::write_atomic`], temp → fsync → rename)
//! with its checksum footer. The daemon has no clean-shutdown path —
//! SIGKILL is the normal stop — so restart recovery works purely from
//! what the journal shows:
//!
//! * **queued** records: the daemon died holding an admitted job it
//!   never started; the job is *recovered* (re-executed into the result
//!   cache) before the listener opens, so an accepted job is never
//!   silently lost.
//! * **running** records: the daemon died mid-execution; any partial
//!   state is suspect, so the record is *tombstoned* into `tombstones/`
//!   — evidence preserved, visible in `status`, never re-run blindly
//!   (the client that was waiting saw its connection die and will
//!   retry; the retry goes through the cache and the normal path).
//! * corrupt records are quarantined into `quarantine/`, like every
//!   other integrity failure in the repo.

use std::fs;
use std::path::{Path, PathBuf};

use wcms_bench::checkpoint::{decode_file, encode_file, write_atomic};
use wcms_bench::protocol::ATOMIC_WRITE_STEPS;
use wcms_error::WcmsError;
use wcms_obs::json::{self, escape_into, Value};

/// Lifecycle state a journal record can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// Admitted, waiting in the queue.
    Queued,
    /// Claimed by a compute worker.
    Running,
}

impl JobState {
    fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
        }
    }
}

/// A queued job found (and re-runnable) after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecoveredJob {
    /// Journal id.
    pub(crate) id: u64,
    /// The original request document, byte-exact as admitted.
    pub(crate) request: String,
}

/// What startup recovery found on disk.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Recovery {
    /// Queued jobs to re-execute before serving.
    pub(crate) recovered: Vec<RecoveredJob>,
    /// Mid-run records moved to `tombstones/`.
    pub(crate) tombstoned: u64,
    /// Corrupt records moved to `quarantine/`.
    pub(crate) quarantined: u64,
}

/// A directory of one-file-per-job lifecycle records.
#[derive(Debug)]
pub struct JobJournal {
    dir: PathBuf,
    next_id: std::sync::atomic::AtomicU64,
}

fn job_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:016x}.json"))
}

fn parse_id(path: &Path) -> Option<u64> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".json")?.strip_prefix("job-")?;
    u64::from_str_radix(stem, 16).ok()
}

impl JobJournal {
    /// Open (creating if needed) a journal directory. The next job id
    /// continues past every id visible on disk — live, tombstoned or
    /// quarantined — so a restart can never reuse one.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] if the directories cannot be created or read.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WcmsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut max_id = 0u64;
        for sub in [dir.clone(), dir.join("tombstones"), dir.join("quarantine")] {
            let Ok(entries) = fs::read_dir(&sub) else { continue };
            for entry in entries.flatten() {
                if let Some(id) = parse_id(&entry.path()) {
                    max_id = max_id.max(id);
                }
            }
        }
        Ok(JobJournal { dir, next_id: std::sync::atomic::AtomicU64::new(max_id + 1) })
    }

    fn write_record(&self, id: u64, state: JobState, request: &str) -> Result<(), WcmsError> {
        let mut doc = format!("{{\"id\":{id},\"state\":\"{}\",\"request\":", state.name());
        escape_into(&mut doc, request);
        doc.push('}');
        write_atomic(ATOMIC_WRITE_STEPS, &job_path(&self.dir, id), encode_file(&doc).as_bytes())
    }

    /// Journal a freshly admitted job; returns its id. The record is
    /// durable before this returns — admission is not acknowledged
    /// until the job would survive a crash.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] on filesystem failures.
    pub fn record_queued(&self, request: &str) -> Result<u64, WcmsError> {
        let id = self.next_id.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.write_record(id, JobState::Queued, request)?;
        Ok(id)
    }

    /// Re-journal a job as claimed by a worker (atomic overwrite).
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] on filesystem failures.
    pub fn mark_running(&self, id: u64, request: &str) -> Result<(), WcmsError> {
        self.write_record(id, JobState::Running, request)
    }

    /// Remove a finished job's record. Missing is fine (recovery may
    /// have already consumed it).
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] on filesystem failures other than not-found.
    pub fn complete(&self, id: u64) -> Result<(), WcmsError> {
        match fs::remove_file(job_path(&self.dir, id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Startup recovery: classify every record left by the previous
    /// incarnation. Call before accepting connections.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] if the journal directory itself is unreadable;
    /// individual bad records never fail recovery — they are moved
    /// aside and counted.
    pub(crate) fn recover(&self) -> Result<Recovery, WcmsError> {
        let mut out = Recovery::default();
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| parse_id(p).is_some())
            .collect();
        paths.sort(); // deterministic recovery order (ids are fixed width hex)
        for path in paths {
            match self.read_record(&path) {
                Ok((id, JobState::Queued, request)) => {
                    out.recovered.push(RecoveredJob { id, request });
                }
                Ok((_, JobState::Running, _)) => {
                    self.move_aside(&path, "tombstones");
                    out.tombstoned += 1;
                }
                Err(_) => {
                    self.move_aside(&path, "quarantine");
                    out.quarantined += 1;
                }
            }
        }
        Ok(out)
    }

    fn read_record(&self, path: &Path) -> Result<(u64, JobState, String), String> {
        let text = fs::read_to_string(path).map_err(|e| format!("unreadable record: {e}"))?;
        let doc = decode_file(&text)?;
        let v = json::parse(&doc).map_err(|e| format!("record JSON: {e}"))?;
        let id = v.get("id").and_then(Value::as_u64).ok_or("record missing `id`")?;
        let state = match v.get("state").and_then(Value::as_str) {
            Some("queued") => JobState::Queued,
            Some("running") => JobState::Running,
            other => return Err(format!("record has unknown state {other:?}")),
        };
        let request =
            v.get("request").and_then(Value::as_str).ok_or("record missing `request`")?.to_string();
        Ok((id, state, request))
    }

    fn move_aside(&self, path: &Path, sub: &str) {
        let dest_dir = self.dir.join(sub);
        let dest = dest_dir.join(path.file_name().unwrap_or_default());
        // Best effort: if even the rename fails the record stays put and
        // the next restart classifies it again — never a crash loop.
        let _ = fs::create_dir_all(&dest_dir).and_then(|()| fs::rename(path, dest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcms-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lifecycle_leaves_no_record_behind() {
        let j = JobJournal::open(scratch("lifecycle")).unwrap();
        let id = j.record_queued("{\"op\":\"measure\"}").unwrap();
        assert!(job_path(&j.dir, id).exists());
        j.mark_running(id, "{\"op\":\"measure\"}").unwrap();
        j.complete(id).unwrap();
        assert!(!job_path(&j.dir, id).exists());
        assert_eq!(j.recover().unwrap(), Recovery::default());
    }

    #[test]
    fn crash_recovery_classifies_queued_running_and_corrupt() {
        let dir = scratch("recover");
        {
            let j = JobJournal::open(&dir).unwrap();
            let q = j.record_queued("{\"op\":\"generate\",\"n\":128}").unwrap();
            let r = j.record_queued("{\"op\":\"grid\"}").unwrap();
            j.mark_running(r, "{\"op\":\"grid\"}").unwrap();
            let c = j.record_queued("{\"op\":\"measure\"}").unwrap();
            // Simulated bit rot on the third record.
            let path = job_path(&j.dir, c);
            let mut bytes = fs::read(&path).unwrap();
            let k = bytes.len() / 2;
            bytes[k] ^= 0x20;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(q, 1);
        }
        // "Restart": a fresh journal over the same directory.
        let j = JobJournal::open(&dir).unwrap();
        let rec = j.recover().unwrap();
        assert_eq!(
            rec.recovered,
            vec![RecoveredJob { id: 1, request: "{\"op\":\"generate\",\"n\":128}".into() }]
        );
        assert_eq!(rec.tombstoned, 1);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(fs::read_dir(j.dir.join("tombstones")).unwrap().count(), 1);
        assert_eq!(fs::read_dir(j.dir.join("quarantine")).unwrap().count(), 1);
        // Recovery consumed the queued record too: a second recovery
        // (double restart) finds a clean journal.
        let _ = j.complete(1);
        assert_eq!(j.recover().unwrap(), Recovery::default());
    }

    #[test]
    fn restart_never_reuses_an_id_even_after_tombstoning() {
        let dir = scratch("ids");
        {
            let j = JobJournal::open(&dir).unwrap();
            let id = j.record_queued("{}").unwrap();
            j.mark_running(id, "{}").unwrap();
        }
        let j = JobJournal::open(&dir).unwrap();
        let rec = j.recover().unwrap();
        assert_eq!(rec.tombstoned, 1);
        // The tombstoned record still pins the id space.
        let fresh = j.record_queued("{}").unwrap();
        assert!(fresh >= 2, "id {fresh} collides with the tombstoned record");
        let j2 = JobJournal::open(&dir).unwrap();
        let after_restart = j2.record_queued("{}").unwrap();
        assert!(after_restart > fresh);
    }
}
