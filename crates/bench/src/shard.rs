//! Lease-based multi-process work stealing over the checkpoint store.
//!
//! A sweep grid is a set of independent cells, and the PR-3
//! [`CheckpointStore`] already makes each cell's result a durable,
//! checksummed, atomically-renamed file. That store is therefore a
//! ready-made *work-stealing substrate*: n independent `wcms`
//! processes can point at one checkpoint directory and cooperatively
//! execute one grid, with crash-only semantics — any worker may die at
//! any instant and the grid still completes without losing or
//! double-committing a cell.
//!
//! The coordination primitive is a **per-cell lease file** under
//! `<store>/leases/`:
//!
//! * **acquisition is atomic** — the claimant writes a temp file and
//!   `hard_link`s it to the lease name; the link either creates the
//!   name (claim won) or fails with `AlreadyExists` (someone holds
//!   it). No lock server, no flock, nothing that dies with a process.
//! * **leases expire** — the payload carries `owner pid + worker id +
//!   store fingerprint + deadline`, FNV-checksum-framed exactly like
//!   cell files. A worker finding an expired lease *steals* it by
//!   atomically renaming it away (one winner) and re-claiming.
//! * **corrupt leases are quarantined** — a lease that fails the
//!   checksum or the parse is moved to `leases/quarantine/` (bounded,
//!   like the cell quarantine) and treated as expired.
//! * **re-acquisition is jittered** — waiting workers back off with
//!   deterministic, seeded jitter derived from (seed, pid-independent
//!   worker id, attempt), so workers never synchronize into a
//!   thundering herd yet replays stay reproducible.
//!
//! Duplicated *execution* is possible by design (a worker outliving
//! its lease races its stealer), but duplicated *commits* are
//! harmless: measurements are deterministic, and cell commits are
//! atomic renames of byte-identical content. The merge step
//! ([`crate::bin` `merge`]) verifies exactly that invariant.
//!
//! The state machine itself — what to do with a missing / corrupt /
//! expired / live lease, what a claim stamps, when a release may
//! delete — lives in [`crate::protocol`] as pure transition functions.
//! This module supplies only the filesystem effects around them, so
//! the `wcms-analyzer` shard model explores *the same* decision logic
//! production runs (and a conformance test asserts it via
//! [`crate::protocol::probe`]). Time is read through a
//! [`wcms_obs::Clock`]: production opens with the epoch-anchored
//! [`Clock::unix`] (lease deadlines are a cross-process contract), and
//! tests/models drive expiry with a shared virtual clock instead of
//! sleeping.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use wcms_error::WcmsError;
use wcms_obs::context::{fnv1a64, mix};
use wcms_obs::Clock;

use crate::checkpoint::{
    decode_file, encode_file, prune_dir, sanitize, temp_path, write_atomic, CheckpointStore,
    QUARANTINE_RETAIN,
};
use crate::protocol::{self, LeaseAction, LeaseView, ATOMIC_WRITE_STEPS, LEASE_CLAIM_STEPS};

pub use crate::protocol::LeaseInfo;

/// Default lease time-to-live: long enough that a healthy cell commits
/// well inside it, short enough that a SIGKILLed worker's cells are
/// stolen promptly.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// How a sweep's cells are divided among cooperating processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Single process owns every cell (the default).
    #[default]
    Off,
    /// Static sharding: this process executes cells whose submission
    /// index is `index` modulo `count`; other cells replay from the
    /// shared checkpoint store when present and defer otherwise.
    Static {
        /// This process's shard index, `0 <= index < count`.
        index: usize,
        /// Total number of cooperating shards.
        count: usize,
    },
    /// Dynamic work stealing: every cooperating process races over the
    /// whole grid, claiming cells through expiring lease files in the
    /// shared checkpoint store.
    Steal {
        /// Pid-independent worker identity (lease ownership, metrics
        /// export names, jitter streams).
        worker: String,
        /// Lease time-to-live before other workers may steal.
        ttl: Duration,
    },
    /// Merge/verification mode: every cell must replay from the
    /// checkpoint store; nothing is measured. A missing cell is a
    /// *lost* cell and fails the merge.
    Replay,
}

impl ShardPolicy {
    /// Whether sharding is disabled.
    #[must_use]
    pub(crate) fn is_off(&self) -> bool {
        matches!(self, ShardPolicy::Off)
    }

    /// Whether this policy makes the process responsible for executing
    /// the cell at submission index `i`.
    #[must_use]
    pub(crate) fn owns(&self, i: usize) -> bool {
        match self {
            ShardPolicy::Off | ShardPolicy::Steal { .. } => true,
            ShardPolicy::Static { index, count } => i % count.max(&1) == *index,
            ShardPolicy::Replay => false,
        }
    }

    /// Pid-independent label for this process's role in the sweep
    /// (metrics export names, jitter streams). `None` when off.
    #[must_use]
    pub fn worker_label(&self) -> Option<String> {
        match self {
            ShardPolicy::Off => None,
            ShardPolicy::Static { index, .. } => Some(format!("s{index}")),
            ShardPolicy::Steal { worker, .. } => Some(worker.clone()),
            ShardPolicy::Replay => Some("merge".to_string()),
        }
    }

    /// Whether the figure binaries must suppress their CSV: a shard
    /// holds only part of the grid, so its rendering would be partial
    /// — the `merge` binary (or a `--replay` run) renders the full,
    /// byte-identical CSV from the joined store.
    #[must_use]
    pub fn partial_output(&self) -> bool {
        matches!(self, ShardPolicy::Static { .. } | ShardPolicy::Steal { .. })
    }
}

/// Reason string prefix marking a cell this shard did not execute
/// (another shard owns it and has not committed it yet). Such cells
/// are excluded from the shard's own sweep counters.
pub(crate) const DEFERRED_PREFIX: &str = "shard-deferred:";

/// Reason string prefix marking a cell a `--replay` run could not find
/// in the checkpoint store: the cell was *lost* (never executed, or
/// its file destroyed). Unlike deferred cells these count as skips, so
/// a merge can refuse to publish an incomplete grid.
pub const LOST_PREFIX: &str = "shard-lost:";

/// Deterministic, pid-independent retry jitter: the sleep added to a
/// backoff is a pure function of `(seed, stream, attempt)`, where the
/// stream is a stable worker/cell identity — never the pid — so
/// concurrent processes desynchronize while any single configuration
/// replays identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryJitter {
    /// Sweep seed (ties replays to the configuration).
    pub seed: u64,
    /// Pid-independent stream id (worker label, shard index).
    pub stream: String,
}

impl RetryJitter {
    /// The jitter for retry `attempt` of `cell` under this
    /// configuration, uniform in `[0, max)`.
    #[must_use]
    pub(crate) fn sample(&self, cell: &str, attempt: u64, max: Duration) -> Duration {
        jitter(self.seed, &format!("{}/{cell}", self.stream), attempt, max)
    }
}

/// The jitter duration for `(seed, stream, attempt)`, uniform in
/// `[0, max)` via a splitmix64 finalizer. `max == 0` yields zero.
#[must_use]
pub fn jitter(seed: u64, stream: &str, attempt: u64, max: Duration) -> Duration {
    let max_ns = u64::try_from(max.as_nanos()).unwrap_or(u64::MAX);
    if max_ns == 0 {
        return Duration::ZERO;
    }
    let x = mix(seed
        ^ fnv1a64(stream.as_bytes()).rotate_left(17)
        ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Duration::from_nanos(x % max_ns)
}

/// What [`LeaseStore::try_acquire`] found.
#[derive(Debug)]
pub enum LeaseAttempt {
    /// This worker now holds the cell; dropping the guard releases it.
    Acquired(LeaseGuard),
    /// Another worker holds an unexpired lease.
    Held {
        /// The holder's worker id.
        worker: String,
        /// Time until the lease may be stolen.
        remaining: Duration,
    },
}

/// Holding a lease: dropping the guard deletes the lease file iff this
/// worker still owns it (it may have been stolen meanwhile — then the
/// stealer's lease must survive; [`protocol::release_decision`] is the
/// arbiter).
#[derive(Debug)]
pub struct LeaseGuard {
    path: PathBuf,
    pid: u64,
    worker: String,
}

impl Drop for LeaseGuard {
    fn drop(&mut self) {
        let on_disk = fs::read_to_string(&self.path)
            .ok()
            .and_then(|text| decode_file(&text).ok())
            .and_then(|payload| LeaseInfo::decode(&payload));
        if protocol::release_decision(on_disk.as_ref(), self.pid, &self.worker) {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Per-cell lease files under `<checkpoint dir>/leases/`.
#[derive(Debug, Clone)]
pub struct LeaseStore {
    store: CheckpointStore,
    dir: PathBuf,
    worker: String,
    ttl: Duration,
    fingerprint: u64,
    clock: Clock,
    trace: Option<String>,
}

impl LeaseStore {
    /// Open the lease directory of `store` for worker `worker` with
    /// lease time-to-live `ttl`, stamping deadlines against the
    /// epoch-anchored [`Clock::unix`] — lease expiry arbitrates
    /// liveness *between* processes, so it must read the one clock all
    /// workers share.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] if the directory cannot be created.
    pub fn open(store: &CheckpointStore, worker: &str, ttl: Duration) -> Result<Self, WcmsError> {
        Self::open_with_clock(store, worker, ttl, Clock::unix())
    }

    /// [`LeaseStore::open`] with an explicit clock: tests and the
    /// model checker hand every cooperating store a clone of one
    /// virtual clock and drive lease expiry deterministically instead
    /// of sleeping. The lease fingerprint is the FNV hash of the
    /// store's manifest bytes (0 when absent), binding every lease to
    /// the configuration the store was opened for.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] if the directory cannot be created.
    pub fn open_with_clock(
        store: &CheckpointStore,
        worker: &str,
        ttl: Duration,
        clock: Clock,
    ) -> Result<Self, WcmsError> {
        let dir = store.dir().join("leases");
        fs::create_dir_all(&dir)?;
        let fingerprint =
            fs::read(store.dir().join("manifest.json")).map(|b| fnv1a64(&b)).unwrap_or(0);
        Ok(Self {
            store: store.clone(),
            dir,
            worker: worker.to_string(),
            ttl,
            fingerprint,
            clock,
            trace: None,
        })
    }

    /// Stamp every lease this store claims with the worker's sweep
    /// trace context (`<trace>/<span>` wire form). Provenance only:
    /// nothing in the lease protocol reads it, and `None` keeps the
    /// lease payload byte-identical to pre-trace workers.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<String>) -> Self {
        self.trace = trace;
        self
    }

    /// The manifest fingerprint every lease is stamped with (0 when the
    /// store has no manifest). Doubles as the shared, pid-independent
    /// jitter seed for the steal scheduler.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn lease_path(&self, cell: &str) -> PathBuf {
        self.dir.join(format!("lease-{}.json", sanitize(cell)))
    }

    fn now_ms(&self) -> u64 {
        self.clock.now_us() / 1000
    }

    /// Try to claim `cell`. At most a few protocol rounds, each one a
    /// read → [`protocol::lease_decision`] → effect: a missing lease
    /// is claimed by running [`LEASE_CLAIM_STEPS`] through the
    /// durable-write executor (atomic `hard_link`); a corrupt lease is
    /// quarantined and treated as expired; an expired lease is stolen
    /// by atomic rename (one winner). An unexpired foreign lease
    /// returns [`LeaseAttempt::Held`].
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures other than the
    /// expected claim/steal races.
    pub fn try_acquire(&self, cell: &str) -> Result<LeaseAttempt, WcmsError> {
        let path = self.lease_path(cell);
        let pid = u64::from(std::process::id());
        for _ in 0..4 {
            let view = match fs::read_to_string(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => LeaseView::Missing,
                Err(e) => return Err(e.into()),
                Ok(text) => protocol::classify_lease(Some(&text)),
            };
            let now = self.now_ms();
            match protocol::lease_decision(&view, now) {
                LeaseAction::Claim => {
                    let mut info =
                        protocol::fresh_lease(pid, &self.worker, self.fingerprint, now, self.ttl);
                    // Stamped after the protocol constructor on purpose:
                    // the analyzer models fresh_lease and must keep
                    // seeing the exact production claim logic.
                    info.trace = self.trace.clone();
                    let framed = encode_file(&info.encode());
                    match write_atomic(LEASE_CLAIM_STEPS, &path, framed.as_bytes()) {
                        Ok(()) => {
                            return Ok(LeaseAttempt::Acquired(LeaseGuard {
                                path,
                                pid,
                                worker: self.worker.clone(),
                            }))
                        }
                        Err(WcmsError::Io(e)) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                            continue
                        }
                        Err(e) => return Err(e),
                    }
                }
                LeaseAction::Quarantine => {
                    // Corrupt: quarantine (bounded) and treat as
                    // expired. The rename races benignly with other
                    // quarantiners and stealers.
                    let qdir = self.dir.join("quarantine");
                    let _ = fs::create_dir_all(&qdir);
                    let dest = qdir.join(path.file_name().unwrap_or_default());
                    let _ = fs::rename(&path, &dest);
                    self.store.note_evictions(prune_dir(&qdir, QUARANTINE_RETAIN));
                    continue;
                }
                LeaseAction::Steal => {
                    // Expired: steal by renaming it away — exactly one
                    // stealer's rename succeeds.
                    let tomb = temp_path(&path);
                    if fs::rename(&path, &tomb).is_ok() {
                        let _ = fs::remove_file(&tomb);
                    }
                    continue;
                }
                LeaseAction::Held { worker, remaining_ms } => {
                    return Ok(LeaseAttempt::Held {
                        worker,
                        remaining: Duration::from_millis(remaining_ms),
                    });
                }
            }
        }
        // Pathological contention (claim/steal races every round):
        // report as held-for-an-instant; the caller retries with jitter.
        Ok(LeaseAttempt::Held { worker: "<contended>".into(), remaining: Duration::from_millis(1) })
    }

    /// Re-frame and atomically rewrite a lease file (test/chaos hook:
    /// a byte-flipped lease must be quarantined, not trusted).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn write_raw(&self, cell: &str, bytes: &str) -> Result<(), WcmsError> {
        write_atomic(ATOMIC_WRITE_STEPS, &self.lease_path(cell), bytes.as_bytes())
    }

    /// Whether a lease file currently exists for `cell`.
    #[must_use]
    pub fn exists(&self, cell: &str) -> bool {
        self.lease_path(cell).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("wcms-lease-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointStore::open(dir).unwrap()
    }

    #[test]
    fn lease_roundtrips() {
        let info = LeaseInfo {
            pid: 4242,
            worker: "w \"quoted\"\n".into(),
            fingerprint: 0xdead_beef_cafe_f00d,
            deadline_ms: 1_700_000_000_123,
            trace: Some("00000000deadbeef/00000000c0ffee00".into()),
        };
        assert_eq!(LeaseInfo::decode(&info.encode()), Some(info));
    }

    #[test]
    fn acquire_is_exclusive_and_release_frees() {
        let store = tmp_store("excl");
        let a = LeaseStore::open(&store, "wa", Duration::from_secs(60)).unwrap();
        let b = LeaseStore::open(&store, "wb", Duration::from_secs(60)).unwrap();
        let guard = match a.try_acquire("cell/1").unwrap() {
            LeaseAttempt::Acquired(g) => g,
            LeaseAttempt::Held { .. } => panic!("first claim must win"),
        };
        match b.try_acquire("cell/1").unwrap() {
            LeaseAttempt::Held { worker, remaining } => {
                assert_eq!(worker, "wa");
                assert!(remaining > Duration::from_secs(1));
            }
            LeaseAttempt::Acquired(_) => panic!("second claim must see the lease"),
        }
        drop(guard);
        assert!(matches!(b.try_acquire("cell/1").unwrap(), LeaseAttempt::Acquired(_)));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn expired_lease_is_stolen_under_virtual_time() {
        let store = tmp_store("steal");
        // One shared virtual clock drives both workers: no sleeping,
        // no zero-TTL trickery — the lease expires because time
        // (deterministically) passes.
        let clock = Clock::virtual_us(1);
        let ttl = Duration::from_secs(30);
        let dead = LeaseStore::open_with_clock(&store, "dead", ttl, clock.clone()).unwrap();
        let live = LeaseStore::open_with_clock(&store, "live", ttl, clock.clone()).unwrap();
        let g = match dead.try_acquire("cell/2").unwrap() {
            LeaseAttempt::Acquired(g) => g,
            LeaseAttempt::Held { .. } => panic!("claim must win"),
        };
        std::mem::forget(g); // the owner died: no release
        match live.try_acquire("cell/2").unwrap() {
            LeaseAttempt::Held { worker, remaining } => {
                assert_eq!(worker, "dead");
                assert!(remaining <= ttl);
            }
            LeaseAttempt::Acquired(_) => panic!("unexpired lease must hold"),
        }
        // SIGKILL the owner's wall time: one tick past the deadline.
        clock.sleep(ttl + Duration::from_millis(1));
        match live.try_acquire("cell/2").unwrap() {
            LeaseAttempt::Acquired(g) => drop(g),
            LeaseAttempt::Held { worker, .. } => {
                panic!("expired lease not stolen (held by {worker})")
            }
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_lease_is_quarantined_and_reclaimable() {
        let store = tmp_store("corrupt");
        let a = LeaseStore::open(&store, "wa", Duration::from_secs(60)).unwrap();
        a.write_raw("cell/3", "not a framed lease at all").unwrap();
        assert!(a.exists("cell/3"));
        match a.try_acquire("cell/3").unwrap() {
            LeaseAttempt::Acquired(g) => drop(g),
            LeaseAttempt::Held { worker, .. } => panic!("corrupt lease blocked claim ({worker})"),
        }
        let qdir = store.dir().join("leases").join("quarantine");
        assert!(qdir.is_dir() && std::fs::read_dir(&qdir).unwrap().count() == 1);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn jitter_is_deterministic_and_stream_dependent() {
        let max = Duration::from_millis(100);
        let a = jitter(7, "w0", 3, max);
        assert_eq!(a, jitter(7, "w0", 3, max), "same inputs must replay identically");
        // Across streams / attempts / seeds the values decorrelate; a
        // blanket inequality could collide, so check a handful.
        let others = [jitter(7, "w1", 3, max), jitter(7, "w0", 4, max), jitter(8, "w0", 3, max)];
        assert!(others.iter().any(|o| *o != a), "jitter failed to vary across streams");
        assert!(jitter(7, "w0", 3, Duration::ZERO).is_zero());
        for k in 0..64 {
            assert!(jitter(k, "w", k, max) < max);
        }
    }

    #[test]
    fn static_policy_partitions_exactly() {
        let count = 3;
        let policies: Vec<ShardPolicy> =
            (0..count).map(|index| ShardPolicy::Static { index, count }).collect();
        for i in 0..100 {
            let owners = policies.iter().filter(|p| p.owns(i)).count();
            assert_eq!(owners, 1, "cell {i} must have exactly one static owner");
        }
        assert!(ShardPolicy::Off.owns(17));
        assert!(ShardPolicy::Steal { worker: "w".into(), ttl: DEFAULT_LEASE_TTL }.owns(17));
        assert!(!ShardPolicy::Replay.owns(17));
    }
}
