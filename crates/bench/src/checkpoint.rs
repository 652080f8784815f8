//! Crash-only per-cell sweep checkpoints.
//!
//! Every measured cell of a figure sweep is persisted as one small file
//! under `results/.checkpoint/<figure>/<backend>/`, so an interrupted
//! sweep (OOM kill, ^C, node preemption) resumes from the completed
//! cells instead of starting over. The store is *crash-only*: there is
//! no clean-shutdown path to get wrong, and every recovery decision is
//! made from what is actually on disk.
//!
//! Three mechanisms keep a kill at any instant from corrupting a
//! resume:
//!
//! * **atomic writes** — cells are written to a temp file, fsynced and
//!   renamed, so a torn in-progress write never carries a cell's name;
//! * **checksum footers** — every cell file ends in an FNV-1a footer
//!   line over its payload, `fnv1a:` and 16 lowercase hex digits (the
//!   frame codec also reads `xxh64:`, which only the serve cache's large
//!   entries carry; see [`Checksum`]). Any file that fails the check
//!   (bit rot, manual edits, a filesystem that lied about the rename) is
//!   moved into `quarantine/` and reported, never silently re-measured;
//! * **a manifest** — `manifest.json` records the configuration
//!   fingerprint (figure, backend, grid, seed, schema version) that
//!   produced the cells; a `--resume` against a store written by a
//!   different configuration fails with a typed error instead of
//!   stitching stale cells into the new sweep.
//!
//! The encoders are hand-rolled and cover exactly the [`CellResult`]
//! and [`SweepFingerprint`] shapes, with `f64` round-tripping through
//! Rust's shortest-representation formatting; decoding goes through the
//! workspace's one JSON reader, [`wcms_obs::json`].

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wcms_dmm::stats::Summary;
use wcms_error::WcmsError;
use wcms_obs::context::fnv1a64;
use wcms_obs::json::{self, escape_into, Value};

use crate::experiment::Measurement;
use crate::protocol::{self, CommitStep, ATOMIC_WRITE_STEPS};

/// On-disk schema version, recorded in the manifest. Bump whenever the
/// cell codec or the fingerprint shape changes incompatibly.
const SCHEMA_VERSION: u64 = 2;

/// How many quarantined files a store retains (newest first). Repeated
/// chaos cycles quarantine without bound otherwise; everything evicted
/// is counted in the `checkpoint_quarantine_evicted_total` metric.
pub(crate) const QUARANTINE_RETAIN: usize = 32;

/// The persisted outcome of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// The cell measured successfully on the sweep's primary backend.
    Done(Measurement),
    /// The cell repeatedly timed out on the primary backend and was
    /// measured on a demoted one (the supervisor's graceful-degradation
    /// ladder) — better a cheaper measurement than a gap.
    Demoted {
        /// The measurement from the demoted backend.
        m: Measurement,
        /// Name of the backend that produced the measurement.
        on: String,
        /// Total attempts across all ladder rungs.
        attempts: usize,
    },
    /// The cell was abandoned (timeout or repeated failure) — the sweep
    /// reports a gap instead of a value.
    Skipped {
        /// Why the cell was abandoned (a rendered [`WcmsError`]).
        reason: String,
        /// Attempts made before giving up.
        attempts: usize,
    },
}

/// What [`CheckpointStore::load`] found for a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOutcome {
    /// No checkpoint — the cell has not been measured yet.
    Absent,
    /// A well-formed, checksum-verified checkpoint.
    Cached(CellResult),
    /// The cell file existed but failed integrity checks; it was moved
    /// into the quarantine directory and the cell must re-measure.
    Quarantined {
        /// Where the offending file went (`None` when even the move
        /// failed — the reason then covers both).
        to: Option<PathBuf>,
        /// What the integrity check found.
        reason: String,
    },
}

/// The configuration fingerprint a checkpoint directory is bound to.
///
/// Two sweeps may share cells only if *every* field matches; the grid
/// and seed determine the inputs, the backend the engine, the figure
/// the cell namespace, and the schema the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFingerprint {
    /// Figure/sweep name (`fig4`, `fig5`, …).
    pub figure: String,
    /// Execution backend name (`sim`, `analytic`, `reference`).
    pub backend: String,
    /// Sort algorithm name (`pairwise`, `multiway`). Manifests written
    /// before the algorithm dimension existed decode as `pairwise` —
    /// the only algorithm they could have measured — so old pairwise
    /// checkpoints stay resumable without a schema bump.
    pub algorithm: String,
    /// Smallest size exponent of the grid.
    pub min_doublings: u32,
    /// Largest size exponent of the grid.
    pub max_doublings: u32,
    /// Runs averaged per seeded cell.
    pub runs: u64,
    /// Base seed of the seeded workloads.
    pub seed: u64,
}

impl SweepFingerprint {
    fn encode(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":{},\"figure\":{},\"backend\":{},\"algorithm\":{},",
                "\"min_doublings\":{},\"max_doublings\":{},\"runs\":{},\"seed\":{}}}"
            ),
            SCHEMA_VERSION,
            quoted(&self.figure),
            quoted(&self.backend),
            quoted(&self.algorithm),
            self.min_doublings,
            self.max_doublings,
            self.runs,
            self.seed,
        )
    }

    fn decode(text: &str) -> Option<(u64, SweepFingerprint)> {
        let v = json::parse(text).ok()?;
        Some((
            get_num(&v, "schema")? as u64,
            SweepFingerprint {
                figure: get_str(&v, "figure")?.to_string(),
                backend: get_str(&v, "backend")?.to_string(),
                // Pre-algorithm manifests could only have been pairwise.
                algorithm: get_str(&v, "algorithm").unwrap_or("pairwise").to_string(),
                min_doublings: get_num(&v, "min_doublings")? as u32,
                max_doublings: get_num(&v, "max_doublings")? as u32,
                runs: get_num(&v, "runs")? as u64,
                seed: get_num(&v, "seed")? as u64,
            },
        ))
    }

    /// The first fingerprint field differing from `other`, as
    /// `(field, expected, found)` — `None` when they match.
    #[must_use]
    fn first_mismatch(&self, other: &SweepFingerprint) -> Option<(&'static str, String, String)> {
        if self.figure != other.figure {
            return Some(("figure", self.figure.clone(), other.figure.clone()));
        }
        if self.backend != other.backend {
            return Some(("backend", self.backend.clone(), other.backend.clone()));
        }
        if self.algorithm != other.algorithm {
            return Some(("algorithm", self.algorithm.clone(), other.algorithm.clone()));
        }
        if (self.min_doublings, self.max_doublings) != (other.min_doublings, other.max_doublings) {
            return Some((
                "grid",
                format!("2^{}..2^{}", self.min_doublings, self.max_doublings),
                format!("2^{}..2^{}", other.min_doublings, other.max_doublings),
            ));
        }
        if self.runs != other.runs {
            return Some(("runs", self.runs.to_string(), other.runs.to_string()));
        }
        if self.seed != other.seed {
            return Some(("seed", self.seed.to_string(), other.seed.to_string()));
        }
        None
    }
}

/// A directory of per-cell checkpoint files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Files evicted from `quarantine/` since the last
    /// [`CheckpointStore::take_quarantine_evictions`]; shared across
    /// clones so sweep workers report into one counter.
    evicted: Arc<AtomicU64>,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory without binding
    /// it to a configuration. Prefer [`CheckpointStore::open_for`] in
    /// sweep runners — a bare store performs no manifest validation.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WcmsError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, evicted: Arc::new(AtomicU64::new(0)) })
    }

    /// Open a checkpoint directory bound to `fingerprint`.
    ///
    /// Fresh runs (`resume == false`) clear the store and write a new
    /// manifest. Resumed runs validate the existing manifest against
    /// `fingerprint` field by field and refuse to proceed on any
    /// difference — a resume must never mix cells across
    /// configurations. An empty directory (killed before the manifest
    /// landed, or first run) resumes trivially as a fresh store.
    ///
    /// # Errors
    ///
    /// [`WcmsError::CheckpointMismatch`] when resuming against a store
    /// written by a different configuration (or missing its manifest
    /// while holding cells), [`WcmsError::CheckpointCorrupt`] when the
    /// manifest exists but fails its integrity checks, and
    /// [`WcmsError::Io`] on filesystem failures.
    pub fn open_for(
        dir: impl Into<PathBuf>,
        fingerprint: &SweepFingerprint,
        resume: bool,
    ) -> Result<Self, WcmsError> {
        let store = Self::open(dir)?;
        if !resume {
            store.clear()?;
            store.write_manifest(fingerprint)?;
            return Ok(store);
        }
        let manifest_path = store.dir.join("manifest.json");
        match fs::read_to_string(&manifest_path) {
            Ok(text) => match decode_file(&text).ok().and_then(SweepFingerprint::decode) {
                Some((schema, found)) if schema == SCHEMA_VERSION => {
                    if let Some((field, expected, found)) = fingerprint.first_mismatch(&found) {
                        return Err(WcmsError::CheckpointMismatch {
                            dir: store.dir.display().to_string(),
                            field,
                            expected,
                            found,
                        });
                    }
                    Ok(store)
                }
                Some((schema, _)) => Err(WcmsError::CheckpointMismatch {
                    dir: store.dir.display().to_string(),
                    field: "schema",
                    expected: SCHEMA_VERSION.to_string(),
                    found: schema.to_string(),
                }),
                None => Err(WcmsError::CheckpointCorrupt {
                    path: manifest_path.display().to_string(),
                    reason: "manifest failed checksum/parse validation".into(),
                }),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if store.cell_files()?.is_empty() {
                    // Nothing to resume: behave like a fresh store.
                    store.write_manifest(fingerprint)?;
                    Ok(store)
                } else {
                    Err(WcmsError::CheckpointMismatch {
                        dir: store.dir.display().to_string(),
                        field: "manifest",
                        expected: "present".into(),
                        found: "missing (pre-manifest or foreign checkpoint directory)".into(),
                    })
                }
            }
            Err(e) => Err(e.into()),
        }
    }

    fn write_manifest(&self, fingerprint: &SweepFingerprint) -> Result<(), WcmsError> {
        let framed = encode_file(&fingerprint.encode());
        write_atomic(ATOMIC_WRITE_STEPS, &self.dir.join("manifest.json"), framed.as_bytes())
    }

    /// Remove every checkpoint in the directory — cell files, manifest
    /// and quarantined files alike (a fresh, non-resumed run must not
    /// reuse anything from an older configuration).
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub(crate) fn clear(&self) -> Result<(), WcmsError> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json" || e == "tmp" || e == "prom") {
                fs::remove_file(path)?;
            }
        }
        for sub in ["quarantine", "leases"] {
            let dir = self.dir.join(sub);
            if dir.is_dir() {
                fs::remove_dir_all(&dir)?;
            }
        }
        Ok(())
    }

    /// The directory backing this store.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn cell_path(&self, cell: &str) -> PathBuf {
        self.dir.join(format!("cell-{}.json", sanitize(cell)))
    }

    /// Every `cell-*.json` file currently in the store, in no
    /// particular order — the unit a shard merge copies and counts.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    fn cell_files(&self) -> Result<Vec<PathBuf>, WcmsError> {
        let mut cells = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_cell = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".json"));
            if is_cell {
                cells.push(path);
            }
        }
        Ok(cells)
    }

    /// Load a cell's checkpoint.
    ///
    /// A missing file is [`LoadOutcome::Absent`] (never measured). A
    /// file that fails the checksum or the parse is moved into
    /// `quarantine/` and reported as [`LoadOutcome::Quarantined`] —
    /// corruption is *visible*, never a silent re-measure.
    #[must_use]
    pub fn load(&self, cell: &str) -> LoadOutcome {
        let path = self.cell_path(cell);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Absent,
            Err(e) => {
                return self.quarantine(&path, &format!("unreadable cell file: {e}"));
            }
        };
        match decode_file(&text).and_then(|payload| {
            decode(payload).ok_or_else(|| "payload failed to parse as a cell result".to_string())
        }) {
            Ok(result) => LoadOutcome::Cached(result),
            Err(reason) => self.quarantine(&path, &reason),
        }
    }

    /// Move a failed cell file into `quarantine/` (keeping its name;
    /// a repeat offender overwrites its previous quarantined copy),
    /// then prune the quarantine to its newest [`QUARANTINE_RETAIN`]
    /// entries so repeated chaos cycles cannot fill the disk.
    fn quarantine(&self, path: &Path, reason: &str) -> LoadOutcome {
        let qdir = self.dir.join("quarantine");
        let dest = qdir.join(path.file_name().unwrap_or_default());
        let moved = fs::create_dir_all(&qdir).and_then(|()| fs::rename(path, &dest));
        self.evicted.fetch_add(prune_dir(&qdir, QUARANTINE_RETAIN), Ordering::Relaxed);
        match moved {
            Ok(()) => LoadOutcome::Quarantined { to: Some(dest), reason: reason.to_string() },
            Err(e) => LoadOutcome::Quarantined {
                to: None,
                reason: format!("{reason}; quarantine move also failed: {e}"),
            },
        }
    }

    /// Drain the count of quarantine evictions since the last call —
    /// the feed for the `checkpoint_quarantine_evicted_total` counter.
    pub(crate) fn take_quarantine_evictions(&self) -> u64 {
        self.evicted.swap(0, Ordering::Relaxed)
    }

    /// Fold externally-observed evictions (the lease quarantine) into
    /// this store's eviction counter.
    pub(crate) fn note_evictions(&self, n: u64) {
        if n > 0 {
            self.evicted.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Persist a cell's result atomically (temp file, fsync, rename),
    /// with the checksum footer.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn store(&self, cell: &str, result: &CellResult) -> Result<(), WcmsError> {
        let framed = encode_file(&encode(result));
        write_atomic(ATOMIC_WRITE_STEPS, &self.cell_path(cell), framed.as_bytes())
    }

    /// Persist an auxiliary (non-cell) artifact — e.g. a per-shard
    /// metrics export — atomically and with the checksum footer.
    /// `name` must carry its own extension; `.tmp` and subdirectory
    /// names are reserved.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn write_aux(&self, name: &str, payload: &str) -> Result<(), WcmsError> {
        write_atomic(ATOMIC_WRITE_STEPS, &self.dir.join(name), encode_file(payload).as_bytes())
    }

    /// Load and verify an auxiliary artifact written by
    /// [`CheckpointStore::write_aux`], returning its payload.
    ///
    /// # Errors
    ///
    /// [`WcmsError::CheckpointCorrupt`] when the footer check fails,
    /// [`WcmsError::Io`] when the file is missing or unreadable.
    pub fn read_aux(&self, name: &str) -> Result<String, WcmsError> {
        let path = self.dir.join(name);
        let text = fs::read_to_string(&path)?;
        decode_file(&text).map(str::to_string).map_err(|reason| WcmsError::CheckpointCorrupt {
            path: path.display().to_string(),
            reason,
        })
    }

    /// Names of auxiliary artifacts starting with `prefix`, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Io`] on filesystem failures.
    pub fn aux_names(&self, prefix: &str) -> Result<Vec<String>, WcmsError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if name.starts_with(prefix) && !name.ends_with(".tmp") && path.is_file() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Per-process sequence behind [`temp_path`]. `Relaxed` suffices: each
/// `fetch_add` still returns a distinct value, and it publishes no data.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// `<target>.<pid>.<counter>.tmp`: a temp name no other call uses.
/// Threads of one process share the pid, so the process-wide counter is
/// what keeps concurrent writes of one target apart; `clear()` sweeps
/// the `.tmp` strays a crash leaves.
pub(crate) fn temp_path(target: &Path) -> PathBuf {
    let name = target.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    target.with_file_name(format!("{name}.{}.{seq}.tmp", std::process::id()))
}

/// The workspace's one durable-publish executor: run `plan`
/// ([`ATOMIC_WRITE_STEPS`] or [`protocol::LEASE_CLAIM_STEPS`]) to put
/// `bytes` under `target` via a private `temp_path`, one syscall per
/// step, recording each step on the conformance probe. Every durable
/// write (cells, manifests, leases, merges, serve cache and journal)
/// comes here, so the `wcms-analyzer` crash explorer, which enumerates
/// the same plans, covers them all. A failed publish still runs the
/// steps after it (a claim's temp unlink) before returning its error:
/// a lost link race reports `AlreadyExists` and leaves no temp behind.
///
/// # Errors
///
/// [`WcmsError::Io`] from the first step that fails.
pub fn write_atomic(plan: &[CommitStep], target: &Path, bytes: &[u8]) -> Result<(), WcmsError> {
    let tmp = temp_path(target);
    let mut file: Option<fs::File> = None;
    let mut published = Ok(());
    for &step in plan {
        protocol::probe::executed(step);
        match step {
            CommitStep::CreateTemp => file = Some(fs::File::create(&tmp)?),
            CommitStep::WritePayload => {
                if let Some(f) = file.as_mut() {
                    f.write_all(bytes)?;
                }
            }
            CommitStep::SyncTemp => {
                if let Some(f) = file.as_ref() {
                    f.sync_all()?;
                }
            }
            CommitStep::Rename => {
                drop(file.take());
                published = fs::rename(&tmp, target);
            }
            CommitStep::HardLink => {
                drop(file.take());
                published = fs::hard_link(&tmp, target);
            }
            CommitStep::RemoveTemp => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }
    published.map_err(WcmsError::Io)
}

/// Remove the oldest entries of `dir` until at most `keep` remain
/// (ordered by modification time, name as tie-break); returns how many
/// were evicted. Best-effort: races with concurrent pruners are benign.
pub(crate) fn prune_dir(dir: &Path, keep: usize) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else { return 0 };
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            if !path.is_file() {
                return None;
            }
            let mtime = e.metadata().and_then(|m| m.modified()).ok()?;
            Some((mtime, path))
        })
        .collect();
    if files.len() <= keep {
        return 0;
    }
    files.sort();
    let mut evicted = 0;
    for (_, path) in &files[..files.len() - keep] {
        if fs::remove_file(path).is_ok() {
            evicted += 1;
        }
    }
    evicted
}

/// Map a cell name to a filesystem-safe stem. Long names are truncated
/// and suffixed with the FNV-1a hash of the *full* name, keeping every
/// distinct cell distinct while staying under filesystem name limits.
#[must_use]
pub fn sanitize(cell: &str) -> String {
    let mapped: String = cell
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
        .collect();
    const MAX_STEM: usize = 120;
    if mapped.len() <= MAX_STEM {
        mapped
    } else {
        // `mapped` is pure ASCII, so byte slicing cannot split a char.
        format!("{}-{:016x}", &mapped[..MAX_STEM], fnv1a64(cell.as_bytes()))
    }
}

// --- Checksum framing -----------------------------------------------------

/// The hash a frame's integrity footer names.
///
/// A frame is the payload, a newline, then one `<tag>:<16 lowercase
/// hex digits>` line over the payload bytes; [`decode_file`] verifies
/// with whichever hash the tag names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checksum {
    /// FNV-1a 64 (tag `fnv1a`), one byte per step down one multiply
    /// chain. Every checkpoint cell, manifest, lease, aux artifact and
    /// serve journal record: they are small, their commit cost is the
    /// fsync, and processes running different builds share them.
    Fnv1a,
    /// XXH64 with seed 0 (tag `xxh64`), eight bytes per step on four
    /// independent lanes. Serve cache entries: the one large frame,
    /// verified on every hit.
    Xxh64,
}

impl Checksum {
    fn tag(self) -> &'static str {
        match self {
            Checksum::Fnv1a => "fnv1a:",
            Checksum::Xxh64 => "xxh64:",
        }
    }

    fn of(self, bytes: &[u8]) -> u64 {
        match self {
            Checksum::Fnv1a => fnv1a64(bytes),
            Checksum::Xxh64 => xxh64(bytes),
        }
    }
}

/// Bytes a footer adds to its payload under either tag: the newline,
/// the six-byte tag, 16 hex digits and the final newline.
pub const FOOTER_LEN: usize = 24;

/// Frame `payload` with the FNV-1a integrity footer (see [`Checksum`]).
#[must_use]
pub fn encode_file(payload: &str) -> String {
    encode_file_with(payload, Checksum::Fnv1a)
}

/// Frame `payload` with an integrity footer naming `checksum`.
#[must_use]
pub fn encode_file_with(payload: &str, checksum: Checksum) -> String {
    format!("{payload}\n{}{:016x}\n", checksum.tag(), checksum.of(payload.as_bytes()))
}

/// Verify and strip the integrity footer, returning the payload: a
/// prefix of `text`, so a caller can keep it without a copy.
///
/// # Errors
///
/// Returns a human-readable reason when the footer is missing,
/// malformed (an unknown tag, or anything but 16 lowercase hex digits),
/// or does not match the payload (torn write, bit rot, truncation).
pub fn decode_file(text: &str) -> Result<&str, String> {
    let body = text.strip_suffix('\n').ok_or("missing trailing newline (truncated file)")?;
    let (payload, footer) =
        body.rsplit_once('\n').ok_or("missing checksum footer (truncated file)")?;
    let (checksum, hex) = [Checksum::Fnv1a, Checksum::Xxh64]
        .into_iter()
        .find_map(|c| footer.strip_prefix(c.tag()).map(|hex| (c, hex)))
        .ok_or("malformed checksum footer")?;
    let want = parse_hex16(hex).ok_or("malformed checksum footer")?;
    let got = checksum.of(payload.as_bytes());
    if got != want {
        return Err(format!(
            "checksum mismatch: footer {}{want:016x}, payload hashes to {got:016x}",
            checksum.tag()
        ));
    }
    Ok(payload)
}

/// Exactly 16 lowercase hex digits, the only form [`encode_file_with`]
/// writes: a footer that verifies under another spelling (`A` for `a`,
/// a leading `+`) is a corrupted file.
fn parse_hex16(hex: &str) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    hex.bytes().try_fold(0u64, |acc, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

/// XXH64 with seed 0, written from the published specification
/// (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).
/// Each 32-byte stripe feeds one little-endian word to each of four
/// accumulators, so the multiplies run on four independent chains;
/// the sub-stripe tail and the final avalanche mix one chain.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, lane: u64| {
        acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    };

    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut acc = if stripes.is_empty() {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (v, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *v = round(*v, u64::from_le_bytes(*word));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut acc = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in lanes {
            acc = (acc ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
        }
        acc
    };
    // The spec adds the input length modulo 2^64.
    acc = acc.wrapping_add(bytes.len() as u64);

    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        acc = (acc ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        acc = (acc ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &b in tail {
        acc = (acc ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }

    acc ^= acc >> 33;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(P3);
    acc ^ (acc >> 32)
}

// --- JSON codec -----------------------------------------------------------

/// `s` as a JSON string literal, quotes included.
pub(crate) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

fn encode_measurement(m: &Measurement) -> String {
    let s = &m.throughput_spread;
    format!(
        concat!(
            "\"n\":{},\"throughput\":{},\"ms\":{},",
            "\"spread\":{{\"n\":{},\"mean\":{},\"min\":{},\"max\":{},\"stddev\":{}}},",
            "\"beta1\":{},\"beta2\":{},\"conflicts_per_element\":{},",
            "\"ms_per_element\":{}"
        ),
        m.n,
        m.throughput,
        m.ms,
        s.n,
        s.mean,
        s.min,
        s.max,
        s.stddev,
        m.beta1,
        m.beta2,
        m.conflicts_per_element,
        m.ms_per_element,
    )
}

/// Render a [`CellResult`] as one line of JSON (payload only — the
/// on-disk framing adds the checksum footer via [`encode_file`]).
#[must_use]
pub fn encode(result: &CellResult) -> String {
    match result {
        CellResult::Done(m) => {
            format!("{{\"status\":\"done\",{}}}", encode_measurement(m))
        }
        CellResult::Demoted { m, on, attempts } => format!(
            "{{\"status\":\"demoted\",\"on\":{},\"attempts\":{attempts},{}}}",
            quoted(on),
            encode_measurement(m)
        ),
        CellResult::Skipped { reason, attempts } => {
            format!(
                "{{\"status\":\"skipped\",\"reason\":{},\"attempts\":{attempts}}}",
                quoted(reason)
            )
        }
    }
}

/// The number under `key` of object `v`.
pub(crate) fn get_num(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_f64()
}

/// The string under `key` of object `v`.
pub(crate) fn get_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key)?.as_str()
}

fn decode_measurement(v: &Value) -> Option<Measurement> {
    let spread = v.get("spread")?;
    Some(Measurement {
        n: get_num(v, "n")? as usize,
        throughput: get_num(v, "throughput")?,
        ms: get_num(v, "ms")?,
        throughput_spread: Summary {
            n: get_num(spread, "n")? as usize,
            mean: get_num(spread, "mean")?,
            min: get_num(spread, "min")?,
            max: get_num(spread, "max")?,
            stddev: get_num(spread, "stddev")?,
        },
        beta1: get_num(v, "beta1")?,
        beta2: get_num(v, "beta2")?,
        conflicts_per_element: get_num(v, "conflicts_per_element")?,
        ms_per_element: get_num(v, "ms_per_element")?,
    })
}

/// Parse the output of [`encode`]. Returns `None` for anything torn or
/// malformed (the store then quarantines the file).
#[must_use]
pub fn decode(text: &str) -> Option<CellResult> {
    let v = json::parse(text).ok()?;
    match get_str(&v, "status")? {
        "done" => Some(CellResult::Done(decode_measurement(&v)?)),
        "demoted" => Some(CellResult::Demoted {
            m: decode_measurement(&v)?,
            on: get_str(&v, "on")?.to_string(),
            attempts: get_num(&v, "attempts")? as usize,
        }),
        "skipped" => Some(CellResult::Skipped {
            reason: get_str(&v, "reason")?.to_string(),
            attempts: get_num(&v, "attempts")? as usize,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{classify_lease, LeaseInfo, LeaseView};

    fn meas() -> Measurement {
        Measurement {
            n: 3072,
            throughput: 1.25e8,
            ms: 0.024576,
            throughput_spread: Summary { n: 2, mean: 1.25e8, min: 1.2e8, max: 1.3e8, stddev: 7e6 },
            beta1: 3.0999999999999996,
            beta2: 15.0,
            conflicts_per_element: 0.875,
            ms_per_element: 8e-6,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wcms-ckpt-{tag}-{}", std::process::id()))
    }

    fn fp() -> SweepFingerprint {
        SweepFingerprint {
            figure: "figX".into(),
            backend: "sim".into(),
            algorithm: "pairwise".into(),
            min_doublings: 1,
            max_doublings: 5,
            runs: 2,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn done_roundtrips_bit_exact() {
        let r = CellResult::Done(meas());
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    #[test]
    fn demoted_roundtrips_with_backend_name() {
        let r = CellResult::Demoted { m: meas(), on: "analytic".into(), attempts: 7 };
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    #[test]
    fn skipped_roundtrips_with_escapes() {
        let r = CellResult::Skipped {
            reason: "cell \"fig4/wc\" timed out\nafter 3 s".into(),
            attempts: 3,
        };
        assert_eq!(decode(&encode(&r)), Some(r));
    }

    /// Frames written before decoding moved to `wcms_obs::json` (cells,
    /// manifests with and without `algorithm`, untraced and traced
    /// leases) still decode to the values that wrote them.
    #[test]
    fn frames_from_the_previous_reader_decode_unchanged() {
        let frame = |text: &'static str| decode_file(text).unwrap();
        let done = "{\"status\":\"done\",\"n\":3072,\"throughput\":125000000,\"ms\":0.024576,\"spread\":{\"n\":2,\"mean\":125000000,\"min\":120000000,\"max\":130000000,\"stddev\":7000000},\"beta1\":3.0999999999999996,\"beta2\":15,\"conflicts_per_element\":0.875,\"ms_per_element\":0.000008}\nfnv1a:f0c6a7258a94d4a0\n";
        assert_eq!(decode(frame(done)), Some(CellResult::Done(meas())));
        let demoted = "{\"status\":\"demoted\",\"on\":\"analytic\",\"attempts\":7,\"n\":3072,\"throughput\":125000000,\"ms\":0.024576,\"spread\":{\"n\":2,\"mean\":125000000,\"min\":120000000,\"max\":130000000,\"stddev\":7000000},\"beta1\":3.0999999999999996,\"beta2\":15,\"conflicts_per_element\":0.875,\"ms_per_element\":0.000008}\nfnv1a:103e7b0624a2e777\n";
        assert_eq!(
            decode(frame(demoted)),
            Some(CellResult::Demoted { m: meas(), on: "analytic".into(), attempts: 7 })
        );
        let skipped = "{\"status\":\"skipped\",\"reason\":\"cell \\\"fig4/wc\\\" \\\\ timed out\\n\\tafter 3 s\\r\\u0001\\u001f é€😀\",\"attempts\":3}\nfnv1a:c7757f081719a28d\n";
        let reason = "cell \"fig4/wc\" \\ timed out\n\tafter 3 s\r\u{1}\u{1f} é€😀";
        let skipped_cell = CellResult::Skipped { reason: reason.into(), attempts: 3 };
        assert_eq!(decode(frame(skipped)), Some(skipped_cell.clone()));
        assert_eq!(encode_file(&encode(&skipped_cell)), skipped, "encoded bytes changed");

        let manifest = "{\"schema\":2,\"figure\":\"fig5\",\"backend\":\"analytic\",\"algorithm\":\"multiway\",\"min_doublings\":1,\"max_doublings\":5,\"runs\":2,\"seed\":12648430}\nfnv1a:d98a2750f2456d54\n";
        let multiway = SweepFingerprint {
            figure: "fig5".into(),
            backend: "analytic".into(),
            algorithm: "multiway".into(),
            ..fp()
        };
        assert_eq!(SweepFingerprint::decode(frame(manifest)), Some((SCHEMA_VERSION, multiway)));
        let legacy = "{\"schema\":2,\"figure\":\"figX\",\"backend\":\"sim\",\"min_doublings\":1,\"max_doublings\":5,\"runs\":2,\"seed\":12648430}\nfnv1a:448a01c1cbc153f0\n";
        assert_eq!(SweepFingerprint::decode(frame(legacy)), Some((SCHEMA_VERSION, fp())));

        let untraced = "{\"pid\":4242,\"worker\":\"w1\",\"fingerprint\":\"feedbeef01234567\",\"deadline_ms\":1700000000123}\nfnv1a:7deb23d7030b127d\n";
        let lease = LeaseInfo {
            pid: 4242,
            worker: "w1".into(),
            fingerprint: 0xfeed_beef_0123_4567,
            deadline_ms: 1_700_000_000_123,
            trace: None,
        };
        assert_eq!(classify_lease(Some(untraced)), LeaseView::Valid(lease.clone()));
        let traced = "{\"pid\":4242,\"worker\":\"w1\",\"fingerprint\":\"feedbeef01234567\",\"deadline_ms\":1700000000123,\"trace\":\"00000000000000ab/00000000000000cd\"}\nfnv1a:84997718eb51d48d\n";
        let lease = LeaseInfo { trace: Some("00000000000000ab/00000000000000cd".into()), ..lease };
        assert_eq!(classify_lease(Some(traced)), LeaseView::Valid(lease));
    }

    #[test]
    fn checksum_framing_roundtrips_and_rejects_corruption() {
        let payload = encode(&CellResult::Done(meas()));
        for checksum in [Checksum::Fnv1a, Checksum::Xxh64] {
            let framed = encode_file_with(&payload, checksum);
            assert_eq!(decode_file(&framed).unwrap(), payload);
            assert_eq!(framed.len(), payload.len() + FOOTER_LEN);
            // Any single-byte corruption of the payload must be caught.
            let mut bytes = framed.clone().into_bytes();
            bytes[8] ^= 0x20;
            let tampered = String::from_utf8(bytes).unwrap();
            assert!(decode_file(&tampered).is_err());
            // Truncation at every prefix length must be caught.
            for cut in 0..framed.len() {
                assert!(decode_file(&framed[..cut]).is_err(), "{checksum:?} cut at {cut} verified");
            }
        }
        assert_eq!(encode_file(&payload), encode_file_with(&payload, Checksum::Fnv1a));
    }

    /// The published XXH64 answers for seed 0. The 39-byte input runs
    /// the 32-byte stripe loop and every tail step.
    #[test]
    fn xxh64_matches_the_reference_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    /// A footer verifies only under the hash its tag names.
    #[test]
    fn a_tag_naming_the_other_hash_is_refused() {
        let payload = encode(&CellResult::Done(meas()));
        let bytes = payload.as_bytes();
        let swapped = [
            format!("{payload}\nfnv1a:{:016x}\n", xxh64(bytes)),
            format!("{payload}\nxxh64:{:016x}\n", fnv1a64(bytes)),
        ];
        for frame in swapped {
            let err = decode_file(&frame).unwrap_err();
            assert!(err.contains("checksum mismatch"), "{err}");
        }
    }

    #[test]
    fn store_load_clear() {
        let dir = tmpdir("basic");
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        let cell = "fig4/Thrust E=15 b=512 worst-case/3072";
        assert_eq!(store.load(cell), LoadOutcome::Absent);
        let r = CellResult::Done(meas());
        store.store(cell, &r).unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Cached(r));
        // A second store overwrites atomically.
        let skip = CellResult::Skipped { reason: "x".into(), attempts: 1 };
        store.store(cell, &skip).unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Cached(skip));
        store.clear().unwrap();
        assert_eq!(store.load(cell), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Threads of one process storing one cell must never share a temp
    /// file: every store succeeds and the survivor is byte-exact.
    #[test]
    fn concurrent_stores_of_one_cell_never_collide() {
        let dir = tmpdir("race");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        let r = CellResult::Done(meas());
        let start = std::sync::Barrier::new(2);
        let failed: usize = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..500).filter(|_| store.store("cell", &r).is_err()).count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(failed, 0, "stores of one cell collided on a temp file");
        assert_eq!(store.load("cell"), LoadOutcome::Cached(r));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cell_is_quarantined_not_silently_remeasured() {
        let dir = tmpdir("quar");
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        // Truncate the file (simulates a torn write on a filesystem
        // without atomic rename, or plain bit rot).
        let path = store.cell_path("cell");
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        match store.load("cell") {
            LoadOutcome::Quarantined { to: Some(to), reason } => {
                assert!(to.exists(), "quarantined copy must exist at {}", to.display());
                assert!(!path.exists(), "offending file must be moved out");
                assert!(!reason.is_empty());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The cell now reads as absent: it will re-measure.
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_is_bounded_and_counts_evictions() {
        let dir = tmpdir("qbound");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        store.clear().unwrap();
        for i in 0..QUARANTINE_RETAIN + 9 {
            let cell = format!("cell-{i}");
            store.store(&cell, &CellResult::Done(meas())).unwrap();
            let path = store.cell_path(&cell);
            let text = fs::read_to_string(&path).unwrap();
            fs::write(&path, &text[..text.len() / 2]).unwrap();
            assert!(matches!(store.load(&cell), LoadOutcome::Quarantined { .. }));
        }
        let n = fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert!(n <= QUARANTINE_RETAIN, "quarantine grew to {n} entries");
        assert_eq!(store.take_quarantine_evictions(), 9);
        assert_eq!(store.take_quarantine_evictions(), 0, "drain must reset");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aux_artifacts_roundtrip_and_verify() {
        let dir = tmpdir("aux");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open(&dir).unwrap();
        store.write_aux("shard-metrics-w1.prom", "sweep_cells_total 4\n").unwrap();
        store.write_aux("shard-metrics-w0.prom", "sweep_cells_total 2\n").unwrap();
        assert_eq!(
            store.aux_names("shard-metrics-").unwrap(),
            vec!["shard-metrics-w0.prom", "shard-metrics-w1.prom"]
        );
        assert_eq!(store.read_aux("shard-metrics-w0.prom").unwrap(), "sweep_cells_total 2\n");
        // Corruption is a typed error, not silent garbage.
        let path = dir.join("shard-metrics-w0.prom");
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x10;
        fs::write(&path, bytes).unwrap();
        let err = store.read_aux("shard-metrics-w0.prom").unwrap_err();
        assert!(matches!(err, WcmsError::CheckpointCorrupt { .. }), "{err}");
        // clear() removes aux artifacts too.
        store.clear().unwrap();
        assert!(store.aux_names("shard-metrics-").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_roundtrips() {
        let f = fp();
        let (schema, back) = SweepFingerprint::decode(&f.encode()).unwrap();
        assert_eq!(schema, SCHEMA_VERSION);
        assert_eq!(back, f);
    }

    /// Manifests written before the algorithm dimension existed (no
    /// `algorithm` key) must decode as pairwise — old pairwise
    /// checkpoint directories stay resumable without a schema bump.
    #[test]
    fn pre_algorithm_manifest_decodes_as_pairwise() {
        let legacy = format!(
            concat!(
                "{{\"schema\":{},\"figure\":\"figX\",\"backend\":\"sim\",",
                "\"min_doublings\":1,\"max_doublings\":5,\"runs\":2,\"seed\":{}}}"
            ),
            SCHEMA_VERSION, 0xC0FFEE_u64,
        );
        let (schema, back) = SweepFingerprint::decode(&legacy).unwrap();
        assert_eq!(schema, SCHEMA_VERSION);
        assert_eq!(back, fp(), "missing algorithm field must default to pairwise");
        assert!(fp().first_mismatch(&back).is_none());
    }

    #[test]
    fn open_for_fresh_clears_and_resume_keeps() {
        let dir = tmpdir("manifest");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        // Resume with the same fingerprint keeps the cell.
        let store = CheckpointStore::open_for(&dir, &fp(), true).unwrap();
        assert!(matches!(store.load("cell"), LoadOutcome::Cached(_)));
        // A fresh open clears it.
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_foreign_fingerprints() {
        let dir = tmpdir("mismatch");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        for (mutate, field) in [
            (
                Box::new(|f: &mut SweepFingerprint| f.backend = "analytic".into())
                    as Box<dyn Fn(&mut SweepFingerprint)>,
                "backend",
            ),
            (Box::new(|f: &mut SweepFingerprint| f.algorithm = "multiway".into()), "algorithm"),
            (Box::new(|f: &mut SweepFingerprint| f.max_doublings = 9), "grid"),
            (Box::new(|f: &mut SweepFingerprint| f.seed = 1), "seed"),
            (Box::new(|f: &mut SweepFingerprint| f.figure = "fig5".into()), "figure"),
            (Box::new(|f: &mut SweepFingerprint| f.runs = 10), "runs"),
        ] {
            let mut other = fp();
            mutate(&mut other);
            let err = CheckpointStore::open_for(&dir, &other, true).unwrap_err();
            match err {
                WcmsError::CheckpointMismatch { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected mismatch on {field}, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_manifest_refuses_when_cells_exist() {
        let dir = tmpdir("nomanifest");
        let store = CheckpointStore::open_for(&dir, &fp(), false).unwrap();
        store.store("cell", &CellResult::Done(meas())).unwrap();
        fs::remove_file(dir.join("manifest.json")).unwrap();
        let err = CheckpointStore::open_for(&dir, &fp(), true).unwrap_err();
        assert!(matches!(err, WcmsError::CheckpointMismatch { field: "manifest", .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_empty_directory_is_a_fresh_start() {
        let dir = tmpdir("empty");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::open_for(&dir, &fp(), true).unwrap();
        assert_eq!(store.load("cell"), LoadOutcome::Absent);
        // The manifest was written, so a second resume still validates.
        assert!(CheckpointStore::open_for(&dir, &fp(), true).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_names_sanitize_to_distinct_files() {
        assert_ne!(sanitize("a/b=1 c"), sanitize("a/b=2 c"));
        assert!(sanitize("fig4/Thrust E=15 b=512/3072")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_'));
    }
}
