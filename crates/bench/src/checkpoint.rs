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
//!   over its payload; any file that fails the check (bit rot, manual
//!   edits, a filesystem that lied about the rename) is moved into
//!   `quarantine/` and reported, never silently re-measured;
//! * **a manifest** — `manifest.json` records the configuration
//!   fingerprint (figure, backend, grid, seed, schema version) that
//!   produced the cells; a `--resume` against a store written by a
//!   different configuration fails with a typed error instead of
//!   stitching stale cells into the new sweep.
//!
//! The JSON codec is hand-rolled and deliberately tiny: it covers
//! exactly the [`CellResult`] and [`SweepFingerprint`] shapes, with
//! `f64` round-tripping through Rust's shortest-representation
//! formatting.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wcms_dmm::stats::Summary;
use wcms_error::WcmsError;
use wcms_obs::context::fnv1a64;

use crate::experiment::Measurement;
use crate::protocol::{self, CommitStep, ATOMIC_WRITE_STEPS};

/// On-disk schema version, recorded in the manifest. Bump whenever the
/// cell codec or the fingerprint shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

/// How many quarantined files a store retains (newest first). Repeated
/// chaos cycles quarantine without bound otherwise; everything evicted
/// is counted in the `checkpoint_quarantine_evicted_total` metric.
pub const QUARANTINE_RETAIN: usize = 32;

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

impl CellResult {
    /// The measurement, when one exists (done or demoted).
    #[must_use]
    pub fn measurement(&self) -> Option<&Measurement> {
        match self {
            CellResult::Done(m) | CellResult::Demoted { m, .. } => Some(m),
            CellResult::Skipped { .. } => None,
        }
    }
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
                "{{\"schema\":{},\"figure\":\"{}\",\"backend\":\"{}\",\"algorithm\":\"{}\",",
                "\"min_doublings\":{},\"max_doublings\":{},\"runs\":{},\"seed\":{}}}"
            ),
            SCHEMA_VERSION,
            escape(&self.figure),
            escape(&self.backend),
            escape(&self.algorithm),
            self.min_doublings,
            self.max_doublings,
            self.runs,
            self.seed,
        )
    }

    fn decode(text: &str) -> Option<(u64, SweepFingerprint)> {
        let v = parse_value(text)?;
        let obj = v.as_object()?;
        Some((
            obj.get_num("schema")? as u64,
            SweepFingerprint {
                figure: obj.get_str("figure")?.to_string(),
                backend: obj.get_str("backend")?.to_string(),
                // Pre-algorithm manifests could only have been pairwise.
                algorithm: obj.get_str("algorithm").unwrap_or("pairwise").to_string(),
                min_doublings: obj.get_num("min_doublings")? as u32,
                max_doublings: obj.get_num("max_doublings")? as u32,
                runs: obj.get_num("runs")? as u64,
                seed: obj.get_num("seed")? as u64,
            },
        ))
    }

    /// The first fingerprint field differing from `other`, as
    /// `(field, expected, found)` — `None` when they match.
    #[must_use]
    pub fn first_mismatch(
        &self,
        other: &SweepFingerprint,
    ) -> Option<(&'static str, String, String)> {
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
            Ok(text) => match decode_file(&text).ok().and_then(|p| SweepFingerprint::decode(&p)) {
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
    pub fn clear(&self) -> Result<(), WcmsError> {
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
    pub fn cell_files(&self) -> Result<Vec<PathBuf>, WcmsError> {
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
            decode(&payload).ok_or_else(|| "payload failed to parse as a cell result".to_string())
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
    pub fn take_quarantine_evictions(&self) -> u64 {
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
        decode_file(&text).map_err(|reason| WcmsError::CheckpointCorrupt {
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
/// `bytes` under `target` via a private [`temp_path`], one syscall per
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

/// Frame `payload` with the integrity footer: the payload line, then
/// one `fnv1a:<16 hex digits>` line over the payload bytes.
#[must_use]
pub fn encode_file(payload: &str) -> String {
    format!("{payload}\nfnv1a:{:016x}\n", fnv1a64(payload.as_bytes()))
}

/// Verify and strip the integrity footer, returning the payload.
///
/// # Errors
///
/// Returns a human-readable reason when the footer is missing,
/// malformed, or does not match the payload (torn write, bit rot,
/// truncation).
pub fn decode_file(text: &str) -> Result<String, String> {
    let body = text.strip_suffix('\n').ok_or("missing trailing newline (truncated file)")?;
    let (payload, footer) =
        body.rsplit_once('\n').ok_or("missing checksum footer (truncated file)")?;
    let hex = footer.strip_prefix("fnv1a:").ok_or("malformed checksum footer")?;
    let want = u64::from_str_radix(hex, 16).map_err(|_| "malformed checksum footer")?;
    let got = fnv1a64(payload.as_bytes());
    if got != want {
        return Err(format!("checksum mismatch: footer {want:016x}, payload hashes to {got:016x}"));
    }
    Ok(payload.to_string())
}

// --- JSON codec -----------------------------------------------------------

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
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
            "{{\"status\":\"demoted\",\"on\":\"{}\",\"attempts\":{attempts},{}}}",
            escape(on),
            encode_measurement(m)
        ),
        CellResult::Skipped { reason, attempts } => {
            format!(
                "{{\"status\":\"skipped\",\"reason\":\"{}\",\"attempts\":{attempts}}}",
                escape(reason)
            )
        }
    }
}

fn decode_measurement(obj: &[(String, Value)]) -> Option<Measurement> {
    let spread = obj.field("spread")?.as_object()?;
    Some(Measurement {
        n: obj.get_num("n")? as usize,
        throughput: obj.get_num("throughput")?,
        ms: obj.get_num("ms")?,
        throughput_spread: Summary {
            n: spread.get_num("n")? as usize,
            mean: spread.get_num("mean")?,
            min: spread.get_num("min")?,
            max: spread.get_num("max")?,
            stddev: spread.get_num("stddev")?,
        },
        beta1: obj.get_num("beta1")?,
        beta2: obj.get_num("beta2")?,
        conflicts_per_element: obj.get_num("conflicts_per_element")?,
        ms_per_element: obj.get_num("ms_per_element")?,
    })
}

/// Parse the output of [`encode`]. Returns `None` for anything torn or
/// malformed (the store then quarantines the file).
#[must_use]
pub fn decode(text: &str) -> Option<CellResult> {
    let v = parse_value(text)?;
    let obj = v.as_object()?;
    match obj.get_str("status")? {
        "done" => Some(CellResult::Done(decode_measurement(obj)?)),
        "demoted" => Some(CellResult::Demoted {
            m: decode_measurement(obj)?,
            on: obj.get_str("on")?.to_string(),
            attempts: obj.get_num("attempts")? as usize,
        }),
        "skipped" => Some(CellResult::Skipped {
            reason: obj.get_str("reason")?.to_string(),
            attempts: obj.get_num("attempts")? as usize,
        }),
        _ => None,
    }
}

/// Parse a complete JSON value, rejecting trailing garbage.
pub(crate) fn parse_value(text: &str) -> Option<Value> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None; // trailing garbage: treat as torn
    }
    Some(v)
}

pub(crate) enum Value {
    Num(f64),
    Str(String),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub(crate) fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

pub(crate) trait ObjExt {
    fn field(&self, key: &str) -> Option<&Value>;
    fn get_num(&self, key: &str) -> Option<f64>;
    fn get_str(&self, key: &str) -> Option<&str>;
}

impl ObjExt for [(String, Value)] {
    fn field(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    fn get_num(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
    fn get_str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.object(),
            b'"' => Some(Value::Str(self.string()?)),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Value::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                &b => {
                    // Multi-byte UTF-8 sequences pass through byte-wise.
                    let start = self.pos;
                    let len = utf8_len(b);
                    let chunk = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse().ok().map(Value::Num)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn checksum_framing_roundtrips_and_rejects_corruption() {
        let payload = encode(&CellResult::Done(meas()));
        let framed = encode_file(&payload);
        assert_eq!(decode_file(&framed).unwrap(), payload);
        // Any single-byte corruption of the payload must be caught.
        let mut bytes = framed.clone().into_bytes();
        bytes[8] ^= 0x20;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(decode_file(&tampered).is_err());
        // Truncation at every prefix length must be caught.
        for cut in 0..framed.len() {
            assert!(decode_file(&framed[..cut]).is_err(), "cut at {cut} must not verify");
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
