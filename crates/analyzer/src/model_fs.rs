//! Pass 2 (model) — filesystem crash consistency of the checkpoint
//! store's write paths.
//!
//! The interleaving model ([`crate::shard_model`]) explores *process*
//! schedules; this module explores *machine crashes*: power loss after
//! every individual filesystem operation of the workspace's two durable
//! publish sequences, under a crash model where file **data** may be
//! lost or torn unless fsynced. The scripts are not hand-written —
//! they are generated from the same
//! [`wcms_bench::protocol::ATOMIC_WRITE_STEPS`] /
//! [`wcms_bench::protocol::LEASE_CLAIM_STEPS`] constants the one
//! durable-write executor ([`wcms_bench::checkpoint::write_atomic`])
//! iterates, one operation per step, and recovery is judged by the same
//! [`wcms_bench::checkpoint::decode_file`] /
//! [`wcms_bench::protocol::classify_lease`] ladder recovery runs. If
//! the protocol constants changed (say, fsync moved after the
//! rename), this explorer — not a human reviewer — would be what
//! notices.
//!
//! ## The crash model
//!
//! [`ModelFs`] mimics a metadata-journaling, data-delayed filesystem
//! (ext4 `data=ordered` reality): names are durable as soon as the
//! operation returns — `create`, `rename`, `hard_link` and `remove`
//! survive a crash — but file *contents* written since the last
//! `fsync` may survive as any torn prefix (including empty). A crash
//! therefore yields a **set** of possible disk states: the cartesian
//! product, over surviving files, of each file's possible contents.
//! The explorer enumerates a crash after every prefix of every script
//! and every member of that set, and asserts recovery reaches a legal
//! state:
//!
//! * **fresh commit** (new cell/manifest): the destination is absent
//!   or decodes to exactly the committed payload — never torn;
//! * **overwrite commit**: the destination decodes to the old payload
//!   or the new one — never absent, never torn;
//! * **lease claim**: the lease path classifies as `Missing` or
//!   `Valid` with the claimed payload — a published lease name never
//!   points at bytes that were not forced;
//! * after the final acknowledgement, the new content must have
//!   survived (an acked commit is durable).
//!
//! Seeded buggy variants ([`FsVariant`]) — skipping the fsync,
//! writing in place — are each caught with a replayable
//! counterexample (script, crash point, survivor choice).

use std::collections::BTreeMap;

use wcms_bench::checkpoint::{decode_file, encode_file};
use wcms_bench::protocol::{
    classify_lease, CommitStep, LeaseInfo, LeaseView, ATOMIC_WRITE_STEPS, LEASE_CLAIM_STEPS,
};

/// One filesystem operation of a commit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Create an empty file (truncating; data not durable yet).
    Create(&'static str),
    /// Replace a file's cached contents (creates the file if absent;
    /// data not durable until fsynced).
    Write(&'static str, Vec<u8>),
    /// Force the file's current contents to durable storage.
    Fsync(&'static str),
    /// Atomically rename `src` to `dst` (name change is durable).
    Rename(&'static str, &'static str),
    /// Atomically link `dst` to `src`'s file (durable; the claim race
    /// loser path — fails if `dst` exists — never fires in these
    /// single-writer scripts).
    HardLink(&'static str, &'static str),
    /// Unlink a name (durable).
    Remove(&'static str),
    /// The caller observes success ("the commit happened"). After
    /// this, the committed content must survive any crash.
    Ack,
}

/// A file's state: `cached` is what readers see pre-crash, `durable`
/// is what `fsync` last forced (`None`: never forced).
#[derive(Debug, Clone)]
struct FileNode {
    cached: Vec<u8>,
    durable: Option<Vec<u8>>,
}

/// The modeled directory: name → file. Names behave
/// metadata-journaled (operations on them are crash-durable); data is
/// delayed (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ModelFs {
    files: BTreeMap<&'static str, FileNode>,
}

impl ModelFs {
    /// Start with `name` present and durable with `bytes` (a file a
    /// previous, completed commit left behind).
    pub fn seed_durable(&mut self, name: &'static str, bytes: Vec<u8>) {
        self.files.insert(name, FileNode { cached: bytes.clone(), durable: Some(bytes) });
    }

    /// Execute one operation (scripts are single-writer; the ops
    /// cannot fail on the states our scripts produce).
    pub fn apply(&mut self, op: &FsOp) {
        match op {
            FsOp::Create(name) => {
                self.files.insert(name, FileNode { cached: Vec::new(), durable: None });
            }
            FsOp::Write(name, bytes) => {
                let node = self
                    .files
                    .entry(name)
                    .or_insert(FileNode { cached: Vec::new(), durable: None });
                node.cached = bytes.clone();
            }
            FsOp::Fsync(name) => {
                if let Some(node) = self.files.get_mut(name) {
                    node.durable = Some(node.cached.clone());
                }
            }
            FsOp::Rename(src, dst) => {
                if let Some(node) = self.files.remove(src) {
                    self.files.insert(dst, node);
                }
            }
            FsOp::HardLink(src, dst) => {
                debug_assert!(
                    !self.files.contains_key(dst),
                    "claim race loser in a 1-writer script"
                );
                if let Some(node) = self.files.get(src).cloned() {
                    self.files.entry(dst).or_insert(node);
                }
            }
            FsOp::Remove(name) => {
                self.files.remove(name);
            }
            FsOp::Ack => {}
        }
    }

    /// The possible post-crash contents of one file: its durable bytes
    /// if in sync, else the durable bytes plus every distinct torn
    /// prefix of the unforced cache (empty, half, all-but-one, all).
    fn survivors(node: &FileNode) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = Vec::new();
        if let Some(d) = &node.durable {
            out.push(d.clone());
            if *d == node.cached {
                return out;
            }
        }
        let len = node.cached.len();
        for cut in [0, len / 2, len.saturating_sub(1), len] {
            let p = node.cached[..cut].to_vec();
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Enumerate every possible post-crash disk image: for each
    /// surviving name, the choice of which torn/durable content it
    /// retained. Returns `(names, per-file survivor lists)`; a crash
    /// image is one index per file.
    fn crash_space(&self) -> (Vec<&'static str>, Vec<Vec<Vec<u8>>>) {
        let names: Vec<&'static str> = self.files.keys().copied().collect();
        let options = names.iter().map(|n| Self::survivors(&self.files[n])).collect();
        (names, options)
    }
}

/// What counts as a legal recovery state for a script.
#[derive(Debug, Clone)]
enum Contract {
    /// `dst` absent, or decodes to exactly `payload`.
    FreshCell { dst: &'static str, payload: String },
    /// `dst` decodes to `old` or `new` — never absent, never torn.
    OverwriteCell { dst: &'static str, old: String, new: String },
    /// `dst` classifies (checksum + payload parse) as `Missing` or
    /// `Valid(info)`.
    LeaseClaim { dst: &'static str, info: LeaseInfo },
}

impl Contract {
    fn dst(&self) -> &'static str {
        match self {
            Contract::FreshCell { dst, .. }
            | Contract::OverwriteCell { dst, .. }
            | Contract::LeaseClaim { dst, .. } => dst,
        }
    }

    /// Judge one recovered disk image. `acked`: the script's `Ack` had
    /// executed before the crash, so the new content must be there.
    fn judge(&self, disk: &BTreeMap<&'static str, Vec<u8>>, acked: bool) -> Result<(), String> {
        let text = disk.get(self.dst()).map(|b| String::from_utf8_lossy(b).into_owned());
        match self {
            Contract::FreshCell { dst, payload } => match &text {
                None if acked => Err(format!("{dst}: acknowledged commit vanished in the crash")),
                None => Ok(()),
                Some(t) => match decode_file(t) {
                    Ok(p) if p == *payload => Ok(()),
                    Ok(_) | Err(_) => Err(format!(
                        "{dst}: a published name points at torn/foreign bytes after crash \
                         ({} byte(s) recovered)",
                        t.len()
                    )),
                },
            },
            Contract::OverwriteCell { dst, old, new } => match &text {
                None => Err(format!("{dst}: overwrite destroyed the previous committed file")),
                Some(t) => match decode_file(t) {
                    Ok(p) if p == *new => Ok(()),
                    Ok(p) if p == *old && !acked => Ok(()),
                    Ok(p) if p == *old => {
                        Err(format!("{dst}: acknowledged overwrite rolled back to the old payload"))
                    }
                    Ok(_) | Err(_) => Err(format!(
                        "{dst}: overwrite left torn bytes — neither old nor new payload \
                         ({} byte(s) recovered)",
                        t.len()
                    )),
                },
            },
            Contract::LeaseClaim { dst, info } => match classify_lease(text.as_deref()) {
                LeaseView::Missing if acked => {
                    Err(format!("{dst}: acknowledged lease claim vanished in the crash"))
                }
                LeaseView::Missing => Ok(()),
                LeaseView::Valid(got) if got == *info => Ok(()),
                LeaseView::Valid(_) => {
                    Err(format!("{dst}: recovered lease names a different claimant"))
                }
                LeaseView::Corrupt => Err(format!(
                    "{dst}: published lease classifies Corrupt — its bytes were never forced"
                )),
            },
        }
    }
}

/// Correct write path or a deliberately seeded mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsVariant {
    /// The step plans exactly as `protocol` specifies them.
    Correct,
    /// Bug: the `SyncTemp` step is dropped — publish a name whose
    /// data was never forced.
    BuggySkipFsync,
    /// Bug: write the destination in place instead of via
    /// temp + fsync + rename.
    BuggyDirectWrite,
}

impl FsVariant {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FsVariant::Correct => "correct",
            FsVariant::BuggySkipFsync => "skip-fsync",
            FsVariant::BuggyDirectWrite => "direct-write",
        }
    }
}

/// One commit script: initial durable files, the operation sequence
/// (generated from the protocol's step plan), and the recovery
/// contract.
#[derive(Debug, Clone)]
pub struct FsScript {
    /// Display name (`atomic-write/fresh`, `lease-claim/publish`, …).
    pub name: &'static str,
    initial: Vec<(&'static str, Vec<u8>)>,
    ops: Vec<FsOp>,
    contract: Contract,
}

const TMP: &str = "cell.tmp";
const CELL: &str = "cell";
const LEASE: &str = "lease";

/// Translate a protocol step plan publishing `dst` into concrete
/// filesystem operations — one per step, the same map
/// `wcms_bench::checkpoint::write_atomic` executes — with a trailing
/// `Ack`.
fn ops_from_plan(plan: &[CommitStep], framed: &[u8], dst: &'static str) -> Vec<FsOp> {
    let mut ops: Vec<FsOp> = plan
        .iter()
        .map(|step| match step {
            CommitStep::CreateTemp => FsOp::Create(TMP),
            CommitStep::WritePayload => FsOp::Write(TMP, framed.to_vec()),
            CommitStep::SyncTemp => FsOp::Fsync(TMP),
            CommitStep::Rename => FsOp::Rename(TMP, dst),
            CommitStep::HardLink => FsOp::HardLink(TMP, dst),
            CommitStep::RemoveTemp => FsOp::Remove(TMP),
        })
        .collect();
    ops.push(FsOp::Ack);
    ops
}

fn apply_variant(
    ops: Vec<FsOp>,
    framed: &[u8],
    dst: &'static str,
    variant: FsVariant,
) -> Vec<FsOp> {
    match variant {
        FsVariant::Correct => ops,
        FsVariant::BuggySkipFsync => {
            ops.into_iter().filter(|op| !matches!(op, FsOp::Fsync(_))).collect()
        }
        FsVariant::BuggyDirectWrite => vec![FsOp::Write(dst, framed.to_vec()), FsOp::Ack],
    }
}

fn cell_payload_old() -> String {
    "{\"cell\":\"old\",\"elapsed_s\":1.0}".to_string()
}

fn cell_payload_new() -> String {
    "{\"cell\":\"new\",\"elapsed_s\":2.0}".to_string()
}

fn claim_info() -> LeaseInfo {
    LeaseInfo { pid: 42, worker: "w0".into(), fingerprint: 0xBEEF, deadline_ms: 5_000, trace: None }
}

/// The standard script suite for one variant: every durable publish
/// sequence the store runs, generated from the protocol constants.
#[must_use]
pub fn standard_fs_scripts(variant: FsVariant) -> Vec<FsScript> {
    let new = cell_payload_new();
    let old = cell_payload_old();
    let framed_new = encode_file(&new).into_bytes();
    let framed_old = encode_file(&old).into_bytes();
    let info = claim_info();
    let framed_lease = encode_file(&info.encode()).into_bytes();
    vec![
        FsScript {
            name: "atomic-write/fresh",
            initial: Vec::new(),
            ops: apply_variant(
                ops_from_plan(ATOMIC_WRITE_STEPS, &framed_new, CELL),
                &framed_new,
                CELL,
                variant,
            ),
            contract: Contract::FreshCell { dst: CELL, payload: new.clone() },
        },
        FsScript {
            name: "atomic-write/overwrite",
            initial: vec![(CELL, framed_old.clone())],
            ops: apply_variant(
                ops_from_plan(ATOMIC_WRITE_STEPS, &framed_new, CELL),
                &framed_new,
                CELL,
                variant,
            ),
            contract: Contract::OverwriteCell { dst: CELL, old, new },
        },
        FsScript {
            name: "lease-claim/publish",
            initial: Vec::new(),
            ops: apply_variant(
                ops_from_plan(LEASE_CLAIM_STEPS, &framed_lease, LEASE),
                &framed_lease,
                LEASE,
                variant,
            ),
            contract: Contract::LeaseClaim { dst: LEASE, info },
        },
    ]
}

/// One illegal recovery state, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct FsViolation {
    /// Which script.
    pub script: &'static str,
    /// Crash after this many operations had executed.
    pub crash_after: usize,
    /// Per-surviving-file survivor index (the crash image).
    pub choice: Vec<usize>,
    /// What the recovery contract rejected.
    pub message: String,
}

/// One script's exhaustive crash exploration.
#[derive(Debug, Clone)]
pub struct FsScriptReport {
    /// Which script.
    pub script: &'static str,
    /// Crash points enumerated (one after every operation prefix,
    /// including after `Ack`).
    pub crash_points: usize,
    /// Total recovered disk images judged.
    pub cases: usize,
    /// Contract violations found.
    pub violations: Vec<FsViolation>,
}

impl FsScriptReport {
    /// True iff no crash image violated the contract.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn run_prefix(script: &FsScript, crash_after: usize) -> (ModelFs, bool) {
    let mut fs = ModelFs::default();
    for (name, bytes) in &script.initial {
        fs.seed_durable(name, bytes.clone());
    }
    let mut acked = false;
    for op in &script.ops[..crash_after] {
        fs.apply(op);
        if matches!(op, FsOp::Ack) {
            acked = true;
        }
    }
    (fs, acked)
}

/// Deterministically rebuild one crash image and judge it — the
/// replay entry point for [`FsViolation`]s. Errors iff the
/// counterexample still violates the contract.
pub fn replay_fs_case(
    script: &FsScript,
    crash_after: usize,
    choice: &[usize],
) -> Result<(), String> {
    let (fs, acked) = run_prefix(script, crash_after);
    let (names, options) = fs.crash_space();
    let mut disk: BTreeMap<&'static str, Vec<u8>> = BTreeMap::new();
    for (i, name) in names.iter().enumerate() {
        let opts = &options[i];
        let pick = choice.get(i).copied().unwrap_or(0).min(opts.len().saturating_sub(1));
        disk.insert(name, opts[pick].clone());
    }
    script.contract.judge(&disk, acked)
}

/// Explore every crash point × every crash image of one script.
#[must_use]
pub fn explore_fs_script(script: &FsScript) -> FsScriptReport {
    let mut report = FsScriptReport {
        script: script.name,
        crash_points: script.ops.len() + 1,
        cases: 0,
        violations: Vec::new(),
    };
    for crash_after in 0..=script.ops.len() {
        let (fs, acked) = run_prefix(script, crash_after);
        let (names, options) = fs.crash_space();
        // Odometer over the cartesian product of survivor choices.
        let mut choice = vec![0usize; names.len()];
        loop {
            let disk: BTreeMap<&'static str, Vec<u8>> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (*n, options[i][choice[i]].clone()))
                .collect();
            report.cases += 1;
            if let Err(message) = script.contract.judge(&disk, acked) {
                report.violations.push(FsViolation {
                    script: script.name,
                    crash_after,
                    choice: choice.clone(),
                    message,
                });
            }
            // Advance the odometer; empty product runs exactly once.
            let mut i = 0;
            loop {
                if i == choice.len() {
                    break;
                }
                choice[i] += 1;
                if choice[i] < options[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
            if i == choice.len() {
                break;
            }
        }
    }
    report
}

/// Explore the full standard suite on the correct protocol.
#[must_use]
pub fn check_fs_consistency() -> Vec<FsScriptReport> {
    standard_fs_scripts(FsVariant::Correct).iter().map(explore_fs_script).collect()
}

/// One seeded filesystem mutation's verdict.
#[derive(Debug, Clone)]
pub struct FsMutationReport {
    /// Which mutation.
    pub variant: FsVariant,
    /// First counterexample, when caught.
    pub counterexample: Option<FsViolation>,
    /// Crash images judged across the suite.
    pub cases: usize,
    /// True iff at least one script's contract rejected a crash image.
    pub caught: bool,
    /// True iff replaying the counterexample (script + crash point +
    /// survivor choice) reproduces the rejection.
    pub replayed: bool,
}

/// Run every seeded filesystem mutation; each must be caught with a
/// replayable counterexample.
#[must_use]
pub fn check_fs_mutations() -> Vec<FsMutationReport> {
    [FsVariant::BuggySkipFsync, FsVariant::BuggyDirectWrite]
        .into_iter()
        .map(|variant| {
            let scripts = standard_fs_scripts(variant);
            let mut cases = 0usize;
            let mut counterexample = None;
            for script in &scripts {
                let r = explore_fs_script(script);
                cases += r.cases;
                if counterexample.is_none() {
                    counterexample = r.violations.first().cloned();
                }
            }
            let caught = counterexample.is_some();
            let replayed = counterexample.as_ref().is_some_and(|v| {
                scripts
                    .iter()
                    .find(|s| s.name == v.script)
                    .is_some_and(|script| replay_fs_case(script, v.crash_after, &v.choice).is_err())
            });
            FsMutationReport { variant, counterexample, cases, caught, replayed }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_write_paths_survive_every_crash_point() {
        for r in check_fs_consistency() {
            assert!(r.clean(), "{}: {:?}", r.script, r.violations.first());
            assert!(r.crash_points >= 5, "{}: every step must get a crash point", r.script);
            assert!(r.cases > 0, "{}", r.script);
        }
    }

    #[test]
    fn every_seeded_fs_mutation_is_caught_and_replays() {
        let reports = check_fs_mutations();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.caught, "{}: mutation escaped the crash explorer", r.variant.name());
            assert!(r.replayed, "{}: counterexample did not replay", r.variant.name());
        }
    }

    #[test]
    fn skip_fsync_is_caught_by_the_published_torn_bytes_contract() {
        let reports = check_fs_mutations();
        let r = reports
            .iter()
            .find(|r| r.variant == FsVariant::BuggySkipFsync)
            .expect("suite includes skip-fsync");
        let v = r.counterexample.as_ref().expect("caught");
        assert!(v.message.contains("torn") || v.message.contains("forced"), "{}", v.message);
    }

    #[test]
    fn unfsynced_data_really_tears() {
        let mut fs = ModelFs::default();
        fs.apply(&FsOp::Write(CELL, b"0123456789".to_vec()));
        let (names, options) = fs.crash_space();
        assert_eq!(names, vec![CELL]);
        // Empty, half, all-but-one, all.
        assert_eq!(options[0].len(), 4);
        assert!(options[0].contains(&Vec::new()));
        assert!(options[0].contains(&b"0123456789".to_vec()));
        // After fsync the image is exact.
        fs.apply(&FsOp::Fsync(CELL));
        let (_, options) = fs.crash_space();
        assert_eq!(options[0], vec![b"0123456789".to_vec()]);
    }

    #[test]
    fn replay_of_a_clean_case_is_ok() {
        let scripts = standard_fs_scripts(FsVariant::Correct);
        for s in &scripts {
            assert!(replay_fs_case(s, s.ops.len(), &[0, 0]).is_ok(), "{}", s.name);
        }
    }
}
