//! Pass 2 (model) — the scale-out lease/steal protocol.
//!
//! PR 8's multi-process layer coordinates workers through expiring
//! lease files: claim by atomic `hard_link`, steal an expired lease by
//! atomic rename, quarantine a corrupt one, release only what is still
//! yours. This model explores that protocol exhaustively on the
//! [`crate::interleave`] engine — N workers × machine crashes × clock
//! skew × lease expiry — and it is an **executable spec**, not a
//! reimplementation: every decision a modeled worker takes goes
//! through the *same* pure transition functions production runs
//! ([`wcms_bench::protocol::lease_decision`],
//! [`wcms_bench::protocol::fresh_lease`],
//! [`wcms_bench::protocol::release_decision`]), and a conformance test
//! in `wcms-bench` asserts production executes exactly those
//! transitions.
//!
//! ## What is (and is not) an invariant
//!
//! The protocol deliberately permits **duplicated execution**: a
//! worker outliving its lease races its stealer, and both may commit
//! — harmlessly, because measurements are deterministic and commits
//! are atomic renames of byte-identical content. Naive mutual
//! exclusion ("a live lease has one holder") is therefore *not* the
//! spec. The provable safety properties are:
//!
//! * **commit integrity** — a committed cell is never overwritten
//!   with *diverging* bytes (a stolen lease's holder can commit late,
//!   but never commit something different);
//! * **steal legitimacy** — every steal decision is taken on a lease
//!   that is actually expired at decision time, up to the configured
//!   clock skew (a stale clock must not license stealing live work);
//! * **tombstone discipline** — a worker never issues two steal
//!   decisions for the same lease *generation* (the steal's rename
//!   removes the generation; forgetting the tombstone re-steals it);
//! * **release hygiene** — a release never removes another holder's
//!   live lease (only [`wcms_bench::protocol::release_decision`] may
//!   say "ours");
//! * **evidence preservation** — in schedules where no steal can
//!   collaterally reap the file, a corrupt lease is quarantined,
//!   never destroyed.
//!
//! Deliberately broken variants ([`ShardVariant`]) prove the checker
//! has teeth: each seeded mutation is caught with a replayable
//! counterexample schedule.

use std::time::Duration;

use wcms_bench::protocol::{
    fresh_lease, lease_decision, release_decision, LeaseAction, LeaseInfo, LeaseView,
};

use crate::interleave::{explore, replay, ExploreConfig, ExploreReport, Model, Violation};

/// The deterministic measurement every correct worker computes for the
/// one modeled cell (an abstract byte standing in for the framed cell
/// file).
const CELL_RESULT: u8 = 0xA5;

/// The stale-clock bug's offset: far past any scenario's deadlines.
const STALE_CLOCK_MS: u64 = 1_000_000_000;

/// Correct protocol or a deliberately seeded mutation (checker-teeth
/// tests and the `--model-check-shard` acceptance gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardVariant {
    /// The protocol as implemented in `wcms-bench`.
    Correct,
    /// Bug: expiry is decided against a stale, far-future clock
    /// reading instead of the worker's current clock — licensing the
    /// steal of a live lease.
    BuggyStaleDeadline,
    /// Bug: the steal skips the tombstone rename, leaving the expired
    /// lease in place — the stealer loops and "steals" the same lease
    /// generation again.
    BuggyForgetTombstone,
    /// Bug: the guard drop removes the lease unconditionally instead
    /// of consulting `release_decision` — deleting a stealer's live
    /// lease.
    BuggyBlindRelease,
    /// Bug: a corrupt lease is deleted instead of quarantined —
    /// destroying the evidence recovery forensics depend on.
    BuggyEvidenceDrop,
    /// Bug: the measurement is nondeterministic (worker-dependent), so
    /// a late commit after a steal diverges from the stealer's bytes.
    BuggyDivergingResult,
}

impl ShardVariant {
    /// Stable display name (`correct`, `stale-deadline`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardVariant::Correct => "correct",
            ShardVariant::BuggyStaleDeadline => "stale-deadline",
            ShardVariant::BuggyForgetTombstone => "forget-tombstone",
            ShardVariant::BuggyBlindRelease => "blind-release",
            ShardVariant::BuggyEvidenceDrop => "evidence-drop",
            ShardVariant::BuggyDivergingResult => "diverging-result",
        }
    }
}

/// One named protocol configuration to explore exhaustively.
#[derive(Debug, Clone)]
struct ShardScenario {
    /// Display name (`steal/expiry`, `lease/corrupt-evidence`, …).
    pub(crate) name: &'static str,
    /// Cooperating workers.
    pub(crate) workers: usize,
    /// Acquisition attempts per worker before it gives up (production
    /// retries forever with jitter; the model bounds the loop).
    max_attempts: u8,
    /// Lease time-to-live stamped by claims.
    ttl_ms: u64,
    /// Per-worker clock offset added to global time (models clock
    /// skew between hosts; the legitimacy bound is the maximum).
    skew_ms: Vec<u64>,
    /// How many times the global clock may tick.
    clock_ticks: u8,
    /// Milliseconds per clock tick.
    tick_ms: u64,
    /// Total machine crashes the crasher processes may inject.
    crash_budget: u8,
    /// Which workers own a crasher process.
    crashable: Vec<bool>,
    /// Start with a corrupt lease already on disk.
    initial_corrupt: bool,
    /// Start with the cell already committed.
    precommitted: bool,
    /// Check the evidence-preservation obligation at terminal states.
    /// Only meaningful in scenarios where no steal can collaterally
    /// reap the corrupt file (no expiry ⇒ no steal decisions).
    check_evidence: bool,
    /// Require the cell to be committed in every terminal state
    /// (only sound for uncontended, crash-free scenarios).
    expect_commit: bool,
    /// Protocol variant under test.
    pub(crate) variant: ShardVariant,
}

/// On-disk lease content (the model's two-point byte abstraction).
#[derive(Debug, Clone, PartialEq, Eq)]
enum LeaseBytes {
    Valid(LeaseInfo),
    Corrupt,
}

/// The shared checkpoint directory, abstracted: one lease slot, one
/// cell slot, a quarantine. Lease files get a fresh *generation*
/// number per creation so the model can tell "the same file" from "a
/// new file at the same path" — exactly what inode identity does for
/// the real rename/hard-link races.
#[derive(Debug, Clone)]
struct Disk {
    lease: Option<(u32, LeaseBytes)>,
    next_gen: u32,
    cell: Option<u8>,
    quarantined: Vec<u32>,
    corrupt_gens: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wpc {
    /// Read the lease path and run the real `lease_decision`.
    Read,
    /// Execute the claim publish (`hard_link`: single winner).
    Link,
    /// Apply the effect the Read decided (quarantine / steal rename).
    Effect,
    /// Under lease: re-check the store for an existing commit.
    Recheck,
    /// Deterministic measurement.
    Compute,
    /// Atomic-rename commit of the result.
    Commit,
    /// Guard drop: `release_decision`, maybe remove.
    Release,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Quarantine,
    Steal { gen: u32 },
}

#[derive(Debug, Clone)]
struct Worker {
    pc: Wpc,
    attempt: u8,
    pending: Option<Pending>,
    held: Option<LeaseInfo>,
    result: Option<u8>,
    /// Lease generations this worker issued steal decisions for.
    stole: Vec<u32>,
    crashed: bool,
}

/// Explorer state for [`ShardModel`].
#[derive(Debug, Clone)]
struct ShardState {
    disk: Disk,
    workers: Vec<Worker>,
    now_ms: u64,
    ticks_left: u8,
    crash_budget: u8,
    violation: Option<String>,
}

/// Process layout of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proc {
    Worker(usize),
    Crasher(usize),
    Clock,
}

/// The lease/steal protocol as an explorable [`Model`].
#[derive(Debug, Clone)]
struct ShardModel {
    scenario: ShardScenario,
    procs: Vec<Proc>,
    max_skew_ms: u64,
}

impl ShardModel {
    /// Build the model for one scenario.
    #[must_use]
    pub(crate) fn new(scenario: ShardScenario) -> Self {
        let mut procs: Vec<Proc> = (0..scenario.workers).map(Proc::Worker).collect();
        for (w, crashable) in scenario.crashable.iter().enumerate() {
            if *crashable {
                procs.push(Proc::Crasher(w));
            }
        }
        if scenario.clock_ticks > 0 {
            procs.push(Proc::Clock);
        }
        let max_skew_ms = scenario.skew_ms.iter().copied().max().unwrap_or(0);
        Self { scenario, procs, max_skew_ms }
    }

    fn worker_pid(w: usize) -> u64 {
        100 + w as u64
    }

    fn worker_name(w: usize) -> String {
        format!("w{w}")
    }

    fn local_now(&self, s: &ShardState, w: usize) -> u64 {
        s.now_ms + self.scenario.skew_ms.get(w).copied().unwrap_or(0)
    }

    /// One more acquisition attempt; gives up (Done) past the bound.
    fn retry(&self, s: &mut ShardState, w: usize) {
        let wk = &mut s.workers[w];
        wk.attempt += 1;
        wk.pc = if wk.attempt >= self.scenario.max_attempts { Wpc::Done } else { Wpc::Read };
    }

    fn step_worker(&self, s: &mut ShardState, w: usize) {
        let variant = self.scenario.variant;
        match s.workers[w].pc {
            Wpc::Read => {
                let (gen, view) = match &s.disk.lease {
                    None => (None, LeaseView::Missing),
                    Some((g, LeaseBytes::Corrupt)) => (Some(*g), LeaseView::Corrupt),
                    Some((g, LeaseBytes::Valid(info))) => {
                        (Some(*g), LeaseView::Valid(info.clone()))
                    }
                };
                let decide_now = if variant == ShardVariant::BuggyStaleDeadline {
                    self.local_now(s, w) + STALE_CLOCK_MS
                } else {
                    self.local_now(s, w)
                };
                // The REAL production transition function.
                match lease_decision(&view, decide_now) {
                    LeaseAction::Claim => s.workers[w].pc = Wpc::Link,
                    LeaseAction::Quarantine => {
                        s.workers[w].pending = Some(Pending::Quarantine);
                        s.workers[w].pc = Wpc::Effect;
                    }
                    LeaseAction::Steal => {
                        let viewed_gen = gen.unwrap_or(u32::MAX);
                        let deadline = match &view {
                            LeaseView::Valid(info) => info.deadline_ms,
                            _ => 0,
                        };
                        // Steal legitimacy: the lease must actually be
                        // expired at decision time, up to the worst
                        // legitimate skew.
                        if deadline > s.now_ms + self.max_skew_ms {
                            s.violation = Some(format!(
                                "worker {w} decided to steal an unexpired lease \
                                 (deadline {deadline} ms > now {} ms + max skew {} ms): \
                                 a stale clock licensed stealing live work",
                                s.now_ms, self.max_skew_ms
                            ));
                        }
                        // Tombstone discipline: one steal decision per
                        // lease generation per worker.
                        if s.workers[w].stole.contains(&viewed_gen) {
                            s.violation = Some(format!(
                                "worker {w} issued a second steal decision for lease \
                                 generation {viewed_gen}: the steal tombstone was forgotten"
                            ));
                        }
                        s.workers[w].stole.push(viewed_gen);
                        s.workers[w].pending = Some(Pending::Steal { gen: viewed_gen });
                        s.workers[w].pc = Wpc::Effect;
                    }
                    LeaseAction::Held { .. } => self.retry(s, w),
                }
            }
            Wpc::Link => {
                // hard_link: creates the name or fails AlreadyExists.
                if s.disk.lease.is_none() {
                    let info = fresh_lease(
                        Self::worker_pid(w),
                        &Self::worker_name(w),
                        0,
                        self.local_now(s, w),
                        Duration::from_millis(self.scenario.ttl_ms),
                    );
                    let gen = s.disk.next_gen;
                    s.disk.next_gen += 1;
                    s.disk.lease = Some((gen, LeaseBytes::Valid(info.clone())));
                    s.workers[w].held = Some(info);
                    s.workers[w].pc = Wpc::Recheck;
                } else {
                    self.retry(s, w);
                }
            }
            Wpc::Effect => {
                match s.workers[w].pending.take() {
                    Some(Pending::Quarantine) => {
                        // Production renames whatever is at the path
                        // into quarantine/ — the collateral race with
                        // a fresh claim is real and benign.
                        if let Some((gen, _)) = s.disk.lease.take() {
                            if variant != ShardVariant::BuggyEvidenceDrop {
                                s.disk.quarantined.push(gen);
                            }
                        }
                    }
                    // Production renames the path to a tombstone and
                    // unlinks it: net removal of the current occupant,
                    // whichever generation won races since the read.
                    Some(Pending::Steal { .. })
                        if variant != ShardVariant::BuggyForgetTombstone =>
                    {
                        s.disk.lease = None;
                    }
                    Some(Pending::Steal { .. }) => {}
                    None => {}
                }
                s.workers[w].pc = Wpc::Read;
            }
            Wpc::Recheck => {
                s.workers[w].pc = if s.disk.cell.is_some() { Wpc::Release } else { Wpc::Compute };
            }
            Wpc::Compute => {
                s.workers[w].result = Some(if variant == ShardVariant::BuggyDivergingResult {
                    1 + w as u8
                } else {
                    CELL_RESULT
                });
                s.workers[w].pc = Wpc::Commit;
            }
            Wpc::Commit => {
                let r = s.workers[w].result.unwrap_or(CELL_RESULT);
                match s.disk.cell {
                    Some(prev) if prev != r => {
                        s.violation = Some(format!(
                            "worker {w} overwrote a committed cell with diverging bytes \
                             ({prev:#04x} -> {r:#04x}): a stolen lease's holder committed \
                             a different result late"
                        ));
                    }
                    _ => s.disk.cell = Some(r),
                }
                s.workers[w].pc = Wpc::Release;
            }
            Wpc::Release => {
                let me_pid = Self::worker_pid(w);
                let me = Self::worker_name(w);
                let on_disk = match &s.disk.lease {
                    Some((_, LeaseBytes::Valid(info))) => Some(info.clone()),
                    _ => None,
                };
                // The REAL production release arbiter (unless seeded
                // to ignore it).
                let ours = if variant == ShardVariant::BuggyBlindRelease {
                    s.disk.lease.is_some()
                } else {
                    release_decision(on_disk.as_ref(), me_pid, &me)
                };
                if ours {
                    if let Some((_, bytes)) = s.disk.lease.take() {
                        let foreign = match bytes {
                            LeaseBytes::Valid(info) => info.pid != me_pid || info.worker != me,
                            LeaseBytes::Corrupt => true,
                        };
                        if foreign {
                            s.violation = Some(format!(
                                "worker {w} released a lease that was no longer its own: \
                                 a blind release deleted the stealer's live lease"
                            ));
                        }
                    }
                }
                s.workers[w].pc = Wpc::Done;
            }
            Wpc::Done => unreachable!("done worker is never enabled"),
        }
    }

    fn step_proc(&self, s: &mut ShardState, p: Proc) {
        match p {
            Proc::Worker(w) => self.step_worker(s, w),
            Proc::Crasher(w) => {
                // SIGKILL: the worker stops forever; whatever lease it
                // holds stays on disk until expiry.
                s.workers[w].crashed = true;
                s.crash_budget = s.crash_budget.saturating_sub(1);
            }
            Proc::Clock => {
                s.now_ms += self.scenario.tick_ms;
                s.ticks_left -= 1;
            }
        }
    }
}

impl Model for ShardModel {
    type State = ShardState;

    fn initial(&self) -> ShardState {
        let mut disk = Disk {
            lease: None,
            next_gen: 0,
            cell: self.scenario.precommitted.then_some(CELL_RESULT),
            quarantined: Vec::new(),
            corrupt_gens: Vec::new(),
        };
        if self.scenario.initial_corrupt {
            disk.lease = Some((0, LeaseBytes::Corrupt));
            disk.corrupt_gens.push(0);
            disk.next_gen = 1;
        }
        ShardState {
            disk,
            workers: (0..self.scenario.workers)
                .map(|_| Worker {
                    pc: Wpc::Read,
                    attempt: 0,
                    pending: None,
                    held: None,
                    result: None,
                    stole: Vec::new(),
                    crashed: false,
                })
                .collect(),
            now_ms: 1_000,
            ticks_left: self.scenario.clock_ticks,
            crash_budget: self.scenario.crash_budget,
            violation: None,
        }
    }

    fn enabled(&self, s: &ShardState) -> Vec<usize> {
        let workers_running = s.workers.iter().any(|w| !w.crashed && w.pc != Wpc::Done);
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| match p {
                Proc::Worker(w) => !s.workers[*w].crashed && s.workers[*w].pc != Wpc::Done,
                Proc::Crasher(w) => {
                    s.crash_budget > 0 && !s.workers[*w].crashed && s.workers[*w].pc != Wpc::Done
                }
                // Ticking past the last worker would only multiply
                // equivalent schedules by trailing clock orders.
                Proc::Clock => s.ticks_left > 0 && workers_running,
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn step(&self, s: &mut ShardState, pid: usize) {
        self.step_proc(s, self.procs[pid]);
    }

    fn is_terminal(&self, s: &ShardState) -> bool {
        s.workers.iter().all(|w| w.crashed || w.pc == Wpc::Done)
    }

    fn invariant(&self, s: &ShardState) -> Result<(), String> {
        match &s.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    fn terminal_check(&self, s: &ShardState) -> Result<(), String> {
        if self.scenario.check_evidence {
            for gen in &s.disk.corrupt_gens {
                let preserved = s.disk.quarantined.contains(gen)
                    || matches!(&s.disk.lease, Some((g, _)) if g == gen);
                if !preserved {
                    return Err(format!(
                        "corrupt lease generation {gen} was destroyed instead of \
                         quarantined: recovery evidence lost"
                    ));
                }
            }
        }
        if self.scenario.precommitted && s.disk.cell != Some(CELL_RESULT) {
            return Err(format!(
                "a pre-committed cell did not survive the schedule (now {:?})",
                s.disk.cell
            ));
        }
        if self.scenario.expect_commit && s.disk.cell != Some(CELL_RESULT) {
            return Err(format!(
                "the cell was never committed (got {:?}) in a scenario that must complete",
                s.disk.cell
            ));
        }
        Ok(())
    }
}

fn base(name: &'static str, workers: usize) -> ShardScenario {
    ShardScenario {
        name,
        workers,
        max_attempts: 2,
        ttl_ms: 10,
        skew_ms: vec![0; workers],
        clock_ticks: 2,
        tick_ms: 6,
        crash_budget: 0,
        crashable: vec![false; workers],
        initial_corrupt: false,
        precommitted: false,
        check_evidence: false,
        expect_commit: false,
        variant: ShardVariant::Correct,
    }
}

/// The standard scenario suite the `--model-check-shard` pass explores
/// (all on the correct protocol).
#[must_use]
fn standard_shard_scenarios() -> Vec<ShardScenario> {
    vec![
        // A SIGKILLed claimant's lease expires and is stolen; every
        // crash point of worker 0 interleaves with worker 1's rounds
        // and the clock.
        ShardScenario { crash_budget: 1, crashable: vec![true, false], ..base("steal/expiry", 2) },
        // Both workers alive: claim races, held backoffs, steal of an
        // expired-but-still-running owner, late identical commits,
        // release/steal races.
        base("steal/contention", 2),
        // Same, with worker 1's clock 5 ms ahead: skewed expiry
        // decisions stay within the legitimacy bound.
        ShardScenario { skew_ms: vec![0, 5], ..base("steal/skew", 2) },
        // A corrupt lease is found on disk. TTL is effectively
        // infinite and the clock never ticks, so no steal can
        // collaterally reap the file — the evidence obligation is
        // checked at every terminal state.
        ShardScenario {
            ttl_ms: 1_000_000,
            clock_ticks: 0,
            initial_corrupt: true,
            check_evidence: true,
            ..base("lease/corrupt-evidence", 2)
        },
        // The cell is already committed: every schedule must leave it
        // intact (claim, re-check under lease, release, never
        // recompute over it).
        ShardScenario {
            ttl_ms: 1_000_000,
            clock_ticks: 0,
            precommitted: true,
            ..base("cell/precommitted", 2)
        },
        // Uncontended baseline: a single worker must always complete
        // and commit.
        ShardScenario {
            max_attempts: 1,
            clock_ticks: 0,
            ttl_ms: 1_000_000,
            expect_commit: true,
            ..base("cell/uncontended", 1)
        },
    ]
}

/// One scenario's exploration outcome.
#[derive(Debug, Clone)]
pub struct ShardScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The exploration result.
    pub report: ExploreReport,
}

/// Explore every standard scenario exhaustively; returns per-scenario
/// reports (sum the schedule counts for the grand total).
#[must_use]
pub fn check_shard_protocol(cfg: &ExploreConfig) -> Vec<ShardScenarioReport> {
    standard_shard_scenarios()
        .into_iter()
        .map(|sc| {
            let name = sc.name;
            let report = explore(&ShardModel::new(sc), cfg);
            ShardScenarioReport { name, report }
        })
        .collect()
}

/// The seeded-mutation acceptance suite: each variant paired with the
/// scenario whose schedule space exposes it.
#[must_use]
fn shard_mutation_suite() -> Vec<(ShardVariant, ShardScenario)> {
    vec![
        (
            ShardVariant::BuggyStaleDeadline,
            ShardScenario { variant: ShardVariant::BuggyStaleDeadline, ..base("mut/stale", 2) },
        ),
        (
            ShardVariant::BuggyForgetTombstone,
            ShardScenario {
                variant: ShardVariant::BuggyForgetTombstone,
                max_attempts: 3,
                ..base("mut/tombstone", 2)
            },
        ),
        (
            ShardVariant::BuggyBlindRelease,
            ShardScenario { variant: ShardVariant::BuggyBlindRelease, ..base("mut/release", 2) },
        ),
        (
            ShardVariant::BuggyEvidenceDrop,
            ShardScenario {
                variant: ShardVariant::BuggyEvidenceDrop,
                ttl_ms: 1_000_000,
                clock_ticks: 0,
                initial_corrupt: true,
                check_evidence: true,
                ..base("mut/evidence", 2)
            },
        ),
        (
            ShardVariant::BuggyDivergingResult,
            ShardScenario { variant: ShardVariant::BuggyDivergingResult, ..base("mut/diverge", 2) },
        ),
    ]
}

/// One seeded mutation's checker verdict.
#[derive(Debug, Clone)]
pub struct ShardMutationReport {
    /// Which mutation.
    pub variant: ShardVariant,
    /// The first counterexample schedule, when caught.
    pub counterexample: Option<Violation>,
    /// Schedules explored before the verdict.
    pub schedules: usize,
    /// True iff the mutation produced at least one violation.
    pub caught: bool,
    /// True iff replaying the counterexample schedule on a fresh model
    /// reproduces the violating state (invariant or terminal check
    /// fails again).
    pub replayed: bool,
}

/// Run every seeded mutation and verify each is caught with a
/// replayable counterexample.
#[must_use]
pub fn check_shard_mutations(cfg: &ExploreConfig) -> Vec<ShardMutationReport> {
    shard_mutation_suite()
        .into_iter()
        .map(|(variant, sc)| {
            let model = ShardModel::new(sc);
            let report = explore(&model, cfg);
            let counterexample = report.violations.first().cloned();
            let caught = counterexample.is_some();
            let replayed = counterexample.as_ref().is_some_and(|v| {
                let s = replay(&model, &v.schedule);
                model.invariant(&s).is_err() || model.terminal_check(&s).is_err()
            });
            ShardMutationReport {
                variant,
                counterexample,
                schedules: report.schedules,
                caught,
                replayed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_standard_scenario_is_clean() {
        let mut total = 0usize;
        for r in check_shard_protocol(&ExploreConfig::default()) {
            assert!(r.report.clean(), "{}: {:?}", r.name, r.report.violations.first());
            assert!(r.report.schedules > 0, "{}", r.name);
            total += r.report.schedules;
        }
        assert!(total >= 10_000, "only {total} schedules explored");
    }

    #[test]
    fn every_seeded_mutation_is_caught_and_replays() {
        let reports = check_shard_mutations(&ExploreConfig::default());
        assert!(reports.len() >= 5, "at least five seeded mutations");
        for r in &reports {
            assert!(r.caught, "{}: mutation escaped the checker", r.variant.name());
            assert!(
                r.replayed,
                "{}: counterexample schedule did not reproduce the violation",
                r.variant.name()
            );
        }
    }

    #[test]
    fn stale_deadline_counterexample_names_the_bug() {
        let reports = check_shard_mutations(&ExploreConfig::default());
        let r = reports
            .iter()
            .find(|r| r.variant == ShardVariant::BuggyStaleDeadline)
            .expect("suite includes the stale-deadline mutation");
        let v = r.counterexample.as_ref().expect("caught");
        assert!(v.message.contains("stale clock"), "{}", v.message);
    }

    #[test]
    fn uncontended_worker_always_commits() {
        let sc = standard_shard_scenarios()
            .into_iter()
            .find(|s| s.name == "cell/uncontended")
            .expect("scenario exists");
        let model = ShardModel::new(sc);
        let report = explore(&model, &ExploreConfig::default());
        assert!(report.clean(), "{:?}", report.violations.first());
        // One worker, no clock: the schedule is the deterministic
        // claim → recheck → compute → commit → release path.
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn crashes_do_not_lose_committed_cells() {
        // The precommitted scenario with a crasher: even a SIGKILL at
        // every point never un-commits the cell.
        let sc = ShardScenario {
            crash_budget: 1,
            crashable: vec![true, true],
            ttl_ms: 1_000_000,
            clock_ticks: 0,
            precommitted: true,
            ..base("test/precommitted-crash", 2)
        };
        let report = explore(&ShardModel::new(sc), &ExploreConfig::default());
        assert!(report.clean(), "{:?}", report.violations.first());
    }
}
