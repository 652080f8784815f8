//! Pass 2 (model) — the sweep supervisor's concurrency protocol.
//!
//! Models the protocol of `wcms-bench`'s `run_with_budget` /
//! `supervise_cell` / `parallel_map` (PR 3) at the granularity of its
//! real atomic operations: per cell, a worker thread polls a
//! [`wcms_error::CancelToken`], computes, and sends its result over a
//! channel; the supervisor waits with a budget, fires the token on
//! expiry, gives one grace period, drops any late result, and commits
//! exactly one durable outcome per cell (possibly after respawning a
//! fresh attempt with a **fresh** token). The checked properties:
//!
//! * **no double-commit** — each cell's durable record is written once;
//! * **no lost result** — every cell commits, an `Ok` that arrives
//!   before the deadline is committed as `Done`, and a `Timeout` commit
//!   only ever happens after the deadline actually fired;
//! * **no hung join** — every schedule terminates (the explorer reports
//!   any state where no process can step as a deadlock);
//! * **token hygiene** — a worker never observes a cancelled token
//!   unless *its own attempt's* deadline fired (fresh token per
//!   attempt), and late results after the deadline are dropped, never
//!   committed.
//!
//! Every complete schedule's token operations are additionally
//! **replayed against the real `CancelToken`** (via the `model-check`
//! instrumentation in `wcms-error`), proving the model's token
//! semantics and the implementation's observable behaviour agree on
//! every explored interleaving.
//!
//! Deliberately broken protocol variants (`ProtocolVariant`) exist so
//! tests can demonstrate the checker detects the bug classes it claims
//! to: committing a late result, and reusing a fired token across
//! attempts.

use crate::interleave::{explore, ExploreConfig, ExploreReport, Model};
use wcms_error::{mc, CancelToken};

/// What a worker sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    /// A measurement.
    Ok,
    /// The worker observed its token and bailed out cooperatively.
    Cancelled,
}

/// The durable per-cell outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Commit {
    /// A result arrived within budget.
    Done,
    /// Replayed from a valid checkpoint.
    FromCheckpoint,
    /// The budget (and any respawns) ran out.
    Timeout,
    /// A cancellation error surfaced as the cell's result.
    Failed,
}

/// Worker behaviours (each step is one atomic action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerKind {
    /// Polls the token before and after computing, sends `Ok` or
    /// `Cancelled` — the contract `run_with_budget` documents.
    Cooperative,
    /// Never polls; computes and sends `Ok` whenever it gets there.
    /// The supervisor must terminate regardless (abandoning it).
    Uncooperative,
    /// Computes and exits without ever sending (a forced-timeout
    /// attempt used to drive the respawn path).
    Silent,
}

impl WorkerKind {
    /// Script length in atomic steps (the maximum pc).
    fn len(self) -> u8 {
        match self {
            WorkerKind::Cooperative => 4,   // poll, compute, poll, send
            WorkerKind::Uncooperative => 3, // compute, compute, send
            WorkerKind::Silent => 2,        // compute, compute
        }
    }
}

/// The cell's checkpoint situation at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Checkpoint {
    /// No checkpoint: spawn the first attempt immediately.
    None,
    /// A valid record: replay it, never spawn a worker.
    Valid,
    /// A corrupt record: quarantine it, then run the cell fresh.
    Corrupt,
}

/// Correct protocol or a deliberately seeded bug (for checker tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProtocolVariant {
    /// The protocol as implemented in `wcms-bench`.
    Correct,
    /// Bug: a late `Ok` draining during the grace period is committed
    /// as `Done` (violates the budget contract; double-commits when a
    /// timeout was already recorded downstream).
    BuggyLateCommit,
    /// Bug: a respawned attempt reuses the previous attempt's fired
    /// token instead of a fresh one.
    BuggyTokenReuse,
}

/// One cell of a scenario.
#[derive(Debug, Clone)]
pub(crate) struct CellSpec {
    /// Checkpoint situation.
    pub(crate) checkpoint: Checkpoint,
    /// Worker kind per attempt (respawn walks this list).
    pub(crate) attempts: Vec<WorkerKind>,
}

/// A named protocol configuration to explore exhaustively.
#[derive(Debug, Clone)]
pub(crate) struct Scenario {
    /// Display name (`cell/cooperative`, `pair/mixed`, …).
    pub(crate) name: &'static str,
    /// The cells running concurrently (as under `parallel_map`).
    pub(crate) cells: Vec<CellSpec>,
    /// Protocol variant under test.
    pub(crate) variant: ProtocolVariant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SupPc {
    Load,
    Waiting,
    Grace,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Cancel,
    Poll(bool),
}

#[derive(Debug, Clone, Copy)]
struct TraceOp {
    cell: u8,
    attempt: u8,
    op: Op,
}

#[derive(Debug, Clone, Copy)]
struct WorkerState {
    spawned: bool,
    pc: u8,
}

#[derive(Debug, Clone)]
struct CellState {
    token: bool,
    timeout_fired: bool,
    channel: Option<Msg>,
    current_attempt: u8,
    workers: Vec<WorkerState>,
    sup: SupPc,
    commit: Option<Commit>,
    commit_writes: u8,
    leaked: bool,
    quarantined: bool,
}

/// Explorer state for [`SupervisorModel`].
#[derive(Debug, Clone)]
struct SupState {
    cells: Vec<CellState>,
    trace: Vec<TraceOp>,
    violation: Option<String>,
}

/// The supervisor protocol as an explorable [`Model`].
///
/// Process ids: cell `i` owns `i·(1 + A)` (its supervisor) and
/// `i·(1 + A) + 1 + k` (its attempt-`k` worker), `A` = max attempts.
#[derive(Debug, Clone)]
struct SupervisorModel {
    scenario: Scenario,
    slots: usize, // 1 + max attempts, the per-cell pid stride
}

impl SupervisorModel {
    /// Build the model for one scenario.
    #[must_use]
    pub(crate) fn new(scenario: Scenario) -> Self {
        let slots = 1 + scenario.cells.iter().map(|c| c.attempts.len()).max().unwrap_or(1);
        Self { scenario, slots }
    }

    fn kind(&self, cell: usize, attempt: usize) -> WorkerKind {
        self.scenario.cells[cell].attempts[attempt]
    }

    fn commit(s: &mut SupState, cell: usize, kind: Commit) {
        let c = &mut s.cells[cell];
        c.commit_writes += 1;
        if c.commit_writes > 1 {
            s.violation =
                Some(format!("cell {cell}: double commit ({:?} over {:?})", kind, c.commit));
        } else {
            c.commit = Some(kind);
        }
    }

    /// After a timed-out attempt finished its grace handling: respawn
    /// the next attempt or commit the timeout.
    fn after_timeout(&self, s: &mut SupState, cell: usize) {
        let attempts = self.scenario.cells[cell].attempts.len();
        let c = &mut s.cells[cell];
        if usize::from(c.current_attempt) + 1 < attempts {
            c.current_attempt += 1;
            // A fresh attempt gets a fresh token and a fresh channel —
            // unless the token-reuse bug variant is active.
            if self.scenario.variant != ProtocolVariant::BuggyTokenReuse {
                c.token = false;
            }
            c.timeout_fired = false;
            c.channel = None;
            c.workers[usize::from(c.current_attempt)].spawned = true;
            c.sup = SupPc::Waiting;
        } else {
            c.sup = SupPc::Done;
            Self::commit(s, cell, Commit::Timeout);
        }
    }

    fn step_supervisor(&self, s: &mut SupState, cell: usize) {
        match s.cells[cell].sup {
            SupPc::Load => match self.scenario.cells[cell].checkpoint {
                Checkpoint::None => unreachable!("Load pc only with a checkpoint"),
                Checkpoint::Valid => {
                    s.cells[cell].sup = SupPc::Done;
                    Self::commit(s, cell, Commit::FromCheckpoint);
                }
                Checkpoint::Corrupt => {
                    let c = &mut s.cells[cell];
                    c.quarantined = true;
                    c.workers[0].spawned = true;
                    c.sup = SupPc::Waiting;
                }
            },
            SupPc::Waiting => {
                if let Some(msg) = s.cells[cell].channel.take() {
                    // recv within budget: commit the result.
                    if msg == Msg::Cancelled && !s.cells[cell].timeout_fired {
                        s.violation = Some(format!(
                            "cell {cell}: worker reported cancellation but this attempt's \
                             deadline never fired (stale token leaked across attempts)"
                        ));
                    }
                    s.cells[cell].sup = SupPc::Done;
                    Self::commit(
                        s,
                        cell,
                        if msg == Msg::Ok { Commit::Done } else { Commit::Failed },
                    );
                } else {
                    // Budget expiry: fire the token, enter grace.
                    let c = &mut s.cells[cell];
                    c.token = true;
                    c.timeout_fired = true;
                    c.sup = SupPc::Grace;
                    s.trace.push(TraceOp {
                        cell: cell as u8,
                        attempt: s.cells[cell].current_attempt,
                        op: Op::Cancel,
                    });
                }
            }
            SupPc::Grace => {
                if let Some(msg) = s.cells[cell].channel.take() {
                    // A late result during grace: dropped — the budget
                    // is the budget (except under the seeded bug).
                    if self.scenario.variant == ProtocolVariant::BuggyLateCommit && msg == Msg::Ok {
                        s.cells[cell].sup = SupPc::Done;
                        Self::commit(s, cell, Commit::Done);
                        return;
                    }
                    self.after_timeout(s, cell);
                } else {
                    // Grace expired without a word: abandon the worker.
                    s.cells[cell].leaked = true;
                    self.after_timeout(s, cell);
                }
            }
            SupPc::Done => unreachable!("done supervisor is never enabled"),
        }
    }

    fn step_worker(&self, s: &mut SupState, cell: usize, attempt: usize) {
        let kind = self.kind(cell, attempt);
        let pc = s.cells[cell].workers[attempt].pc;
        let mut next = pc + 1;
        match (kind, pc) {
            (WorkerKind::Cooperative, 0 | 2) => {
                let observed = s.cells[cell].token;
                s.trace.push(TraceOp {
                    cell: cell as u8,
                    attempt: attempt as u8,
                    op: Op::Poll(observed),
                });
                if observed {
                    if !s.cells[cell].timeout_fired
                        || usize::from(s.cells[cell].current_attempt) != attempt
                    {
                        s.violation = Some(format!(
                            "cell {cell} attempt {attempt}: observed a cancelled token its \
                             own deadline never fired"
                        ));
                    }
                    // Bail out: jump to the send step with a Cancelled
                    // message (modelled as finishing the script there).
                    if usize::from(s.cells[cell].current_attempt) == attempt {
                        s.cells[cell].channel = Some(Msg::Cancelled);
                    }
                    next = kind.len(); // done
                }
            }
            (WorkerKind::Cooperative, 3) | (WorkerKind::Uncooperative, 2) => {
                // Send Ok — to a receiver that may be long gone; a stale
                // attempt's channel no longer exists, so the send is
                // discarded exactly like mpsc's `let _ = tx.send(..)`.
                if usize::from(s.cells[cell].current_attempt) == attempt {
                    s.cells[cell].channel = Some(Msg::Ok);
                }
            }
            // Compute steps touch nothing shared.
            (WorkerKind::Cooperative, 1)
            | (WorkerKind::Uncooperative, 0 | 1)
            | (WorkerKind::Silent, 0 | 1) => {}
            (k, pc) => unreachable!("worker kind {k:?} has no step {pc}"),
        }
        s.cells[cell].workers[attempt].pc = next;
    }
}

impl Model for SupervisorModel {
    type State = SupState;

    fn initial(&self) -> SupState {
        let cells = self
            .scenario
            .cells
            .iter()
            .map(|spec| {
                let workers = spec
                    .attempts
                    .iter()
                    .map(|_| WorkerState { spawned: false, pc: 0 })
                    .collect::<Vec<_>>();
                let mut c = CellState {
                    token: false,
                    timeout_fired: false,
                    channel: None,
                    current_attempt: 0,
                    workers,
                    sup: if spec.checkpoint == Checkpoint::None {
                        SupPc::Waiting
                    } else {
                        SupPc::Load
                    },
                    commit: None,
                    commit_writes: 0,
                    leaked: false,
                    quarantined: false,
                };
                if spec.checkpoint == Checkpoint::None {
                    c.workers[0].spawned = true;
                }
                c
            })
            .collect();
        SupState { cells, trace: Vec::new(), violation: None }
    }

    fn enabled(&self, s: &SupState) -> Vec<usize> {
        let mut pids = Vec::new();
        for (i, c) in s.cells.iter().enumerate() {
            let base = i * self.slots;
            if c.sup != SupPc::Done {
                pids.push(base);
            }
            for (k, w) in c.workers.iter().enumerate() {
                if w.spawned && w.pc < self.kind(i, k).len() {
                    pids.push(base + 1 + k);
                }
            }
        }
        pids
    }

    fn step(&self, s: &mut SupState, pid: usize) {
        let (cell, slot) = (pid / self.slots, pid % self.slots);
        if slot == 0 {
            self.step_supervisor(s, cell);
        } else {
            self.step_worker(s, cell, slot - 1);
        }
    }

    fn is_terminal(&self, s: &SupState) -> bool {
        s.cells.iter().enumerate().all(|(i, c)| {
            c.sup == SupPc::Done
                && c.workers
                    .iter()
                    .enumerate()
                    .all(|(k, w)| !w.spawned || w.pc >= self.kind(i, k).len())
        })
    }

    fn invariant(&self, s: &SupState) -> Result<(), String> {
        if let Some(v) = &s.violation {
            return Err(v.clone());
        }
        for (i, c) in s.cells.iter().enumerate() {
            if c.commit == Some(Commit::Done) && c.timeout_fired {
                return Err(format!(
                    "cell {i}: a result was committed as Done after its deadline fired \
                     (late results must be dropped)"
                ));
            }
        }
        Ok(())
    }

    fn terminal_check(&self, s: &SupState) -> Result<(), String> {
        for (i, c) in s.cells.iter().enumerate() {
            match (c.commit_writes, c.commit) {
                (1, Some(_)) => {}
                (0, _) => return Err(format!("cell {i}: lost result — nothing was committed")),
                _ => return Err(format!("cell {i}: committed {} times", c.commit_writes)),
            }
            if c.commit == Some(Commit::Timeout) && !c.timeout_fired && c.workers.len() == 1 {
                return Err(format!("cell {i}: Timeout committed but no deadline fired"));
            }
        }
        replay_token_trace(&s.trace)
    }
}

/// Replay a schedule's token operations against the **real**
/// [`CancelToken`], one fresh token per `(cell, attempt)`, and check
/// both the observed values and the `model-check` instrumentation log
/// match the model's trace.
fn replay_token_trace(trace: &[TraceOp]) -> Result<(), String> {
    let mut keys: Vec<(u8, u8)> = Vec::new();
    for t in trace {
        if !keys.contains(&(t.cell, t.attempt)) {
            keys.push((t.cell, t.attempt));
        }
    }
    for (cell, attempt) in keys {
        let label = format!("cell-{cell}/attempt-{attempt}");
        let token = CancelToken::new(&label);
        let mut expected = Vec::new();
        mc::arm();
        for t in trace.iter().filter(|t| t.cell == cell && t.attempt == attempt) {
            match t.op {
                Op::Cancel => {
                    token.cancel();
                    expected.push(mc::TokenOp::Cancel { label: label.clone() });
                }
                Op::Poll(observed) => {
                    let got = token.is_cancelled();
                    expected.push(mc::TokenOp::Poll { label: label.clone(), observed: got });
                    if got != observed {
                        let _ = mc::disarm();
                        return Err(format!(
                            "{label}: real CancelToken observed {got}, model predicted {observed}"
                        ));
                    }
                }
            }
        }
        let logged = mc::disarm();
        if logged != expected {
            return Err(format!(
                "{label}: instrumentation log {logged:?} diverges from replayed ops"
            ));
        }
    }
    Ok(())
}

fn cell(checkpoint: Checkpoint, attempts: &[WorkerKind]) -> CellSpec {
    CellSpec { checkpoint, attempts: attempts.to_vec() }
}

/// The standard scenario suite the `--model-check` pass explores.
#[must_use]
fn standard_scenarios() -> Vec<Scenario> {
    use WorkerKind::{Cooperative, Silent, Uncooperative};
    vec![
        Scenario {
            name: "cell/cooperative",
            cells: vec![cell(Checkpoint::None, &[Cooperative])],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "cell/uncooperative",
            cells: vec![cell(Checkpoint::None, &[Uncooperative])],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "cell/checkpoint-valid",
            cells: vec![cell(Checkpoint::Valid, &[Cooperative])],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "cell/checkpoint-corrupt",
            cells: vec![cell(Checkpoint::Corrupt, &[Cooperative])],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "cell/retry-fresh-token",
            cells: vec![cell(Checkpoint::None, &[Silent, Cooperative])],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "pair/cooperative",
            cells: vec![
                cell(Checkpoint::None, &[Cooperative]),
                cell(Checkpoint::None, &[Cooperative]),
            ],
            variant: ProtocolVariant::Correct,
        },
        Scenario {
            name: "pair/mixed",
            cells: vec![
                cell(Checkpoint::None, &[Cooperative]),
                cell(Checkpoint::None, &[Uncooperative]),
            ],
            variant: ProtocolVariant::Correct,
        },
        // Quarantine concurrent with an abandoned (leaking) cell. The
        // retry ladder is exhaustively covered single-cell above; pairing
        // it with another cell multiplies the schedule space past any
        // useful bound, so the paired scenarios keep to single attempts.
        Scenario {
            name: "pair/corrupt+silent",
            cells: vec![
                cell(Checkpoint::Corrupt, &[Cooperative]),
                cell(Checkpoint::None, &[Silent]),
            ],
            variant: ProtocolVariant::Correct,
        },
    ]
}

/// One scenario's exploration outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: &'static str,
    /// The exploration result.
    pub report: ExploreReport,
}

/// Explore every standard scenario exhaustively; returns per-scenario
/// reports (sum the schedule counts for the grand total).
#[must_use]
pub fn check_supervisor_protocol(cfg: &ExploreConfig) -> Vec<ScenarioReport> {
    standard_scenarios()
        .into_iter()
        .map(|sc| {
            let name = sc.name;
            let report = explore(&SupervisorModel::new(sc), cfg);
            ScenarioReport { name, report }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sc: Scenario) -> ExploreReport {
        explore(&SupervisorModel::new(sc), &ExploreConfig::default())
    }

    #[test]
    fn every_standard_scenario_is_clean() {
        let mut total = 0usize;
        for r in check_supervisor_protocol(&ExploreConfig::default()) {
            assert!(r.report.clean(), "{}: {:?}", r.name, r.report.violations.first());
            assert!(r.report.schedules > 0, "{}", r.name);
            total += r.report.schedules;
        }
        assert!(total >= 10_000, "only {total} schedules explored");
    }

    #[test]
    fn late_commit_bug_is_caught() {
        let r = run(Scenario {
            name: "bug/late-commit",
            cells: vec![cell(Checkpoint::None, &[WorkerKind::Uncooperative])],
            variant: ProtocolVariant::BuggyLateCommit,
        });
        assert!(
            r.violations.iter().any(|v| v.message.contains("after its deadline fired")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn token_reuse_bug_is_caught() {
        let r = run(Scenario {
            name: "bug/token-reuse",
            cells: vec![cell(Checkpoint::None, &[WorkerKind::Silent, WorkerKind::Cooperative])],
            variant: ProtocolVariant::BuggyTokenReuse,
        });
        assert!(
            r.violations.iter().any(|v| v.message.contains("never fired")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn counterexample_schedules_replay() {
        let r = run(Scenario {
            name: "bug/late-commit",
            cells: vec![cell(Checkpoint::None, &[WorkerKind::Uncooperative])],
            variant: ProtocolVariant::BuggyLateCommit,
        });
        let v = r.violations.first().expect("bug variant must produce a violation");
        let m = SupervisorModel::new(Scenario {
            name: "bug/late-commit",
            cells: vec![cell(Checkpoint::None, &[WorkerKind::Uncooperative])],
            variant: ProtocolVariant::BuggyLateCommit,
        });
        let s = crate::interleave::replay(&m, &v.schedule);
        assert!(m.invariant(&s).is_err(), "replayed schedule must reproduce the violation");
    }
}
