//! Pass 2 (engine) — exhaustive bounded interleaving exploration.
//!
//! A mini-loom: a `Model` describes a finite set of processes as a
//! deterministic transition function over an explicit state, and
//! `explore` enumerates **every** schedule (total order of process
//! steps) up to a bound by depth-first search, checking a safety
//! invariant at every state and a terminal condition at every complete
//! schedule. A state where no process can step but the model is not
//! terminal is reported as a deadlock (hung join).
//!
//! The search is exhaustive rather than sampled: with the supervisor
//! protocol's step counts the full schedule space is ~10⁵ orders, well
//! within a test budget, and exhaustiveness is the point — seeded chaos
//! runs (PR 3) sample this space, the checker covers it.

/// A finite-state concurrent system to explore.
pub(crate) trait Model {
    /// Explicit system state (cloned once per explored branch).
    type State: Clone;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Process ids that can take a step in `s`. An empty answer in a
    /// non-terminal state is a deadlock.
    fn enabled(&self, s: &Self::State) -> Vec<usize>;

    /// Advance process `pid` by one atomic step.
    fn step(&self, s: &mut Self::State, pid: usize);

    /// True when the schedule is complete (all processes done).
    fn is_terminal(&self, s: &Self::State) -> bool;

    /// Safety invariant, checked after every step. `Err` describes the
    /// violation.
    ///
    /// # Errors
    ///
    /// Implementations return the violation message.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// Checked once per complete schedule (liveness-style conditions:
    /// nothing lost, everything committed).
    ///
    /// # Errors
    ///
    /// Implementations return the violation message.
    fn terminal_check(&self, s: &Self::State) -> Result<(), String>;
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Stop after this many complete schedules (the exploration is
    /// reported as truncated).
    max_schedules: usize,
    /// Abort any single schedule longer than this many steps (guards
    /// against models with unbounded loops).
    pub(crate) max_depth: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self { max_schedules: 2_000_000, max_depth: 256 }
    }
}

/// One found violation, with the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The process-id sequence that drives the system into the
    /// violation.
    pub schedule: Vec<usize>,
    /// What was violated.
    pub message: String,
}

/// The result of exploring one model.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Complete schedules explored.
    pub schedules: usize,
    /// States visited (steps taken, counted with multiplicity).
    pub states: usize,
    /// Length of the longest schedule.
    pub max_depth_seen: usize,
    /// Violations found (empty = the protocol holds on every explored
    /// schedule).
    pub violations: Vec<Violation>,
    /// True if `max_schedules` cut the search short.
    pub truncated: bool,
}

impl ExploreReport {
    /// True iff no violation was found and the search was complete.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// Exhaustively explore every schedule of `model` up to `cfg`'s bounds.
pub(crate) fn explore<M: Model>(model: &M, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut schedule = Vec::new();
    let state = model.initial();
    if let Err(message) = model.invariant(&state) {
        report.violations.push(Violation { schedule: Vec::new(), message });
        return report;
    }
    dfs(model, cfg, state, &mut schedule, &mut report);
    report
}

fn dfs<M: Model>(
    model: &M,
    cfg: &ExploreConfig,
    state: M::State,
    schedule: &mut Vec<usize>,
    report: &mut ExploreReport,
) {
    if report.schedules >= cfg.max_schedules {
        report.truncated = true;
        return;
    }
    if model.is_terminal(&state) {
        report.schedules += 1;
        report.max_depth_seen = report.max_depth_seen.max(schedule.len());
        if let Err(message) = model.terminal_check(&state) {
            report.violations.push(Violation { schedule: schedule.clone(), message });
        }
        return;
    }
    if schedule.len() >= cfg.max_depth {
        report.violations.push(Violation {
            schedule: schedule.clone(),
            message: format!("schedule exceeded max depth {} without terminating", cfg.max_depth),
        });
        return;
    }
    let enabled = model.enabled(&state);
    if enabled.is_empty() {
        report.violations.push(Violation {
            schedule: schedule.clone(),
            message: "deadlock: no process can step but the system is not terminal (hung join)"
                .to_string(),
        });
        return;
    }
    for pid in enabled {
        let mut next = state.clone();
        model.step(&mut next, pid);
        report.states += 1;
        schedule.push(pid);
        if let Err(message) = model.invariant(&next) {
            report.violations.push(Violation { schedule: schedule.clone(), message });
        } else {
            dfs(model, cfg, next, schedule, report);
        }
        schedule.pop();
        if report.truncated {
            return;
        }
    }
}

/// Replay `schedule` on a fresh copy of the model, returning the final
/// state (for counterexample inspection and conformance replay).
pub(crate) fn replay<M: Model>(model: &M, schedule: &[usize]) -> M::State {
    let mut state = model.initial();
    for &pid in schedule {
        model.step(&mut state, pid);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two processes, each incrementing a shared counter `k` times: every
    /// interleaving must end at `2k`, and there are C(2k, k) schedules.
    struct Counter {
        k: usize,
    }

    impl Model for Counter {
        type State = (usize, usize, usize); // (done_a, done_b, total)

        fn initial(&self) -> Self::State {
            (0, 0, 0)
        }

        fn enabled(&self, s: &Self::State) -> Vec<usize> {
            let mut v = Vec::new();
            if s.0 < self.k {
                v.push(0);
            }
            if s.1 < self.k {
                v.push(1);
            }
            v
        }

        fn step(&self, s: &mut Self::State, pid: usize) {
            if pid == 0 {
                s.0 += 1;
            } else {
                s.1 += 1;
            }
            s.2 += 1;
        }

        fn is_terminal(&self, s: &Self::State) -> bool {
            s.0 == self.k && s.1 == self.k
        }

        fn invariant(&self, s: &Self::State) -> Result<(), String> {
            (s.2 == s.0 + s.1).then_some(()).ok_or_else(|| "lost increment".into())
        }

        fn terminal_check(&self, s: &Self::State) -> Result<(), String> {
            (s.2 == 2 * self.k).then_some(()).ok_or_else(|| format!("total {} != 2k", s.2))
        }
    }

    #[test]
    fn counts_every_interleaving() {
        // C(8, 4) = 70 schedules of 2×4 steps.
        let r = explore(&Counter { k: 4 }, &ExploreConfig::default());
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.schedules, 70);
        assert_eq!(r.max_depth_seen, 8);
    }

    #[test]
    fn truncation_is_reported() {
        let r = explore(&Counter { k: 6 }, &ExploreConfig { max_schedules: 10, max_depth: 64 });
        assert!(r.truncated);
        assert!(!r.clean());
        assert_eq!(r.schedules, 10);
    }

    /// A model that deadlocks when process 1 runs before process 0.
    struct Deadlocky;

    impl Model for Deadlocky {
        type State = (bool, bool);

        fn initial(&self) -> Self::State {
            (false, false)
        }

        fn enabled(&self, s: &Self::State) -> Vec<usize> {
            let mut v = Vec::new();
            if !s.0 {
                v.push(0);
            }
            // Process 1 only progresses after process 0 — unless it goes
            // first, in which case it wedges the system.
            if !s.1 && s.0 {
                v.push(1);
            }
            v
        }

        fn step(&self, s: &mut Self::State, pid: usize) {
            if pid == 0 {
                s.0 = true;
            } else {
                s.1 = true;
            }
        }

        fn is_terminal(&self, s: &Self::State) -> bool {
            s.0 && s.1
        }

        fn invariant(&self, _s: &Self::State) -> Result<(), String> {
            Ok(())
        }

        fn terminal_check(&self, _s: &Self::State) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn replay_reaches_the_recorded_state() {
        let m = Counter { k: 2 };
        let s = replay(&m, &[0, 1, 1, 0]);
        assert_eq!(s, (2, 2, 4));
    }

    #[test]
    fn single_order_model_has_one_schedule() {
        let r = explore(&Deadlocky, &ExploreConfig::default());
        // Only 0→1 completes; there is no schedule where 1 goes first
        // (it is simply not enabled), so no deadlock either.
        assert_eq!(r.schedules, 1);
        assert!(r.clean(), "{:?}", r.violations);
    }
}
