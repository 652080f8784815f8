//! `compare`: judge a change's runs against its parent's runs, metric by
//! metric and workload by workload.
//!
//! The rule (choosing-metrics, sections 6–8):
//! - at least [`MIN_PAIRS`] runs per side, paired in file order (run
//!   them alternating which side goes first);
//! - a gain needs the change to win at least nine pairs in ten (ties
//!   count for neither) and the medians to differ by more than the
//!   parent's interquartile range;
//! - a regression is a change median worse than the parent median by
//!   more than the metric's bound;
//! - when either side's spread (interquartile range over median) is
//!   wider than the bound the metric is unresolved, unless every change
//!   run reads better than every parent run;
//! - the failed fraction must not rise, and a gain does not count if it
//!   did.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use wcms_obs::json::{parse, Value};

use crate::report::{Catalogue, MetricSpec};
use crate::stats::{median, quartiles};

/// Runs each side needs before anything is judged.
pub const MIN_PAIRS: usize = 10;

/// The judgement on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule above.
    Gain,
    /// Worse than the bound allows.
    Regression,
    /// Within the bound, no gain shown.
    Unchanged,
    /// Run-to-run spread wider than the bound.
    Unresolved,
    /// Fewer than [`MIN_PAIRS`] runs on a side.
    Insufficient,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Insufficient => "insufficient",
        })
    }
}

/// One untraced run read back from a results log.
#[derive(Debug, Clone, Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Untraced runs of a results log, by workload, in file order.
fn load(path: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = |e: String| format!("{}:{}: {e}", path.display(), i + 1);
        let v = parse(line).map_err(at)?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or_else(|| at("no workload".into()))?;
        let result = v.get("result").ok_or_else(|| at("no result".into()))?;
        let count =
            |k: &str| result.get(k).and_then(Value::as_u64).ok_or_else(|| at(format!("no {k}")));
        let mut run =
            Run { attempted: count("attempted")?, failed: count("failed")?, ..Run::default() };
        if let Some(Value::Obj(members)) = result.get("metrics") {
            for (name, m) in members {
                if let Some(x) = m.get("value").and_then(Value::as_f64) {
                    run.metrics.insert(name.clone(), x);
                }
            }
        }
        by_workload.entry(workload.to_string()).or_default().push(run);
    }
    Ok(by_workload)
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Self> {
        let (q1, q3) = quartiles(values)?;
        Some(Side { median: median(values)?, q1, q3 })
    }

    /// Interquartile range over the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Judge one metric; returns the verdict and the change's wins.
#[must_use]
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if spec.higher_is_better { c > p } else { c < p };
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let (Some(p), Some(c)) = (Side::of(parent), Side::of(change)) else {
        return (Verdict::Insufficient, wins);
    };
    if pairs < MIN_PAIRS {
        return (Verdict::Insufficient, wins);
    }
    let bound = spec.bound.unwrap_or(0.0);
    let every_change_better = change.iter().all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let worse_by = if spec.higher_is_better { p.median - c.median } else { c.median - p.median }
        / p.median.abs();
    let verdict = if p.spread().max(c.spread()) > bound && !every_change_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Gain
    } else {
        Verdict::Unchanged
    };
    (verdict, wins)
}

fn failed_frac(runs: &[Run]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    runs.iter().map(|r| r.failed).sum::<u64>() as f64 / attempted.max(1) as f64
}

/// Compare two results logs and print one row per (workload, metric).
/// Returns whether any row is a regression.
///
/// # Errors
///
/// A log that cannot be read or parsed.
pub fn compare(catalogue: &Catalogue, parent: &Path, change: &Path) -> Result<bool, String> {
    let (parent, change) = (load(parent)?, load(change)?);
    let mut regression = false;
    println!(
        "{:<12} {:<18} {:>28} {:>28} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let fmt_side = |s: Option<Side>| {
        s.map_or("-".to_string(), |s| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3))
    };
    for workload in &catalogue.workloads {
        let none = Vec::new();
        let p_runs = parent.get(workload).unwrap_or(&none);
        let c_runs = change.get(workload).unwrap_or(&none);
        let failures_rose = failed_frac(c_runs) > failed_frac(p_runs);
        for spec in &catalogue.end_to_end {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(&spec.name).copied()).collect()
            };
            let (pv, cv) = (values(p_runs), values(c_runs));
            let (mut verdict, wins) = judge(spec, &pv, &cv);
            if verdict == Verdict::Gain && failures_rose {
                verdict = Verdict::Unchanged;
            }
            regression |= verdict == Verdict::Regression;
            println!(
                "{workload:<12} {:<18} {:>28} {:>28} {:>6}  {verdict}",
                spec.name,
                fmt_side(Side::of(&pv)),
                fmt_side(Side::of(&cv)),
                format!("{wins}/{}", pv.len().min(cv.len())),
            );
        }
        let verdict = if p_runs.len().min(c_runs.len()) < MIN_PAIRS {
            Verdict::Insufficient
        } else if failures_rose {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        };
        regression |= verdict == Verdict::Regression;
        println!(
            "{workload:<12} {:<18} {:>28} {:>28} {:>6}  {verdict}",
            "failed_frac",
            format!("{:.6}", failed_frac(p_runs)),
            format!("{:.6}", failed_frac(c_runs)),
            "-",
        );
    }
    Ok(regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better: higher,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&spec(true), &parent, &same).0, Verdict::Unchanged);
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&spec(true), &parent, &faster), (Verdict::Gain, 10));
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&spec(true), &parent, &slower).0, Verdict::Regression);
        // Lower is better: the same slowdown is a gain for a latency.
        assert_eq!(judge(&spec(false), &parent, &slower).0, Verdict::Gain);
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(judge(&spec(true), &parent, &noisy).0, Verdict::Unresolved);
        assert_eq!(judge(&spec(true), &parent[..9], &faster[..9]).0, Verdict::Insufficient);
    }
}
