//! The repository benchmark: four workloads, each run in its own
//! process, measured end to end untraced and layer by layer in a
//! separate traced run. Every layer is measured from outside, by timing
//! calls into its public functions; nothing under `crates/` is changed
//! for the benchmark's sake.
//!
//! Metric names, units, directions and bounds live in the repository's
//! `BENCHMARK.json`; the workloads only produce values by name.

#![forbid(unsafe_code)]

pub mod calib;
pub mod compare;
pub mod loadgen;
pub mod probe;
pub mod report;
pub mod serve;
pub mod sort;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use calib::Calibration;
use report::{peak_rss_mib, Outcome};
use serve::Kind;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Large analytic sorts, closed loop on one thread.
    SortLarge,
    /// The Fig. 4 quick grid on two stealing workers.
    SweepSteal,
    /// The daemon with every request a cache hit.
    ServeHot,
    /// The daemon with every request a cache miss.
    ServeCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SortLarge, Workload::SweepSteal, Workload::ServeHot, Workload::ServeCold];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SortLarge => "sort-large",
            Workload::SweepSteal => "sweep-steal",
            Workload::ServeHot => Kind::Hot.name(),
            Workload::ServeCold => Kind::Cold.name(),
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times, each after a sample of `cal` (when
/// given), dropping each instance before the next starts; returns the
/// median set-up time in (uncalibrated) seconds and the last instance.
///
/// # Errors
///
/// The first set-up failure.
pub fn median_setup<T>(
    mut cal: Option<&mut Calibration>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        if let Some(cal) = cal.as_deref_mut() {
            cal.sample();
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).ok_or("no set-up ran")?;
    Ok((median, last.ok_or("no set-up ran")?))
}

/// A 64-bit key seed for item `k` of seed domain `domain` under run
/// seed `seed` (splitmix64 finalizer): distinct inputs give unrelated
/// seeds, so keys never repeat across items, domains or runs.
#[must_use]
pub fn mix(seed: u64, domain: u64, k: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(domain.rotate_left(32))
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How much worse the traced reading of a headline metric is than the
/// bare reading, in percent of the bare reading.
#[must_use]
pub fn overhead_pct(bare: f64, traced: f64, higher_is_better: bool) -> f64 {
    let worse = if higher_is_better { bare - traced } else { traced - bare };
    100.0 * worse / bare
}

/// The timed, untraced run of `workload` for about `seconds`, with
/// its state under `state`.
///
/// # Errors
///
/// A failure before anything was measured.
pub fn run(workload: Workload, seed: u64, seconds: u64, state: &Path) -> Result<Outcome, String> {
    let mut out = match workload {
        Workload::SortLarge => sort::run(seed, seconds)?,
        Workload::SweepSteal => sweep::run(seed, seconds, state)?,
        Workload::ServeHot => serve::run(Kind::Hot, seed, state)?,
        Workload::ServeCold => serve::run(Kind::Cold, seed, state)?,
    };
    if let Some(mib) = peak_rss_mib() {
        out.set("peak_rss_mib", mib);
    }
    Ok(out)
}

/// The traced run: the shortened form of every workload, bare and
/// traced, yielding every per-layer metric whichever workload was asked
/// for. Journals are written to `out_dir` as `<section>.trace.jsonl`.
///
/// # Errors
///
/// A failure before anything was measured, or an invalid journal.
pub fn run_traced(seed: u64, state: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    sort::traced(seed, out_dir, &mut out)?;
    sweep::traced(seed, &state.join("sweep"), out_dir, &mut out)?;
    serve::traced(Kind::Hot, seed, state, out_dir, &mut out)?;
    serve::traced(Kind::Cold, seed, state, out_dir, &mut out)?;
    Ok(out)
}
