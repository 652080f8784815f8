//! Machine-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent for seconds to minutes at a time, invisibly from inside (no
//! steal time is reported). A fixed kernel owned by the benchmark — a
//! copy and `sort_unstable` of 2¹⁹ pseudo-random keys — is timed before
//! every measured operation, and the operation's time is scaled by
//! `NOMINAL_MS / median kernel time` over the samples around it: it is
//! reported as it would read on a machine running the kernel in
//! [`NOMINAL_MS`]. Drift slows the kernel and the operations alike and
//! cancels; a change to the repository's code moves only the
//! operations. No repository code runs in the kernel, so no change can
//! move it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the reference machine (2 vCPUs of a Xeon at
/// 2.1 GHz, in a quiet period), milliseconds.
pub const NOMINAL_MS: f64 = 10.0;

/// Keys the kernel sorts.
const KEYS: u32 = 1 << 19;

/// The kernel and every time it took during one run.
pub struct Calibration {
    keys: Vec<u32>,
    threads: usize,
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// A calibration that runs the kernel on `threads` threads at once
    /// (each sorting its own copy): two threads gauge both cores, for
    /// workloads that use both.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let keys = (0..KEYS).map(|i| (crate::mix(0, 0, u64::from(i)) >> 32) as u32).collect();
        Calibration { keys, threads: threads.max(1), samples_ms: Vec::new() }
    }

    fn run_once(&self) -> f64 {
        let t0 = Instant::now();
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        black_box(&keys);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Time the kernel once more (the mean over its threads); returns
    /// the sample's index.
    pub fn sample(&mut self) -> usize {
        let ms = if self.threads == 1 {
            self.run_once()
        } else {
            let times: Vec<f64> = std::thread::scope(|s| {
                let handles: Vec<_> =
                    (0..self.threads).map(|_| s.spawn(|| self.run_once())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("calibration thread panicked"))
                    .collect()
            });
            times.iter().sum::<f64>() / times.len() as f64
        };
        self.samples_ms.push(ms);
        self.samples_ms.len() - 1
    }

    /// The median kernel time so far, milliseconds ([`NOMINAL_MS`]
    /// before any sample).
    #[must_use]
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms).unwrap_or(NOMINAL_MS)
    }

    /// The factor that turns a time measured in this run into
    /// nominal-machine time (divide rates by it), from every sample.
    #[must_use]
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / self.kernel_ms()
    }

    /// As [`Calibration::scale`], from only the samples within `radius`
    /// of sample `index`: for the operation timed right after that
    /// sample, so a slow stretch of a few seconds is scaled by kernel
    /// runs from the same stretch.
    #[must_use]
    pub fn scale_near(&self, index: usize, radius: usize) -> f64 {
        let lo = index.saturating_sub(radius);
        let hi = (index + radius + 1).min(self.samples_ms.len());
        median(&self.samples_ms[lo.min(hi)..hi]).map_or(1.0, |ms| NOMINAL_MS / ms)
    }
}
