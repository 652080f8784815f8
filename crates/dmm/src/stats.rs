//! Small summary-statistics helpers shared by the experiment harnesses.
//!
//! The paper reports 10-run averages (and we additionally report spread,
//! answering its complaint that GPU papers rarely report variance).

/// Summary of a sample of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for n < 2).
    pub stddev: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty sample.
    #[must_use]
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        let stddev = if n < 2 {
            0.0
        } else {
            let var = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        Some(Self { n, mean, min, max, stddev })
    }
}

/// Relative slowdown of the worst-case input vs. the random input, in
/// percent, computed from *throughputs*: `(thr_base − thr_other) / thr_other` is
/// ambiguous, so this helper takes *throughputs* and computes
/// `(thr_random / thr_worst − 1) · 100`, i.e. how much longer the
/// worst-case input takes relative to the random input. This equals the
/// time-based convention `(t_worst − t_random) / t_random · 100` since
/// throughput = N / time.
#[must_use]
pub fn slowdown_percent(throughput_random: f64, throughput_worst: f64) -> f64 {
    (throughput_random / throughput_worst - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn summary_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample stddev of this classic sample is ~2.138.
        assert!((s.stddev - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn slowdown_percent_matches_paper_convention() {
        // Random throughput 2.0 GE/s, worst-case 1.0 GE/s → the worst-case
        // run takes 2× the time → 100% slowdown.
        assert!((slowdown_percent(2.0, 1.0) - 100.0).abs() < 1e-12);
        // Equal throughput → 0%.
        assert!(slowdown_percent(1.5, 1.5).abs() < 1e-12);
        // ~50% peak of Fig. 4: worst takes 1.5× the time.
        assert!((slowdown_percent(1.5, 1.0) - 50.0).abs() < 1e-12);
    }
}
