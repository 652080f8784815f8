//! Named measurement series and their CSV / markdown rendering.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::experiment::Measurement;

/// A labelled series of measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"Thrust E=15 b=512 worst-case"`.
    pub(crate) label: String,
    /// Measurements in increasing `N`.
    pub(crate) points: Vec<Measurement>,
}

/// Render series as long-form CSV: `series,n,value`, one row per point.
/// Long form because different `(E, b)` tunings have incompatible size
/// grids (`N = bE·2^m` for each) — exactly why the paper's figures plot
/// each configuration at its own x positions.
#[must_use]
pub fn to_csv<F: Fn(&Measurement) -> f64 + Copy>(series: &[Series], f: F) -> String {
    let mut out = String::from("series,n,value\n");
    for s in series {
        for p in &s.points {
            let _ = writeln!(out, "{},{},{:.6}", s.label, p.n, f(p));
        }
    }
    out
}

/// Render series as one aligned markdown table per series.
#[must_use]
pub(crate) fn to_markdown<F: Fn(&Measurement) -> f64 + Copy>(
    series: &[Series],
    f: F,
    unit: &str,
) -> String {
    let mut out = String::new();
    for s in series {
        let _ = writeln!(out, "**{}**\n", s.label);
        let _ = writeln!(out, "| N | value ({unit}) |");
        let _ = writeln!(out, "|---|---|");
        for p in &s.points {
            let _ = writeln!(out, "| {} | {:.3} |", p.n, f(p));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_dmm::stats::Summary;

    fn meas(n: usize, thr: f64) -> Measurement {
        Measurement {
            n,
            throughput: thr,
            ms: n as f64 / thr * 1e3,
            throughput_spread: Summary::of(&[thr]).unwrap(),
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: 0.0,
            ms_per_element: 1.0 / thr * 1e3,
        }
    }

    fn series(label: &str, thrs: &[f64]) -> Series {
        Series {
            label: label.into(),
            points: thrs.iter().enumerate().map(|(i, &t)| meas(100 << i, t)).collect(),
        }
    }

    #[test]
    fn csv_shape() {
        let s = [series("a", &[1e6, 2e6]), series("b", &[3e6, 4e6])];
        let csv = to_csv(&s, |m| m.throughput / 1e6);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,n,value");
        assert_eq!(lines[1], "a,100,1.000000");
        assert_eq!(lines[2], "a,200,2.000000");
        assert_eq!(lines[3], "b,100,3.000000");
        assert_eq!(lines[4], "b,200,4.000000");
    }

    #[test]
    fn csv_handles_mismatched_grids() {
        // Different (E, b) tunings have different valid sizes; long-form
        // CSV must render them side by side without complaint.
        let mut b = series("b", &[1e6, 2e6]);
        b.points[1].n = 999;
        let csv = to_csv(&[series("a", &[1e6, 2e6]), b], |m| m.throughput);
        assert!(csv.contains("b,999,"));
    }

    #[test]
    fn markdown_shape() {
        let s = [series("a", &[1e6])];
        let md = to_markdown(&s, |m| m.throughput / 1e6, "ME/s");
        assert!(md.contains("**a**"));
        assert!(md.contains("value (ME/s)"));
        assert!(md.contains("| 100 | 1.000 |"));
    }
}
