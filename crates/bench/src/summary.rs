//! The inline statistics of §IV-B: peak and average slowdown of the
//! constructed worst case vs. random inputs, and the Karsin β averages.

use wcms_dmm::stats::slowdown_percent;

use crate::series::Series;

/// Peak and average slowdown of a (worst-case, random) series pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Largest per-size slowdown, percent.
    pub peak_percent: f64,
    /// Input size at the peak.
    pub peak_n: usize,
    /// Mean slowdown across the sweep, percent.
    pub average_percent: f64,
}

/// Compute slowdown statistics from a worst-case series and a random
/// series. Points are paired by `n`, so a resilient sweep with gaps in
/// either series still yields statistics over the sizes both measured.
/// Returns `None` when no size was measured in both series.
#[must_use]
pub(crate) fn slowdown(worst: &Series, random: &Series) -> Option<Slowdown> {
    let mut peak = f64::NEG_INFINITY;
    let mut peak_n = 0usize;
    let mut sum = 0.0;
    let mut count = 0usize;
    for w in &worst.points {
        let Some(r) = random.points.iter().find(|r| r.n == w.n) else { continue };
        let s = slowdown_percent(r.throughput, w.throughput);
        if s > peak {
            peak = s;
            peak_n = w.n;
        }
        sum += s;
        count += 1;
    }
    (count > 0).then(|| Slowdown {
        peak_percent: peak,
        peak_n,
        average_percent: sum / count as f64,
    })
}

/// Pair up `throughput_figure` output (worst-case series at even indices,
/// random at the following odd index) into `(label, Slowdown)` rows.
/// Pairs with no common measured size are dropped.
#[must_use]
pub fn slowdown_table(series: &[Series]) -> Vec<(String, Slowdown)> {
    series
        .chunks(2)
        .filter(|pair| pair.len() == 2)
        .filter_map(|pair| {
            let label = pair[0].label.trim_end_matches(" worst-case").to_string();
            Some((label, slowdown(&pair[0], &pair[1])?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Measurement;
    use wcms_dmm::stats::Summary;

    fn meas(n: usize, thr: f64) -> Measurement {
        Measurement {
            n,
            throughput: thr,
            ms: 1.0,
            throughput_spread: Summary::of(&[thr]).unwrap(),
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: 0.0,
            ms_per_element: 0.0,
        }
    }

    fn series(label: &str, thrs: &[(usize, f64)]) -> Series {
        Series { label: label.into(), points: thrs.iter().map(|&(n, t)| meas(n, t)).collect() }
    }

    #[test]
    fn slowdown_peak_and_average() {
        let worst = series("x worst-case", &[(100, 1.0), (200, 1.0)]);
        let random = series("x random", &[(100, 1.5), (200, 2.0)]);
        let s = slowdown(&worst, &random).unwrap();
        assert!((s.peak_percent - 100.0).abs() < 1e-9);
        assert_eq!(s.peak_n, 200);
        assert!((s.average_percent - 75.0).abs() < 1e-9);
    }

    #[test]
    fn table_pairs_series() {
        let all = vec![
            series("A worst-case", &[(100, 1.0)]),
            series("A random", &[(100, 2.0)]),
            series("B worst-case", &[(100, 4.0)]),
            series("B random", &[(100, 5.0)]),
        ];
        let table = slowdown_table(&all);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].0, "A");
        assert!((table[0].1.peak_percent - 100.0).abs() < 1e-9);
        assert!((table[1].1.peak_percent - 25.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_grids_pair_by_n() {
        // A gap in one series drops that size from the statistics rather
        // than panicking (resilient sweeps produce ragged grids).
        let s =
            slowdown(&series("w", &[(100, 1.0)]), &series("r", &[(100, 2.0), (200, 9.0)])).unwrap();
        assert!((s.peak_percent - 100.0).abs() < 1e-9);
        assert_eq!(s.peak_n, 100);
        // No common size → no statistics.
        assert!(slowdown(&series("w", &[(300, 1.0)]), &series("r", &[(100, 2.0)])).is_none());
    }
}
