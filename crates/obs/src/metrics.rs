//! The metrics registry: named monotonic counters, gauges, and
//! fixed-bucket histograms, exportable as a Prometheus text-format
//! snapshot.
//!
//! Metrics are the aggregate view (tracing is the sequential one): the
//! supervisor's `# sweep-summary` line is rebuilt from these counters,
//! and `--metrics <path>` dumps the whole registry at process exit.
//! Handles are cheap `Arc`s — look one up once, then `inc`/`add` are
//! single atomic operations with no lock. Registration order does not
//! matter: exports walk a `BTreeMap`, so snapshots are deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `v`.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a settable `f64` (stored as bits, so round-trips are exact).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram (cumulative-export, Prometheus-style).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing; an
    /// implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observations, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.0.bounds.partition_point(|b| v > *b);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` per finite bucket, then
    /// `(+Inf ≙ f64::INFINITY, total)`.
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.0.bounds.len() + 1);
        for (i, b) in self.0.bounds.iter().enumerate() {
            acc += self.0.counts[i].load(Ordering::Relaxed);
            out.push((*b, acc));
        }
        acc += self.0.counts[self.0.bounds.len()].load(Ordering::Relaxed);
        out.push((f64::INFINITY, acc));
        out
    }
}

/// Latency buckets (seconds) used for the per-cell latency histogram:
/// 1 ms … 60 s, roughly logarithmic.
pub const LATENCY_BUCKETS_S: [f64; 10] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0];

/// A shared, clonable registry of named metrics. Clones alias the same
/// underlying maps (handing a registry to a worker is free).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter `name`, registering it at 0 on first use.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        self.inner
            .counters
            .lock()
            .expect("metrics lock poisoned")
            .entry(name.into())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge `name`, registering it at 0.0 on first use.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        self.inner
            .gauges
            .lock()
            .expect("metrics lock poisoned")
            .entry(name.into())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
            .clone()
    }

    /// The histogram `name` with the given finite bucket bounds
    /// (ignored — with the first registration's bounds kept — if the
    /// histogram already exists).
    pub fn histogram(&self, name: impl Into<String>, bounds: &[f64]) -> Histogram {
        self.inner
            .histograms
            .lock()
            .expect("metrics lock poisoned")
            .entry(name.into())
            .or_insert_with(|| {
                let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
                Histogram(Arc::new(HistogramInner {
                    bounds: bounds.to_vec(),
                    counts,
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0.0f64.to_bits()),
                }))
            })
            .clone()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the other's value, histogram buckets merge (the other's bounds
    /// are adopted for histograms this registry has not seen). Used to
    /// absorb a sweep-local registry into the session registry.
    pub fn absorb(&self, other: &MetricsRegistry) {
        for (name, c) in other.inner.counters.lock().expect("metrics lock poisoned").iter() {
            self.counter(name.clone()).add(c.get());
        }
        for (name, g) in other.inner.gauges.lock().expect("metrics lock poisoned").iter() {
            self.gauge(name.clone()).set(g.get());
        }
        for (name, h) in other.inner.histograms.lock().expect("metrics lock poisoned").iter() {
            let mine = self.histogram(name.clone(), &h.0.bounds);
            for (i, c) in h.0.counts.iter().enumerate() {
                if let Some(slot) = mine.0.counts.get(i) {
                    slot.fetch_add(c.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            mine.0.count.fetch_add(h.count(), Ordering::Relaxed);
            let sum = mine.sum() + h.sum();
            mine.0.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
        }
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format, deterministically ordered by metric name.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, c) in self.inner.counters.lock().expect("metrics lock poisoned").iter() {
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in self.inner.gauges.lock().expect("metrics lock poisoned").iter() {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_f64(g.get())));
        }
        for (name, h) in self.inner.histograms.lock().expect("metrics lock poisoned").iter() {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (bound, cum) in h.cumulative_buckets() {
                let le = if bound.is_infinite() { "+Inf".to_string() } else { fmt_f64(bound) };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum())));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

/// Format an `f64` for text export: finite shortest-round-trip `{}`,
/// with non-finite values spelled the Prometheus way.
#[must_use]
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other.parse().map_err(|_| format!("not a number: {other:?}")),
    }
}

/// Parse a snapshot produced by [`MetricsRegistry::prometheus_text`]
/// back into a registry — the inverse the multi-process merge step
/// needs to [`MetricsRegistry::absorb`] per-shard exports into one
/// unified registry. Counters, gauges, and histograms round-trip;
/// every sample line must be covered by a `# TYPE` declaration.
///
/// # Errors
///
/// Returns a description (with the line number) for any malformed
/// line, undeclared sample, or non-monotonic histogram buckets.
pub fn parse_prometheus_text(text: &str) -> Result<MetricsRegistry, String> {
    struct PartialHist {
        buckets: Vec<(f64, u64)>,
        sum: f64,
        count: u64,
    }
    let reg = MetricsRegistry::new();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, PartialHist> = BTreeMap::new();
    for (i, raw) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            match (it.next(), it.next()) {
                (Some(name), Some(kind @ ("counter" | "gauge" | "histogram"))) => {
                    kinds.insert(name.to_string(), kind.to_string());
                }
                _ => return Err(at(format!("malformed TYPE declaration: {raw:?}"))),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments (HELP etc.) are ignorable
        }
        let (key, value) =
            line.rsplit_once(' ').ok_or_else(|| at(format!("no sample value: {raw:?}")))?;
        if let Some((name, rest)) = key.split_once("_bucket{le=\"") {
            let le = rest
                .strip_suffix("\"}")
                .ok_or_else(|| at(format!("malformed bucket label: {key:?}")))?;
            let bound = parse_f64(le).map_err(&at)?;
            let cum: u64 =
                value.parse().map_err(|_| at(format!("not a bucket count: {value:?}")))?;
            hists
                .entry(name.to_string())
                .or_insert_with(|| PartialHist { buckets: Vec::new(), sum: 0.0, count: 0 })
                .buckets
                .push((bound, cum));
            continue;
        }
        let hist_part = |suffix: &str| {
            key.strip_suffix(suffix)
                .filter(|base| kinds.get(*base).is_some_and(|k| k == "histogram"))
                .map(ToString::to_string)
        };
        if let Some(base) = hist_part("_sum") {
            let entry = hists.entry(base).or_insert_with(|| PartialHist {
                buckets: Vec::new(),
                sum: 0.0,
                count: 0,
            });
            entry.sum = parse_f64(value).map_err(&at)?;
            continue;
        }
        if let Some(base) = hist_part("_count") {
            let entry = hists.entry(base).or_insert_with(|| PartialHist {
                buckets: Vec::new(),
                sum: 0.0,
                count: 0,
            });
            entry.count = value.parse().map_err(|_| at(format!("not a count: {value:?}")))?;
            continue;
        }
        match kinds.get(key).map(String::as_str) {
            Some("counter") => reg
                .counter(key)
                .add(value.parse().map_err(|_| at(format!("not a counter value: {value:?}")))?),
            Some("gauge") => reg.gauge(key).set(parse_f64(value).map_err(&at)?),
            Some(other) => return Err(at(format!("{key}: unexpected sample for {other}"))),
            None => return Err(at(format!("{key}: sample without a TYPE declaration"))),
        }
    }
    for (name, p) in hists {
        // De-cumulate: per-bucket counts are successive differences;
        // the final +Inf bucket becomes the implicit overflow bucket.
        let finite: Vec<f64> =
            p.buckets.iter().map(|(b, _)| *b).filter(|b| b.is_finite()).collect();
        let h = reg.histogram(&name, &finite);
        let mut prev = 0u64;
        for (i, (_, cum)) in p.buckets.iter().enumerate() {
            let delta = cum
                .checked_sub(prev)
                .ok_or_else(|| format!("{name}: non-monotonic cumulative buckets"))?;
            prev = *cum;
            if let Some(slot) = h.0.counts.get(i) {
                slot.fetch_add(delta, Ordering::Relaxed);
            }
        }
        h.0.count.fetch_add(p.count, Ordering::Relaxed);
        h.0.sum_bits.store(p.sum.to_bits(), Ordering::Relaxed);
    }
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_handles() {
        let m = MetricsRegistry::new();
        m.counter("x_total").add(3);
        m.counter("x_total").inc();
        assert_eq!(m.counter("x_total").get(), 4);
    }

    #[test]
    fn gauge_round_trips_exactly() {
        let m = MetricsRegistry::new();
        m.gauge("wall_s").set(1.2345678901234567);
        assert_eq!(m.gauge("wall_s").get(), 1.2345678901234567);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = MetricsRegistry::new();
        let h = m.histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.cumulative_buckets(), vec![(1.0, 2), (10.0, 3), (f64::INFINITY, 4)]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 56.2).abs() < 1e-9);
    }

    #[test]
    fn boundary_value_lands_in_its_bucket() {
        // Prometheus buckets are `le` (≤): an observation equal to the
        // bound belongs to that bucket.
        let m = MetricsRegistry::new();
        let h = m.histogram("b", &[1.0]);
        h.observe(1.0);
        assert_eq!(h.cumulative_buckets()[0], (1.0, 1));
    }

    #[test]
    fn prometheus_text_is_deterministic_and_typed() {
        let m = MetricsRegistry::new();
        m.counter("b_total").add(2);
        m.counter("a_total").add(1);
        m.gauge("jobs").set(4.0);
        m.histogram("lat", &[1.0]).observe(0.5);
        let text = m.prometheus_text();
        let a = text.find("a_total 1").unwrap();
        let b = text.find("b_total 2").unwrap();
        assert!(a < b, "BTreeMap order: {text}");
        assert!(text.contains("# TYPE jobs gauge\njobs 4\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("lat_count 1"), "{text}");
        assert_eq!(text, m.prometheus_text(), "snapshot must be reproducible");
    }

    /// The multi-process merge contract: a text snapshot parses back
    /// into a registry whose own snapshot is byte-identical, and the
    /// parsed registry absorbs like any in-process one.
    #[test]
    fn prometheus_text_round_trips_through_the_parser() {
        let m = MetricsRegistry::new();
        m.counter("sweep_cells_total").add(7);
        m.gauge("sweep_wall_seconds").set(2.5);
        let h = m.histogram("cell_latency_seconds", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let text = m.prometheus_text();
        let back = parse_prometheus_text(&text).unwrap();
        assert_eq!(back.prometheus_text(), text, "parse must invert the renderer");
        let sink = MetricsRegistry::new();
        sink.absorb(&back);
        sink.absorb(&back);
        assert_eq!(sink.counter("sweep_cells_total").get(), 14);
        assert_eq!(sink.histogram("cell_latency_seconds", &[0.1, 1.0]).count(), 6);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_snapshots() {
        for hostile in [
            "x 1",                           // sample without TYPE
            "# TYPE x counter\nx nope",      // non-numeric counter
            "# TYPE x counter\nx",           // no value at all
            "# TYPE x gauge\n# TYPE x\nx 1", // malformed TYPE line
            "# TYPE l histogram\nl_bucket{le=\"1\"} 5\nl_bucket{le=\"+Inf\"} 3\nl_sum 0\nl_count 3",
        ] {
            assert!(parse_prometheus_text(hostile).is_err(), "{hostile:?} must be rejected");
        }
        // But unknown comments are fine.
        assert!(parse_prometheus_text("# HELP y stuff\n# TYPE y counter\ny 3\n").is_ok());
    }

    #[test]
    fn absorb_merges_all_metric_kinds() {
        let session = MetricsRegistry::new();
        session.counter("sweep_cells").add(10);
        let sweep = MetricsRegistry::new();
        sweep.counter("sweep_cells").add(5);
        sweep.gauge("sweep_jobs").set(4.0);
        sweep.histogram("lat", &[1.0]).observe(0.5);
        session.absorb(&sweep);
        assert_eq!(session.counter("sweep_cells").get(), 15);
        assert_eq!(session.gauge("sweep_jobs").get(), 4.0);
        assert_eq!(session.histogram("lat", &[1.0]).count(), 1);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = MetricsRegistry::new();
        let c = m.counter("n");
        let h = m.histogram("h", &[0.5]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                        h.observe(1.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 4000.0).abs() < 1e-9, "CAS sum must not lose updates");
    }
}
