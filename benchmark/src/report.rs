//! The metric catalogue (`BENCHMARK.json`), one run's outcome, and how
//! it is printed and recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use wcms_obs::json::{escape_into, parse, Value};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median a change may worsen it by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The benchmark's declared workloads and metrics.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported untraced).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc.get(key).and_then(Value::as_arr).ok_or(format!("missing array `{key}`"))?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key}: metric without `{k}`"))
            };
            let better = text("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("{key}: `better` must be higher or lower, not {better}"));
            }
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Catalogue {
    /// Read the catalogue from a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing array `workloads`")?
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("workload without `name`")?;
        Ok(Catalogue {
            workloads,
            end_to_end: metric_specs(&doc, "end_to_end")?,
            per_layer: metric_specs(&doc, "per_layer")?,
        })
    }

    /// Read `path`.
    ///
    /// # Errors
    ///
    /// As [`Catalogue::parse`], plus the read error.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Metric values with the sample count behind each percentile.
    pub metrics: BTreeMap<String, (f64, Option<usize>)>,
    /// Every failed correctness check, in the order found.
    pub problems: Vec<String>,
    /// Median calibration-kernel time of the run, milliseconds: times
    /// and rates are scaled by `calib::NOMINAL_MS` over it.
    pub calibration_ms: Option<f64>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), (value, None));
    }

    /// Record a percentile with its sample count.
    pub fn set_percentile(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_string(), (value, Some(samples)));
    }

    /// Record a failed correctness check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Whether every output checked out.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Keep exactly the `specs` metrics, in catalogue order, as
    /// `(spec, value, samples)`. A declared metric the run did not
    /// produce, or produced as a non-finite number, is a problem.
    pub fn select<'a>(
        &mut self,
        specs: &'a [MetricSpec],
    ) -> Vec<(&'a MetricSpec, f64, Option<usize>)> {
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.metrics.get(&spec.name) {
                Some(&(v, n)) if v.is_finite() => out.push((spec, v, n)),
                Some(&(v, _)) => self.problems.push(format!("metric {} is {v}", spec.name)),
                None => self.problems.push(format!("metric {} was not measured", spec.name)),
            }
        }
        out
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value printed with all its digits.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64, Option<usize>)],
) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (spec, value, _)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        escape_into(&mut s, &spec.name);
        let _ = write!(s, ":{{\"value\":{value},\"unit\":");
        escape_into(&mut s, &spec.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// Append one run to the results log: the run's identity, its
/// calibration-kernel time, the sample count behind every percentile,
/// and the result object.
///
/// # Errors
///
/// The I/O error, as text.
#[allow(clippy::too_many_arguments)] // one field of the record each
pub fn append_record(
    path: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibration_ms: Option<f64>,
    metrics: &[(&MetricSpec, f64, Option<usize>)],
    result: &str,
) -> Result<(), String> {
    let mut line = String::from("{\"workload\":");
    escape_into(&mut line, workload);
    let _ = write!(line, ",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},", u8::from(trace));
    if let Some(ms) = calibration_ms {
        let _ = write!(line, "\"calibration_ms\":{ms},");
    }
    line.push_str("\"samples\":{");
    let counted = metrics.iter().filter_map(|(spec, _, n)| n.map(|n| (spec, n)));
    for (i, (spec, n)) in counted.enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape_into(&mut line, &spec.name);
        let _ = write!(line, ":{n}");
    }
    let _ = writeln!(line, "}},\"result\":{result}}}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// This process's peak resident set (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
