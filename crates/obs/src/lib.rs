//! `wcms-obs`: hand-rolled structured tracing, metrics, and
//! deterministic time for the worst-case-mergesort workspace.
//!
//! The workspace is offline, so this is a dependency-free miniature of
//! the usual tracing/metrics stack, shaped around what the sweep
//! harness actually needs:
//!
//! - **Spans and events** ([`span!`], [`event!`]) — typed key=value
//!   records collected in a bounded [`RingCollector`] and exported as a
//!   JSONL journal or a Chrome trace-event document. When no recorder
//!   is installed the macros never evaluate their field expressions, so
//!   the untraced hot path costs one branch.
//! - **Metrics** ([`MetricsRegistry`]) — counters, gauges, and
//!   histograms; the `# sweep-summary` line is rebuilt from these, and
//!   `--metrics` dumps them in the Prometheus text format.
//! - **A [`Clock`]** — wall or seeded-virtual, so timestamp and
//!   backoff logic is testable without real sleeping.
//!
//! The [`Obs`] bundle carries all three; code under instrumentation
//! takes `&Obs` and never talks to a global. [`Obs::noop`] is the
//! shared disabled instance for APIs whose callers do not care.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod clock;
pub mod context;
pub(crate) mod export;
pub mod journal;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod recorder;
pub(crate) mod ring;

use std::fmt;
use std::sync::{Arc, OnceLock};

pub use clock::Clock;
pub use context::{SpanId, TraceContext, TraceId, TRACE_SEED};
pub use export::{chrome_trace, journal_jsonl};
pub use metrics::{parse_prometheus_text, Counter, Histogram, MetricsRegistry, LATENCY_BUCKETS_S};
pub use recorder::{current_tid, Field, FieldValue, NullRecorder, Phase, Record, Recorder};
pub use ring::RingCollector;

/// The observability bundle: an optional trace recorder, a metrics
/// registry, and a clock. Cloning is cheap and shares all three.
#[derive(Clone)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
    /// Metric registry (always present; recording is gated by
    /// [`Obs::is_active`]).
    pub metrics: MetricsRegistry,
    /// The time source for every timestamp this bundle emits.
    pub clock: Clock,
    active: bool,
    context: Option<TraceContext>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.recorder.is_some())
            .field("active", &self.active)
            .field("clock", &self.clock)
            .field("context", &self.context)
            .finish()
    }
}

impl Obs {
    /// Fully disabled: no recorder, metrics not recorded. This is the
    /// default wired through [`Default`] so existing construction sites
    /// stay observability-free until a `--trace`/`--metrics` flag opts
    /// in.
    #[must_use]
    pub fn disabled() -> Self {
        Obs {
            recorder: None,
            metrics: MetricsRegistry::new(),
            clock: Clock::wall(),
            active: false,
            context: None,
        }
    }

    /// Metrics on, tracing off.
    #[must_use]
    pub fn enabled(clock: Clock) -> Self {
        Obs { recorder: None, metrics: MetricsRegistry::new(), clock, active: true, context: None }
    }

    /// Metrics and tracing on, records going to `recorder`.
    #[must_use]
    pub fn with_recorder(recorder: Arc<dyn Recorder>, clock: Clock) -> Self {
        Obs {
            recorder: Some(recorder),
            metrics: MetricsRegistry::new(),
            clock,
            active: true,
            context: None,
        }
    }

    /// A clone of this bundle carrying `context` as the current trace
    /// position. Instrumented layers derive child contexts from it and
    /// stamp them onto their spans; the recorder, metrics, and clock
    /// stay shared.
    #[must_use]
    pub fn with_context(&self, context: TraceContext) -> Self {
        let mut obs = self.clone();
        obs.context = Some(context);
        obs
    }

    /// The trace context this bundle carries, if any. `None` means the
    /// next instrumented layer starts a fresh root when tracing.
    #[must_use]
    pub fn context(&self) -> Option<TraceContext> {
        self.context
    }

    /// The process-wide disabled instance, for call sites that need a
    /// `&Obs` but were not handed one. Never allocates after first use.
    #[must_use]
    pub fn noop() -> &'static Obs {
        static NOOP: OnceLock<Obs> = OnceLock::new();
        NOOP.get_or_init(Obs::disabled)
    }

    /// True when a trace recorder is installed (spans/events recorded).
    #[must_use]
    pub fn is_tracing(&self) -> bool {
        self.recorder.is_some()
    }

    /// True when metrics should be recorded.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Record one raw observation (timestamped from this bundle's
    /// clock, attributed to the calling thread). No-op when not
    /// tracing.
    pub(crate) fn emit(&self, phase: Phase, name: &'static str, fields: Vec<Field>) {
        if let Some(recorder) = &self.recorder {
            recorder.record(Record {
                ts_us: self.clock.now_us(),
                tid: current_tid(),
                phase,
                name,
                fields,
            });
        }
    }

    /// Open a span. The field closure runs only when tracing; the
    /// returned guard closes the span on drop. Prefer the [`span!`]
    /// macro, which builds the closure for you.
    pub fn span(&self, name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> SpanGuard<'_> {
        if self.recorder.is_some() {
            self.emit(Phase::Begin, name, fields());
            SpanGuard { obs: Some(self), name }
        } else {
            SpanGuard { obs: None, name }
        }
    }

    /// Record an instant event. The field closure runs only when
    /// tracing. Prefer the [`event!`] macro.
    pub fn event(&self, name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
        if self.recorder.is_some() {
            self.emit(Phase::Event, name, fields());
        }
    }

    /// The workspace's one sanctioned diagnostic-to-stderr path: prints
    /// `# {message}` (the harness's comment convention) *and*, when
    /// tracing, records an event named `name` carrying the message and
    /// any extra fields — so warnings survive into journals instead of
    /// scrolling away.
    pub fn warn(&self, name: &'static str, message: &str, fields: impl FnOnce() -> Vec<Field>) {
        eprintln!("# {message}");
        if self.recorder.is_some() {
            let mut all = vec![Field::new("message", message)];
            all.extend(fields());
            self.emit(Phase::Event, name, all);
        }
    }

    /// Emit this process's journal epoch record: a `Meta` record whose
    /// `ts_us` is on this bundle's clock and whose `unix_us` field is
    /// the epoch-anchored wall time at the same instant. The pair is
    /// what lets `wcms-trace join` normalize per-process clocks —
    /// `offset = unix_us - ts_us` maps any record onto the shared unix
    /// timeline. Call once per journal, at collector installation.
    /// No-op when not tracing.
    pub fn emit_epoch(&self, process: &str) {
        if self.recorder.is_some() {
            self.emit(
                Phase::Meta,
                "epoch",
                vec![
                    Field::new("process", process),
                    Field::new("pid", u64::from(std::process::id())),
                    Field::new("unix_us", Clock::unix().now_us()),
                ],
            );
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

/// Closes its span on drop. Carries no data on the disabled path.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    obs: Option<&'a Obs>,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(obs) = self.obs {
            obs.emit(Phase::End, self.name, Vec::new());
        }
    }
}

impl fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("tracing", &self.obs.is_some())
            .finish()
    }
}

/// Build a `Vec<Field>` from `key => value` pairs. Keys are
/// identifiers (stringified), so field-name cardinality is bounded by
/// the source code.
#[macro_export]
macro_rules! fields {
    () => { ::std::vec::Vec::<$crate::Field>::new() };
    ($($key:ident => $value:expr),+ $(,)?) => {
        ::std::vec![$($crate::Field::new(stringify!($key), $value)),+]
    };
}

/// Open a span on an [`Obs`]: `span!(obs, "name", key => value, ...)`.
/// Field expressions are evaluated only when tracing. Bind the result
/// (`let _span = span!(...)`) — dropping it closes the span.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $key:ident => $value:expr)* $(,)?) => {
        $obs.span($name, || $crate::fields![$($key => $value),*])
    };
}

/// Record an instant event on an [`Obs`]:
/// `event!(obs, "name", key => value, ...)`. Field expressions are
/// evaluated only when tracing.
#[macro_export]
macro_rules! event {
    ($obs:expr, $name:expr $(, $key:ident => $value:expr)* $(,)?) => {
        $obs.event($name, || $crate::fields![$($key => $value),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn traced() -> (Obs, Arc<RingCollector>) {
        let ring = Arc::new(RingCollector::new());
        (Obs::with_recorder(ring.clone(), Clock::virtual_us(1)), ring)
    }

    #[test]
    fn spans_emit_balanced_records() {
        let (obs, ring) = traced();
        {
            let _outer = span!(obs, "sweep", cells => 3u64);
            let _inner = span!(obs, "cell");
            event!(obs, "tick", n => 1u64);
        }
        let (records, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        let shape: Vec<(char, &str)> = records.iter().map(|r| (r.phase.code(), r.name)).collect();
        assert_eq!(
            shape,
            vec![('B', "sweep"), ('B', "cell"), ('I', "tick"), ('E', "cell"), ('E', "sweep")]
        );
        assert_eq!(records[0].fields, vec![Field::new("cells", 3u64)]);
        let ts: Vec<u64> = records.iter().map(|r| r.ts_us).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "virtual clock strictly increases: {ts:?}");
    }

    #[test]
    fn disabled_path_never_evaluates_fields() {
        let evals = AtomicUsize::new(0);
        let obs = Obs::disabled();
        {
            let _span = obs.span("s", || {
                evals.fetch_add(1, Ordering::SeqCst);
                Vec::new()
            });
            obs.event("e", || {
                evals.fetch_add(1, Ordering::SeqCst);
                Vec::new()
            });
        }
        assert_eq!(evals.load(Ordering::SeqCst), 0);
        assert!(!obs.is_tracing());
        assert!(!obs.is_active());
    }

    #[test]
    fn warn_records_the_message_when_tracing() {
        let (obs, ring) = traced();
        obs.warn("cell-demoted", "cell x demoted", || fields![backend => "analytic"]);
        let (records, _) = ring.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "cell-demoted");
        assert_eq!(records[0].fields[0], Field::new("message", "cell x demoted"));
        assert_eq!(records[0].fields[1], Field::new("backend", "analytic"));
        // And on a disabled bundle it only prints (nothing to assert
        // beyond "does not panic").
        Obs::noop().warn("x", "quiet", Vec::new);
    }

    #[test]
    fn noop_is_shared_and_disabled() {
        let a = Obs::noop();
        let b = Obs::noop();
        assert!(std::ptr::eq(a, b));
        assert!(!a.is_tracing());
        assert!(!a.is_active());
    }

    #[test]
    fn enabled_records_metrics_but_no_trace() {
        let obs = Obs::enabled(Clock::virtual_us(1));
        assert!(obs.is_active());
        assert!(!obs.is_tracing());
        obs.metrics.counter("sweep_cells_total").add(2);
        assert_eq!(obs.metrics.counter("sweep_cells_total").get(), 2);
    }

    #[test]
    fn context_rides_the_bundle_and_shares_the_recorder() {
        let (obs, ring) = traced();
        assert!(obs.context().is_none());
        let ctx = TraceContext::root(1, "r");
        let contextual = obs.with_context(ctx);
        assert_eq!(contextual.context(), Some(ctx));
        assert!(obs.context().is_none(), "with_context clones, never mutates");
        {
            let _span = span!(contextual, "s");
        }
        let (records, _) = ring.drain();
        assert_eq!(records.len(), 2, "the clone records into the shared ring");
    }

    #[test]
    fn epoch_records_carry_process_pid_and_unix_time() {
        let (obs, ring) = traced();
        obs.emit_epoch("w0");
        let (records, _) = ring.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].phase, Phase::Meta);
        assert_eq!(records[0].name, "epoch");
        assert_eq!(records[0].fields[0], Field::new("process", "w0"));
        assert_eq!(records[0].fields[1].key, "pid");
        assert_eq!(records[0].fields[2].key, "unix_us");
        match records[0].fields[2].value {
            FieldValue::U64(us) => assert!(us > 0, "unix time is epoch-anchored"),
            ref other => panic!("unix_us must be U64, got {other:?}"),
        }
        // Not tracing: no record, no panic.
        Obs::noop().emit_epoch("quiet");
    }

    #[test]
    fn journal_round_trips_through_export_and_parse() {
        let (obs, ring) = traced();
        {
            let _sweep = span!(obs, "sweep");
            let _cell = span!(obs, "cell", cell => "w32 b64 E3 n4096");
            event!(obs, "round-counters", merge_steps => 12u64, extra_cycles => 4u64);
        }
        let (records, dropped) = ring.drain();
        let text = journal_jsonl(&records, dropped);
        let parsed = journal::parse_journal(&text).unwrap();
        let report = journal::validate(&parsed);
        assert!(report.is_ok(), "{:?}", report.errors);
        assert_eq!(report.matched_spans, 2);
        let merge_steps: u64 = parsed
            .records
            .iter()
            .filter(|r| r.phase == Phase::Event && r.name == "round-counters")
            .filter_map(|r| r.field("merge_steps")?.as_u64())
            .sum();
        assert_eq!(merge_steps, 12);
        let cells = parsed.records.iter().filter(|r| r.phase == Phase::Begin && r.name == "cell");
        assert_eq!(cells.count(), 1);
    }
}
