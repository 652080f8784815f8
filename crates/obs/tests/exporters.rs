//! Golden-file and structural tests for the exporters, driven from
//! outside the crate the way `wcms-trace` and the bench harness use
//! them.

use std::sync::Arc;

use wcms_obs::journal::{parse_journal, validate};
use wcms_obs::{
    chrome_trace, event, fields, journal_jsonl, json, span, Clock, Field, Obs, Phase, Record,
    RingCollector,
};

/// Records built by hand with fixed tids: the live tid counter is
/// process-global, so goldens must not depend on which test ran first.
fn golden_records() -> Vec<Record> {
    vec![
        Record {
            ts_us: 0,
            tid: 1,
            phase: Phase::Begin,
            name: "sweep",
            fields: vec![Field::new("figure", "fig4"), Field::new("cells", 2u64)],
        },
        Record { ts_us: 3, tid: 2, phase: Phase::Begin, name: "cell", fields: vec![] },
        Record {
            ts_us: 5,
            tid: 2,
            phase: Phase::Event,
            name: "round-counters",
            fields: vec![
                Field::new("round", 1u64),
                Field::new("merge_steps", 42u64),
                Field::new("extra_cycles", 7u64),
            ],
        },
        Record { ts_us: 9, tid: 2, phase: Phase::End, name: "cell", fields: vec![] },
        Record { ts_us: 12, tid: 1, phase: Phase::End, name: "sweep", fields: vec![] },
    ]
}

/// The Chrome document for the fixture is byte-for-byte stable: this is
/// the contract `chrome://tracing` / Perfetto consumers load.
#[test]
fn chrome_trace_matches_golden_bytes() {
    let golden = concat!(
        "{\"traceEvents\":[\n",
        "{\"name\":\"sweep\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1,",
        "\"args\":{\"figure\":\"fig4\",\"cells\":2}},\n",
        "{\"name\":\"cell\",\"ph\":\"B\",\"ts\":3,\"pid\":1,\"tid\":2},\n",
        "{\"name\":\"round-counters\",\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":2,\"s\":\"t\",",
        "\"args\":{\"round\":1,\"merge_steps\":42,\"extra_cycles\":7}},\n",
        "{\"name\":\"cell\",\"ph\":\"E\",\"ts\":9,\"pid\":1,\"tid\":2},\n",
        "{\"name\":\"sweep\",\"ph\":\"E\",\"ts\":12,\"pid\":1,\"tid\":1}\n",
        "]}\n",
    );
    assert_eq!(chrome_trace(&golden_records()), golden);
}

/// The journal for the fixture is byte-for-byte stable too.
#[test]
fn journal_matches_golden_bytes() {
    let golden = concat!(
        "{\"ts\":0,\"tid\":1,\"ph\":\"B\",\"name\":\"sweep\",",
        "\"fields\":{\"figure\":\"fig4\",\"cells\":2}}\n",
        "{\"ts\":3,\"tid\":2,\"ph\":\"B\",\"name\":\"cell\"}\n",
        "{\"ts\":5,\"tid\":2,\"ph\":\"I\",\"name\":\"round-counters\",",
        "\"fields\":{\"round\":1,\"merge_steps\":42,\"extra_cycles\":7}}\n",
        "{\"ts\":9,\"tid\":2,\"ph\":\"E\",\"name\":\"cell\"}\n",
        "{\"ts\":12,\"tid\":1,\"ph\":\"E\",\"name\":\"sweep\"}\n",
    );
    assert_eq!(journal_jsonl(&golden_records(), 0), golden);
}

/// A live traced run under a virtual clock produces a Chrome document
/// that is well-formed JSON with balanced B/E pairs and per-thread
/// monotonic timestamps.
#[test]
fn live_chrome_trace_is_well_formed() {
    let ring = Arc::new(RingCollector::new());
    let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(3));
    {
        let _sweep = span!(obs, "sweep", cells => 2u64);
        for cell in ["w32 b64 E3 n1024", "w32 b64 E5 n1024"] {
            let _cell = span!(obs, "cell", cell => cell);
            event!(obs, "round-counters", round => 1u64, merge_steps => 8u64);
        }
    }
    let (records, dropped) = ring.drain();
    assert_eq!(dropped, 0);

    let doc = json::parse(&chrome_trace(&records)).expect("chrome document parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), records.len());

    // Balanced, name-matched B/E with monotonic ts (single tid here).
    let mut stack: Vec<&str> = Vec::new();
    let mut last_ts = 0u64;
    for ev in events {
        let ts = ev.get("ts").unwrap().as_u64().unwrap();
        assert!(ts >= last_ts, "timestamps must not go backwards");
        last_ts = ts;
        let name = ev.get("name").unwrap().as_str().unwrap();
        match ev.get("ph").unwrap().as_str().unwrap() {
            "B" => stack.push(name),
            "E" => assert_eq!(stack.pop(), Some(name), "E must close the innermost B"),
            "i" => assert_eq!(ev.get("s").unwrap().as_str(), Some("t")),
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(stack.is_empty(), "all spans closed, {stack:?} left open");
}

/// Journal → parse → validate → per-name sums, end to end on live data.
#[test]
fn live_journal_validates_and_yields_bench_stats() {
    let ring = Arc::new(RingCollector::new());
    let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(5));
    {
        let _sweep = span!(obs, "sweep", figure => "fig4");
        for _ in 0..3 {
            let _cell = span!(obs, "cell");
            event!(obs, "round-counters", merge_steps => 10u64, extra_cycles => 2u64);
        }
    }
    let (records, dropped) = ring.drain();
    let journal = parse_journal(&journal_jsonl(&records, dropped)).unwrap();
    let report = validate(&journal);
    assert!(report.is_ok(), "{:?}", report.errors);
    assert_eq!(report.matched_spans, 4);

    let begins = |name: &str| {
        journal.records.iter().filter(|r| r.phase == Phase::Begin && r.name == name).count()
    };
    assert_eq!(begins("cell"), 3);
    let rounds: Vec<_> = journal
        .records
        .iter()
        .filter(|r| r.phase == Phase::Event && r.name == "round-counters")
        .collect();
    assert_eq!(rounds.len(), 3);
    let sum = |key: &str| rounds.iter().filter_map(|r| r.field(key)?.as_u64()).sum::<u64>();
    assert_eq!(sum("merge_steps"), 30);
    assert_eq!(sum("extra_cycles"), 6);
}

/// A deliberately overflowed ring exports a journal that fails
/// validation — truncation is detectable, not silent.
#[test]
fn overflowed_ring_fails_validation() {
    let ring = Arc::new(RingCollector::with_capacity(4));
    let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(1));
    for _ in 0..10 {
        event!(obs, "tick");
    }
    let (records, dropped) = ring.drain();
    assert!(dropped > 0);
    let journal = parse_journal(&journal_jsonl(&records, dropped)).unwrap();
    let report = validate(&journal);
    assert!(!report.is_ok());
    assert!(report.errors.iter().any(|e| e.contains("truncated")), "{:?}", report.errors);
}

/// Prometheus text from a populated registry has the pinned shape the
/// `--metrics` flag documents.
#[test]
fn prometheus_export_has_documented_shape() {
    let obs = Obs::enabled(Clock::virtual_us(1));
    obs.metrics.counter("sort_merge_steps_total").add(42);
    obs.metrics.gauge("sweep_jobs").set(4.0);
    obs.metrics.histogram("cell_latency_seconds", &wcms_obs::LATENCY_BUCKETS_S).observe(0.002);
    let text = obs.metrics.prometheus_text();
    assert!(text.contains("# TYPE sort_merge_steps_total counter\nsort_merge_steps_total 42\n"));
    assert!(text.contains("# TYPE sweep_jobs gauge\nsweep_jobs 4\n"));
    assert!(text.contains("# TYPE cell_latency_seconds histogram\n"));
    assert!(text.contains("cell_latency_seconds_bucket{le=\"0.005\"} 1\n"));
    assert!(text.contains("cell_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
    assert!(text.contains("cell_latency_seconds_count 1\n"));

    let _ = fields![]; // the empty form is part of the macro contract
}
