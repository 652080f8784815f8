//! End-to-end observability contracts:
//!
//! 1. the metrics registry's sort counters are *integer-equal* to the
//!    [`wcms_mergesort::SortReport`] the same sort returned, across
//!    backends and tunings (proptest);
//! 2. a traced `--jobs 4` sweep produces a journal that validates
//!    (balanced per-thread spans, monotonic timestamps, nothing
//!    dropped) and whose derived bench stats agree with the sweep's own
//!    counters;
//! 3. the Chrome export of that live journal is well-formed JSON with
//!    one `traceEvents` entry per journal record.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use wcms_bench::experiment::SweepConfig;
use wcms_bench::figures::{throughput_figure, Config};
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::supervisor::SweepOptions;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{sort_algo_with_report_traced_on, BackendKind, PairwiseMerge, SortParams};
use wcms_obs::journal::{chrome_from_journal, parse_journal, validate};
use wcms_obs::{journal_jsonl, json, Clock, Obs, Phase, RingCollector};
use wcms_workloads::WorkloadSpec;

/// The tunings the contract is checked over: the full E range the
/// paper's figures exercise, from tiny (3) through Thrust's 15.
const E_VALUES: [usize; 4] = [3, 5, 8, 15];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `sort_merge_steps_total` / `sort_conflict_extra_cycles_total`
    /// must equal the report's own counters exactly — the metrics view
    /// and the instrumentation view are the same integers.
    #[test]
    fn metrics_counters_equal_report_counters(
        seed in 0u64..1_000,
        e_idx in 0usize..E_VALUES.len(),
        doublings in 1u32..3,
        sim in proptest::bool::ANY,
    ) {
        let e = E_VALUES[e_idx];
        let params = SortParams::new(32, e, 64).unwrap();
        let n = params.block_elems() << doublings;
        let input = WorkloadSpec::RandomPermutation { seed }
            .generate(n, params.w, params.e, params.b)
            .unwrap();
        let backend = if sim { BackendKind::Sim } else { BackendKind::Analytic };
        let obs = Obs::enabled(Clock::virtual_us(1));
        let (out, report) =
            sort_algo_with_report_traced_on(&input, &params, &PairwiseMerge, &backend, &obs)
                .unwrap();
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));

        let total = report.total();
        prop_assert_eq!(
            obs.metrics.counter("sort_merge_steps_total").get(),
            total.shared.merge.steps as u64,
            "merge steps: metrics vs report (E={}, backend={})", e, backend
        );
        prop_assert_eq!(
            obs.metrics.counter("sort_conflict_extra_cycles_total").get(),
            total.shared.combined().extra_cycles as u64,
            "conflict extra cycles: metrics vs report (E={}, backend={})", e, backend
        );
        prop_assert_eq!(
            obs.metrics.counter("sort_rounds_total").get(),
            report.rounds.len() as u64
        );
        prop_assert_eq!(obs.metrics.counter("sorts_total").get(), 1);
    }
}

/// One traced parallel sweep: journal validates, its records agree
/// with the sweep counters, and the Chrome export is well-formed.
#[test]
fn traced_jobs4_sweep_journal_validates_end_to_end() {
    let ring = Arc::new(RingCollector::new());
    let obs = Obs::with_recorder(ring.clone(), Clock::wall());
    let metrics = obs.metrics.clone();
    let opts = SweepOptions {
        sweep: SweepConfig { min_doublings: 1, max_doublings: 3, runs: 1 },
        resilience: ResilienceConfig { obs, ..ResilienceConfig::none() },
        backend: BackendKind::Sim,
        algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
        jobs: 4,
        shard: wcms_bench::shard::ShardPolicy::Off,
    };
    let device = DeviceSpec::test_device();
    let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
    let report = throughput_figure("obs-e2e", &device, &configs, &opts);
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);

    // The journal validates: balanced spans per thread, monotonic
    // timestamps, no dropped records.
    let (records, dropped) = ring.drain();
    assert!(!records.is_empty(), "a traced sweep must record spans");
    let text = journal_jsonl(&records, dropped);
    let journal = parse_journal(&text).unwrap();
    let validation = validate(&journal);
    assert!(validation.is_ok(), "journal must validate: {:?}", validation.errors);

    // Its records agree with the sweep's own counters.
    let cells = journal.records.iter().filter(|r| r.phase == Phase::Begin && r.name == "cell");
    assert_eq!(cells.count(), report.stats.cells, "one `cell` span per sweep cell");
    let round_sum = |key: &str| {
        journal
            .records
            .iter()
            .filter(|r| r.phase == Phase::Event && r.name == "round-counters")
            .filter_map(|r| r.field(key)?.as_u64())
            .sum::<u64>()
    };
    assert_eq!(
        round_sum("merge_steps"),
        metrics.counter("sort_merge_steps_total").get(),
        "journal round-counter events must sum to the metrics counter"
    );
    assert_eq!(
        round_sum("extra_cycles"),
        metrics.counter("sort_conflict_extra_cycles_total").get()
    );
    // The latency histogram saw every cell.
    assert_eq!(
        metrics.histogram("cell_latency_seconds", &wcms_obs::LATENCY_BUCKETS_S).count(),
        report.stats.cells as u64
    );

    // The Chrome export is well-formed JSON with one traceEvents entry
    // per journal record (plus none invented).
    let chrome = chrome_from_journal(&journal);
    let doc = json::parse(&chrome).expect("chrome export must be valid JSON");
    let events = doc.get("traceEvents").and_then(json::Value::as_arr).expect("traceEvents array");
    assert_eq!(events.len(), journal.records.len());
}

/// The fleet causality contract, in-process: an admitted root context
/// handed to two "worker processes" (separate rings, separate epochs,
/// one shared checkpoint store) makes every executed cell — including
/// one whose lease is *stolen* from a dead worker — a descendant of the
/// admitting root, and the per-process journals join with zero orphans.
#[test]
fn stolen_cells_chain_to_the_admitting_root_across_journals() {
    use wcms_bench::checkpoint::{encode_file, CheckpointStore};
    use wcms_bench::shard::LeaseStore;
    use wcms_bench::shard::{LeaseInfo, ShardPolicy};
    use wcms_bench::supervisor::run_sweep;
    use wcms_obs::journal::{join_journals, parse_journal, Journal};
    use wcms_obs::{TraceContext, TRACE_SEED};

    let dir = std::env::temp_dir().join(format!("wcms-obs-steal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let root = TraceContext::root(TRACE_SEED, "fleet-obs-test");
    let ttl = Duration::from_secs(30);

    let meas = |n: usize| wcms_bench::experiment::Measurement {
        n,
        throughput: n as f64,
        ms: 1.0,
        throughput_spread: wcms_dmm::stats::Summary::of(&[n as f64]).unwrap(),
        beta1: 1.0,
        beta2: 1.0,
        conflicts_per_element: 0.0,
        ms_per_element: 1.0,
    };

    // "Process" 0 — the admitting daemon surrogate. Its journal holds
    // the root request span every worker span must chain back to.
    let ring0 = Arc::new(RingCollector::new());
    let obs0 = Obs::with_recorder(ring0.clone(), Clock::wall());
    obs0.emit_epoch("admitter");
    let request_span = obs0.span("request", || {
        let mut f = Vec::new();
        root.stamp(&mut f);
        f
    });

    let run_worker = |worker: &str, cells: Vec<usize>| {
        let ring = Arc::new(RingCollector::new());
        let obs = Obs::with_recorder(ring.clone(), Clock::wall()).with_context(root);
        obs.emit_epoch(&format!("it/{worker}"));
        let opts = SweepOptions {
            sweep: SweepConfig { min_doublings: 1, max_doublings: 3, runs: 1 },
            resilience: ResilienceConfig {
                obs,
                checkpoint: Some(CheckpointStore::open(&dir).unwrap()),
                ..ResilienceConfig::none()
            },
            backend: BackendKind::Sim,
            algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
            jobs: 1,
            shard: ShardPolicy::Steal { worker: worker.into(), ttl },
        };
        let sweep = run_sweep(cells, &opts, |n| format!("c/{n}"), move |n, _b, _t| Ok(meas(n)));
        let (records, dropped) = ring.drain();
        (sweep.stats, parse_journal(&journal_jsonl(&records, dropped)).unwrap())
    };

    // Worker A executes the first three cells, then exits cleanly.
    let (stats_a, journal_a) = run_worker("wa", vec![0, 1, 2]);
    assert_eq!(stats_a.done, 3);
    assert_eq!(stats_a.cached, 0);

    // A third, long-dead worker left an *expired* lease on cell c/3:
    // whoever runs next must steal it before executing the cell.
    let store = CheckpointStore::open(&dir).unwrap();
    let dead = LeaseStore::open(&store, "dead", ttl).unwrap();
    let stale = LeaseInfo {
        pid: 1,
        worker: "dead".into(),
        fingerprint: dead.fingerprint(),
        deadline_ms: 1,
        trace: None,
    };
    dead.write_raw("c/3", &encode_file(&stale.encode())).unwrap();

    // Worker B covers the whole grid: replays A's cells from the store,
    // steals c/3 from the dead worker, executes c/3..c/5.
    let (stats_b, journal_b) = run_worker("wb", vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(stats_b.cached, 3, "{stats_b:?}");
    assert_eq!(stats_b.done - stats_b.cached, 3, "{stats_b:?}");

    // Both workers derive the same sweep span from the shared root, and
    // the stolen cell's span sits under it — trace ids are derived, so
    // the expectation is computable independently of execution.
    let sweep_ctx = root.child("sweep");
    let stolen_ctx = sweep_ctx.child("c/3");
    let hex = |id: u64| TraceContext::hex(id);
    let begin = |journal: &Journal, name: &str, cell: Option<&str>| {
        journal
            .records
            .iter()
            .find(|r| {
                r.phase == wcms_obs::Phase::Begin
                    && r.name == name
                    && cell.is_none_or(|c| r.field("cell").and_then(json::Value::as_str) == Some(c))
            })
            .cloned()
            .unwrap_or_else(|| panic!("no Begin '{name}' ({cell:?}) in journal"))
    };
    for journal in [&journal_a, &journal_b] {
        let sweep = begin(journal, "sweep", None);
        assert_eq!(
            sweep.field("trace").and_then(json::Value::as_str),
            Some(hex(root.trace.0).as_str())
        );
        assert_eq!(
            sweep.field("span").and_then(json::Value::as_str),
            Some(hex(sweep_ctx.span.0).as_str())
        );
        assert_eq!(
            sweep.field("parent").and_then(json::Value::as_str),
            Some(hex(root.span.0).as_str()),
            "a worker sweep must parent to the admitted root span"
        );
    }
    let stolen = begin(&journal_b, "cell", Some("c/3"));
    assert_eq!(
        stolen.field("trace").and_then(json::Value::as_str),
        Some(hex(root.trace.0).as_str())
    );
    assert_eq!(
        stolen.field("span").and_then(json::Value::as_str),
        Some(hex(stolen_ctx.span.0).as_str())
    );
    assert_eq!(
        stolen.field("parent").and_then(json::Value::as_str),
        Some(hex(sweep_ctx.span.0).as_str()),
        "the stolen cell must parent to the original sweep span"
    );
    // The durable-state event carries the same causal identity.
    let commit = journal_b
        .records
        .iter()
        .find(|r| {
            r.name == "checkpoint-commit"
                && r.field("cell").and_then(json::Value::as_str) == Some("c/3")
        })
        .expect("stolen cell must commit a checkpoint");
    assert_eq!(
        commit.field("span").and_then(json::Value::as_str),
        Some(hex(stolen_ctx.span.0).as_str())
    );

    // The three per-process journals join into one causally-valid tree
    // with exactly one root: the admitting request span.
    drop(request_span);
    let (records0, dropped0) = ring0.drain();
    let journal0 = parse_journal(&journal_jsonl(&records0, dropped0)).unwrap();
    let joined = join_journals(&[
        ("admitter.jsonl".into(), journal0),
        ("wa.jsonl".into(), journal_a),
        ("wb.jsonl".into(), journal_b),
    ])
    .unwrap();
    assert!(joined.1.is_ok(), "join must be causally clean: {:?}", joined.1.errors());
    assert_eq!(joined.1.roots, 1, "the admitted request span is the only root: {:?}", joined.1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep on a *virtual* clock still reports a (virtual) wall time and
/// finishes in real milliseconds — even with 100 s of configured
/// backoff, because any backoff would be taken in virtual time too.
#[test]
fn virtual_clock_sweep_is_deterministic_and_non_blocking() {
    let obs = Obs::enabled(Clock::virtual_us(1));
    let opts = SweepOptions {
        sweep: SweepConfig { min_doublings: 1, max_doublings: 2, runs: 1 },
        resilience: ResilienceConfig {
            retries: 2,
            backoff: Duration::from_secs(100),
            obs,
            ..ResilienceConfig::none()
        },
        backend: BackendKind::Analytic,
        algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
        jobs: 1,
        shard: wcms_bench::shard::ShardPolicy::Off,
    };
    let device = DeviceSpec::test_device();
    let configs = [Config { label: "T".into(), params: SortParams::new(32, 7, 64).unwrap() }];
    let started = std::time::Instant::now();
    let report = throughput_figure("obs-virt", &device, &configs, &opts);
    assert!(report.skipped.is_empty());
    assert!(started.elapsed() < Duration::from_secs(30), "virtual time must not block");
    assert!(report.stats.wall_s > 0.0, "virtual clock still measures a wall time");
}
