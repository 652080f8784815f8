//! Integration tests of the scale-out sharding layer: lease files,
//! deterministic jitter, and the static/steal/replay policies driving
//! a real (tiny) figure grid through one shared checkpoint store.

use std::time::Duration;

use proptest::prelude::*;
use wcms_bench::checkpoint::{decode_file, encode_file, CheckpointStore};
use wcms_bench::experiment::SweepConfig;
use wcms_bench::figures::{throughput_figure, Config};
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::series::to_csv;
use wcms_bench::shard::{jitter, LOST_PREFIX};
use wcms_bench::shard::{LeaseInfo, ShardPolicy};
use wcms_bench::supervisor::SweepOptions;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{AlgorithmKind, BackendKind, SortParams};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcms-shard-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts_with(store: CheckpointStore, shard: ShardPolicy) -> SweepOptions {
    SweepOptions {
        sweep: SweepConfig { min_doublings: 1, max_doublings: 3, runs: 1 },
        resilience: ResilienceConfig { checkpoint: Some(store), ..ResilienceConfig::none() },
        backend: BackendKind::Sim,
        algorithm: AlgorithmKind::Pairwise,
        jobs: 1,
        shard,
    }
}

fn tiny_grid(opts: &SweepOptions) -> wcms_bench::resilient::SweepReport {
    let device = DeviceSpec::test_device();
    let configs = [Config { label: "T".into(), params: SortParams::new(32, 5, 64).unwrap() }];
    throughput_figure("it", &device, &configs, opts)
}

#[test]
fn steal_workers_share_one_grid_and_replay_matches() {
    let dir = tmpdir("steal");

    // Worker a executes the whole grid (nobody to steal from).
    let store = CheckpointStore::open(&dir).unwrap();
    let opts_a = opts_with(
        store.clone(),
        ShardPolicy::Steal { worker: "a".into(), ttl: Duration::from_secs(30) },
    );
    let report_a = tiny_grid(&opts_a);
    assert!(report_a.skipped.is_empty(), "{:?}", report_a.skipped);
    assert_eq!(report_a.stats.cached, 0);
    assert_eq!(report_a.stats.done, report_a.stats.cells);

    // Worker b joins afterwards: every cell is already committed, so it
    // must replay all of them from the store — zero re-execution.
    let opts_b = opts_with(
        CheckpointStore::open(&dir).unwrap(),
        ShardPolicy::Steal { worker: "b".into(), ttl: Duration::from_secs(30) },
    );
    let report_b = tiny_grid(&opts_b);
    assert_eq!(report_b.stats.cached, report_b.stats.cells, "{:?}", report_b.stats);

    // And a replay renders the identical series.
    let opts_r = opts_with(CheckpointStore::open(&dir).unwrap(), ShardPolicy::Replay);
    let report_r = tiny_grid(&opts_r);
    assert_eq!(report_r.stats.cached, report_r.stats.cells);
    assert_eq!(
        to_csv(&report_a.series, |m| m.throughput),
        to_csv(&report_r.series, |m| m.throughput),
        "replayed series must be byte-identical to the executing worker's"
    );

    // No leases survive a clean run.
    let leases = std::fs::read_dir(dir.join("leases"))
        .map(|es| es.flatten().filter(|e| e.path().is_file()).count())
        .unwrap_or(0);
    assert_eq!(leases, 0, "clean completion must release every lease");
    let _ = std::fs::remove_dir_all(&dir);

    // One worker on two threads: its concurrent claims must never share
    // a temp file, so every cell is done and the series is unchanged.
    let dir = tmpdir("steal-jobs2");
    let mut opts_2 = opts_with(
        CheckpointStore::open(&dir).unwrap(),
        ShardPolicy::Steal { worker: "a".into(), ttl: Duration::from_secs(30) },
    );
    opts_2.jobs = 2;
    let report_2 = tiny_grid(&opts_2);
    assert!(report_2.skipped.is_empty(), "{:?}", report_2.skipped);
    assert_eq!(report_2.stats.panicked, 0, "{:?}", report_2.stats);
    assert_eq!(report_2.stats.done, report_2.stats.cells, "{:?}", report_2.stats);
    assert_eq!(
        to_csv(&report_a.series, |m| m.throughput),
        to_csv(&report_2.series, |m| m.throughput)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced worker stamps its sweep context into every lease it claims
/// — so the on-disk coordination state itself names the causal ancestor
/// — while an untraced worker's lease payload stays exactly the
/// pre-trace format.
#[test]
fn claimed_leases_carry_the_claimants_trace_context() {
    use wcms_bench::shard::{LeaseAttempt, LeaseStore};
    use wcms_obs::{TraceContext, TRACE_SEED};

    let dir = tmpdir("lease-trace");
    let store = CheckpointStore::open(&dir).unwrap();
    let ctx = TraceContext::root(TRACE_SEED, "fleet-obs-test").child("sweep");

    let traced = LeaseStore::open(&store, "wt", Duration::from_secs(60))
        .unwrap()
        .with_trace(Some(ctx.encode()));
    let guard = match traced.try_acquire("cell/traced").unwrap() {
        LeaseAttempt::Acquired(g) => g,
        LeaseAttempt::Held { .. } => panic!("fresh claim must win"),
    };
    let lease_file = dir.join("leases").join("lease-cell_traced.json");
    let text = std::fs::read_to_string(&lease_file).unwrap();
    let info = LeaseInfo::decode(decode_file(&text).unwrap()).expect("claimed lease must decode");
    assert_eq!(info.worker, "wt");
    assert_eq!(info.trace.as_deref(), Some(ctx.encode().as_str()));
    drop(guard);

    let plain = LeaseStore::open(&store, "wp", Duration::from_secs(60)).unwrap();
    match plain.try_acquire("cell/plain").unwrap() {
        LeaseAttempt::Acquired(g) => {
            let lease_file = dir.join("leases").join("lease-cell_plain.json");
            let text = std::fs::read_to_string(&lease_file).unwrap();
            let payload = decode_file(&text).unwrap();
            assert!(
                !payload.contains("trace"),
                "an untraced lease must stay byte-compatible with pre-trace workers: {payload}"
            );
            drop(g);
        }
        LeaseAttempt::Held { .. } => panic!("fresh claim must win"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_shards_compose_into_the_full_grid() {
    let dir = tmpdir("static");
    let unsharded = tiny_grid(&opts_with(CheckpointStore::open(&dir).unwrap(), ShardPolicy::Off));
    let full_csv = to_csv(&unsharded.series, |m| m.throughput);
    let _ = std::fs::remove_dir_all(&dir);

    // Two static shards share one store. Each executes only its slice;
    // a foreign cell is deferred while uncommitted (excluded from the
    // gap report and the stats — it is another shard's work) and a
    // cache hit once the owning shard has committed it.
    let full = unsharded.stats.cells;
    let mut executed = 0;
    for index in 0..2 {
        let opts = opts_with(
            CheckpointStore::open(&dir).unwrap(),
            ShardPolicy::Static { index, count: 2 },
        );
        let report = tiny_grid(&opts);
        assert!(report.skipped.is_empty(), "deferred cells are not gaps: {:?}", report.skipped);
        let ran = report.stats.done - report.stats.cached;
        assert!(ran > 0 && ran < full, "{:?}", report.stats);
        executed += ran;
    }
    assert_eq!(executed, full, "the two shards must partition the grid exactly");

    // The replay of the union must equal the unsharded run exactly.
    let merged = tiny_grid(&opts_with(CheckpointStore::open(&dir).unwrap(), ShardPolicy::Replay));
    assert!(merged.skipped.is_empty(), "{:?}", merged.skipped);
    assert_eq!(to_csv(&merged.series, |m| m.throughput), full_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_of_an_empty_store_reports_every_cell_lost() {
    let dir = tmpdir("lost");
    let report = tiny_grid(&opts_with(CheckpointStore::open(&dir).unwrap(), ShardPolicy::Replay));
    assert_eq!(report.skipped.len(), report.stats.cells);
    for skip in &report.skipped {
        assert!(skip.reason.starts_with(LOST_PREFIX), "{:?}", skip.reason);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jitter_is_deterministic_bounded_and_worker_dependent() {
    let max = Duration::from_millis(500);
    let a1 = jitter(7, "w0/cell", 1, max);
    assert_eq!(a1, jitter(7, "w0/cell", 1, max), "same inputs, same jitter");
    assert!(a1 < max);
    // Different shard ids (the stream) must not synchronize: that is
    // the whole point of seeding by worker rather than by pid.
    assert_ne!(jitter(7, "w0/cell", 1, max), jitter(7, "w1/cell", 1, max));
    assert_ne!(jitter(7, "w0/cell", 1, max), jitter(7, "w0/cell", 2, max));
    assert_eq!(jitter(7, "w0/cell", 1, Duration::ZERO), Duration::ZERO);
}

proptest! {
    /// Lease payloads round-trip through encode/decode for arbitrary
    /// field values, including worker ids that need JSON escaping.
    /// `pid`/`deadline_ms` are JSON numbers, exact up to 2^53 (the
    /// codec parses through f64); fingerprints are hex strings and
    /// cover the full u64 range.
    #[test]
    fn lease_info_round_trips(
        pid in 0u64..(1 << 53),
        worker_bytes in proptest::collection::vec(32u8..127, 0..24),
        fingerprint in 0u64..u64::MAX,
        deadline_ms in 0u64..(1 << 53),
    ) {
        let worker = String::from_utf8(worker_bytes).unwrap();
        let info = LeaseInfo { pid, worker, fingerprint, deadline_ms, trace: None };
        let decoded = LeaseInfo::decode(&info.encode());
        prop_assert_eq!(decoded, Some(info));
    }

    /// Any single-bit flip anywhere in a framed lease file is caught by
    /// the checksum footer or the payload parse — it can never decode
    /// to a *different* lease. (The one benign survivor is a case flip
    /// inside the footer's hex digits, which leaves the payload — and
    /// therefore the decoded lease — byte-identical.)
    #[test]
    fn framed_lease_bitflips_never_decode_differently(
        pid in 0u64..(1 << 53),
        fingerprint in 0u64..u64::MAX,
        deadline_ms in 0u64..(1 << 53),
        byte_sel in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let info = LeaseInfo { pid, worker: "w".into(), fingerprint, deadline_ms, trace: None };
        let framed = encode_file(&info.encode());
        let mut bytes = framed.into_bytes();
        let at = (byte_sel % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        let decoded = String::from_utf8(bytes)
            .ok()
            .and_then(|text| decode_file(&text).ok().and_then(LeaseInfo::decode));
        match decoded {
            None => {}
            Some(got) => prop_assert_eq!(got, info, "flip at {}:{} forged a lease", at, bit),
        }
    }

    /// Jitter never exceeds its bound and never depends on ambient
    /// state: two computations of the same point agree exactly.
    #[test]
    fn jitter_is_pure_and_bounded(
        seed in 0u64..u64::MAX,
        stream_sel in 0u64..100_000,
        attempt in 0u64..64,
        max_ms in 1u64..10_000,
    ) {
        let stream = format!("w{}/{}", stream_sel % 37, stream_sel / 37);
        let max = Duration::from_millis(max_ms);
        let d = jitter(seed, &stream, attempt, max);
        prop_assert!(d < max);
        prop_assert_eq!(d, jitter(seed, &stream, attempt, max));
    }
}
