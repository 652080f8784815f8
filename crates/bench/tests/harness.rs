//! Integration tests of the figure harness at quick scale: layout,
//! determinism and the orderings the paper's figures rely on.

use wcms_bench::experiment::{measure_on, SweepConfig};
use wcms_bench::figures::{throughput_figure, Config};
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::series::to_csv;
use wcms_bench::shard::ShardPolicy;
use wcms_bench::summary::slowdown_table;
use wcms_bench::supervisor::SweepOptions;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{AlgorithmKind, BackendKind, SortParams};
use wcms_workloads::WorkloadSpec;

fn tiny_opts() -> SweepOptions {
    SweepOptions {
        sweep: SweepConfig { min_doublings: 1, max_doublings: 3, runs: 1 },
        resilience: ResilienceConfig::none(),
        backend: BackendKind::Sim,
        algorithm: AlgorithmKind::Pairwise,
        jobs: 1,
        shard: ShardPolicy::Off,
    }
}

#[test]
fn figure_runner_produces_paired_series_with_positive_slowdowns() {
    let device = DeviceSpec::quadro_m4000();
    let configs = [
        Config { label: "Thrust".into(), params: SortParams::new(32, 15, 128).unwrap() },
        Config { label: "Mini".into(), params: SortParams::new(32, 7, 64).unwrap() },
    ];
    let report = throughput_figure("t", &device, &configs, &tiny_opts());
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert_eq!(report.series.len(), 4);
    let table = slowdown_table(&report.series);
    assert_eq!(table.len(), 2);
    for (label, s) in &table {
        assert!(
            s.average_percent > 0.0,
            "{label}: worst case must average slower, got {}",
            s.average_percent
        );
        assert!(s.peak_percent >= s.average_percent);
    }
    // Larger N (more rounds) peaks the slowdown at the top of the sweep.
    assert_eq!(table[0].1.peak_n, configs[0].params.block_elems() << 3);
}

#[test]
fn csv_output_covers_every_point() {
    let device = DeviceSpec::test_device();
    let configs = [Config { label: "T".into(), params: SortParams::new(32, 5, 64).unwrap() }];
    let report = throughput_figure("t", &device, &configs, &tiny_opts());
    let csv = to_csv(&report.series, |m| m.throughput);
    // Header + 2 series × 3 sizes.
    assert_eq!(csv.lines().count(), 1 + 2 * 3);
    assert!(csv.starts_with("series,n,value\n"));
}

#[test]
fn measurements_are_deterministic() {
    let device = DeviceSpec::rtx_2080_ti();
    let params = SortParams::new(32, 7, 64).unwrap();
    let n = params.block_elems() * 4;
    for spec in
        [WorkloadSpec::WorstCase, WorkloadSpec::RandomPermutation { seed: 9 }, WorkloadSpec::Sorted]
    {
        let a = measure_on(&device, &params, spec, n, 2, BackendKind::Sim).unwrap();
        let b = measure_on(&device, &params, spec, n, 2, BackendKind::Sim).unwrap();
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "{}", spec.label());
        assert_eq!(a.beta2.to_bits(), b.beta2.to_bits(), "{}", spec.label());
    }
}

#[test]
fn beta_ordering_matches_theory_at_figure_level() {
    let device = DeviceSpec::quadro_m4000();
    let params = SortParams::new(32, 15, 64).unwrap();
    let n = params.block_elems() * 4;
    let sorted =
        measure_on(&device, &params, WorkloadSpec::Sorted, n, 1, BackendKind::Sim).unwrap();
    let random = measure_on(
        &device,
        &params,
        WorkloadSpec::RandomPermutation { seed: 1 },
        n,
        1,
        BackendKind::Sim,
    )
    .unwrap();
    let heavy = measure_on(
        &device,
        &params,
        WorkloadSpec::ConflictHeavy { stride: 8 },
        n,
        1,
        BackendKind::Sim,
    )
    .unwrap();
    let worst =
        measure_on(&device, &params, WorkloadSpec::WorstCase, n, 1, BackendKind::Sim).unwrap();
    assert!(sorted.beta2 <= random.beta2);
    assert!(random.beta2 < heavy.beta2, "stride heuristic must beat random in beta2");
    assert!(heavy.beta2 < worst.beta2);
    assert!((worst.beta2 - 15.0).abs() < 1e-9);
}
