//! The probed backend only observes: a sort through `Probe<B>` returns
//! the output and `SortReport` of the bare backend, bit for bit, while
//! recording a span for every kind of work unit.

use std::collections::BTreeSet;
use std::sync::Arc;

use wcms_benchmark::probe::Probe;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::params::SortVariant;
use wcms_mergesort::{sort_with_report_on, AnalyticBackend, ExecBackend, SimBackend, SortParams};
use wcms_obs::{Clock, Obs, RingCollector};
use wcms_workloads::WorkloadSpec;

fn assert_probe_is_transparent(backend: impl ExecBackend + Copy, params: SortParams) {
    let ring = Arc::new(RingCollector::new());
    let obs = Obs::with_recorder(ring.clone(), Clock::wall());
    let n = params.block_elems() * 4;
    for spec in [WorkloadSpec::WorstCase, WorkloadSpec::RandomPermutation { seed: 7 }] {
        let input = spec.generate(n, params.w, params.e, params.b).unwrap();
        let bare = sort_with_report_on(&input, &params, &backend).unwrap();
        let probed = sort_with_report_on(&input, &params, &Probe::new(backend, &obs)).unwrap();
        assert_eq!(bare, probed, "{} {:?} {spec:?}", backend.name(), params.variant);
    }
    let (records, dropped) = ring.drain();
    assert_eq!(dropped, 0);
    let names: BTreeSet<&str> = records.iter().map(|r| r.name).collect();
    let mut expected =
        vec!["backend.base_block", "backend.merge_unit", "mergepath.corank", "schedule.walk"];
    if params.variant == SortVariant::ModernGpu {
        expected.push("backend.partition_unit");
    }
    for name in expected {
        assert!(names.contains(name), "{name} not recorded: {names:?}");
    }
}

#[test]
fn probed_sorts_are_bit_identical_on_both_counting_backends() {
    let device = DeviceSpec::quadro_m4000();
    let thrust = SortParams::thrust(&device).unwrap();
    let mgpu = SortParams::mgpu(&device).unwrap();
    for params in [thrust, mgpu] {
        assert_probe_is_transparent(SimBackend, params);
        assert_probe_is_transparent(AnalyticBackend, params);
    }
}
