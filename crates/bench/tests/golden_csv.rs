//! Golden-CSV regression gate for the algorithm-generic driver: the
//! pairwise Figure 4 quick sweep must render byte-identical to the CSV
//! captured from the pre-refactor binary (`fig4 --quick
//! --no-checkpoint`). The analytic backend is used here because its
//! counters — and therefore the modelled throughput column — are
//! integer-identical to the simulator's; a byte diff on this file means
//! the `SortAlgorithm` generalization changed pairwise semantics.

use wcms_bench::experiment::SweepConfig;
use wcms_bench::figures::fig4;
use wcms_bench::panel::FigurePanel;
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::shard::ShardPolicy;
use wcms_bench::supervisor::SweepOptions;
use wcms_mergesort::{AlgorithmKind, BackendKind};

#[test]
fn pairwise_fig4_quick_csv_is_byte_identical_to_the_golden() {
    let opts = SweepOptions {
        sweep: SweepConfig::quick(),
        resilience: ResilienceConfig::none(),
        backend: BackendKind::Analytic,
        algorithm: AlgorithmKind::Pairwise,
        jobs: 4,
        shard: ShardPolicy::Off,
    };
    let report = fig4(&opts).unwrap();
    let (data, _) = FigurePanel::throughput_panel(
        "Fig. 4 — Quadro M4000 throughput (modelled), conflicts measured in simulation",
        report,
    )
    .render(BackendKind::Analytic, false);
    let golden = include_str!("golden/fig4_quick.csv");
    assert_eq!(
        data, golden,
        "pairwise fig4 CSV drifted from the pre-refactor golden — the \
         algorithm-generic driver is no longer semantics-preserving"
    );
}
