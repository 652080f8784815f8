//! Golden-CSV regression gate for every figure: each `--quick` sweep
//! must render byte-identical to the CSV its binary printed when the
//! golden was captured (`fig4 --quick --no-checkpoint`, likewise fig5,
//! fig6 and `fig4 --quick --algorithm multiway`). The panels are built
//! through `build_figure_panels`, the registry the figure binaries and
//! `merge` share.
//!
//! The analytic backend is used here because its counters — and
//! therefore the modelled throughput column — are integer-identical to
//! the simulator's. Since both backends run the same kernel bodies,
//! `crossval`'s sim == analytic check cannot see a change to the stage
//! sequence itself (load, register sort, merge stages, store); a byte
//! diff here does.

use wcms_bench::experiment::SweepConfig;
use wcms_bench::panel::build_figure_panels;
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::shard::ShardPolicy;
use wcms_bench::supervisor::SweepOptions;
use wcms_mergesort::{AlgorithmKind, BackendKind};

/// The CSV `figure --quick --backend analytic` prints for `algorithm`:
/// every panel's data rows, in panel order.
fn quick_csv(figure: &str, algorithm: AlgorithmKind) -> String {
    let opts = SweepOptions {
        sweep: SweepConfig::quick(),
        resilience: ResilienceConfig::none(),
        backend: BackendKind::Analytic,
        algorithm,
        jobs: 4,
        shard: ShardPolicy::Off,
    };
    build_figure_panels(figure, &opts)
        .unwrap()
        .iter()
        .map(|panel| panel.render(BackendKind::Analytic, false).0)
        .collect()
}

#[test]
fn pairwise_fig4_quick_csv_is_byte_identical_to_the_golden() {
    assert_eq!(
        quick_csv("fig4", AlgorithmKind::Pairwise),
        include_str!("golden/fig4_quick.csv"),
        "pairwise fig4 CSV drifted from the golden — the sort's pairwise \
         semantics changed"
    );
}

#[test]
fn multiway_fig4_quick_csv_is_byte_identical_to_the_golden() {
    assert_eq!(
        quick_csv("fig4", AlgorithmKind::Multiway),
        include_str!("golden/fig4_multiway_quick.csv"),
        "multiway fig4 CSV drifted from the golden — the k-way merge \
         unit's semantics changed"
    );
}

#[test]
fn fig5_quick_csv_is_byte_identical_to_the_golden() {
    assert_eq!(
        quick_csv("fig5", AlgorithmKind::Pairwise),
        include_str!("golden/fig5_quick.csv"),
        "fig5 CSV (both panels) drifted from the golden"
    );
}

#[test]
fn fig6_quick_csv_is_byte_identical_to_the_golden() {
    assert_eq!(
        quick_csv("fig6", AlgorithmKind::Pairwise),
        include_str!("golden/fig6_quick.csv"),
        "fig6 CSV (runtime and conflict sections) drifted from the golden"
    );
}
