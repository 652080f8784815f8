//! The §IV-B inline statistics in one table: per device / library /
//! parameter set, the peak and average worst-case slowdown — plus the
//! Karsin β₁/β₂ averages on random inputs and their growth with
//! inversions (`--beta`, which reads only the grid switches and
//! `--backend`, and refuses every other flag).
//!
//! Usage: `summary [--quick] [--standard] [--full] [--beta] [--backend <sim|analytic|reference>]
//!                 [--algorithm <pairwise|multiway>] [--jobs <n>] [--resume] [--timeout <secs>]
//!                 [--retries <k>] [--checkpoint-dir <dir>] [--no-checkpoint] [--trace <path>]
//!                 [--trace-parent <t/s>] [--metrics <path>] [--shard-index <i>]
//!                 [--shard-count <n>] [--steal] [--worker-id <id>] [--lease-ttl <secs>]
//!                 [--replay]`

use std::process::ExitCode;

use wcms_bench::cliargs::{
    grid, parse_figure_args, shard_from_args, ALGORITHM, BACKEND, GRID, JOBS, OBSERVABILITY,
    RESILIENCE, SHARD,
};
use wcms_bench::experiment::{measure_on, SweepConfig};
use wcms_bench::figures::{fig4, fig5_mgpu, fig5_thrust};
use wcms_bench::resilient::SkippedCell;
use wcms_bench::summary::slowdown_table;
use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{BackendKind, SortParams};
use wcms_workloads::WorkloadSpec;

const CLI: Cli = Cli {
    name: "summary",
    flags: &[
        GRID,
        &[Flag::switch("--beta"), BACKEND, ALGORITHM, JOBS],
        RESILIENCE,
        OBSERVABILITY,
        SHARD,
    ],
};

fn main() -> ExitCode {
    cli::main(&CLI, run)
}

fn run(argv: &Args) -> Result<(), WcmsError> {
    // `--beta` reads no cell, so it opens no checkpoint store and takes
    // only the grid and the backend.
    if argv.has("--beta") {
        argv.only("--beta", &["--quick", "--standard", "--full", "--backend"])?;
        return beta_report(&grid(argv), argv.get("--backend")?.unwrap_or_default());
    }
    let args = parse_figure_args("summary", argv, shard_from_args(argv)?)?;

    let partial = args.opts.shard.partial_output();
    if !partial {
        println!(
            "| device | configuration | peak slowdown | at N | avg slowdown | paper peak | paper avg |"
        );
        println!("|---|---|---|---|---|---|---|");
    }
    let paper = [
        (
            "Quadro M4000",
            vec![("Thrust E=15 b=512", 50.49, 43.53), ("ModernGPU E=15 b=128", 33.82, 27.3)],
        ),
        (
            "RTX 2080 Ti",
            vec![("Thrust E=15 b=512", 42.43, 33.31), ("Thrust E=17 b=256", 22.94, 16.54)],
        ),
        (
            "RTX 2080 Ti",
            vec![("ModernGPU E=15 b=512", 42.62, 35.25), ("ModernGPU E=17 b=256", 20.34, 12.97)],
        ),
    ];
    let reports = [fig4(&args.opts)?, fig5_thrust(&args.opts)?, fig5_mgpu(&args.opts)?];
    let skipped: Vec<SkippedCell> =
        reports.iter().flat_map(|r| r.skipped.iter().cloned()).collect();
    for (figure, report) in ["fig4", "fig5-thrust", "fig5-mgpu"].iter().zip(&reports) {
        eprintln!("{}", report.stats.summary_line(figure));
    }
    if partial {
        // A shard holds only its slice of the three grids: suppress
        // the (partial) table and export this shard's counters for the
        // merge step, exactly like the figure binaries.
        if let (Some(worker), Some(store)) =
            (args.opts.shard.worker_label(), &args.opts.resilience.checkpoint)
        {
            let name = format!("shard-metrics-{}.prom", wcms_bench::checkpoint::sanitize(&worker));
            store.write_aux(&name, &args.obs().metrics.prometheus_text())?;
        }
        eprintln!(
            "# shard: table suppressed; re-run with --replay against the shared checkpoint dir"
        );
        return args.export_observability();
    }
    for ((device, paper_rows), report) in paper.into_iter().zip(reports) {
        for ((label, s), (_, peak, avg)) in
            slowdown_table(&report.series).into_iter().zip(paper_rows)
        {
            println!(
                "| {device} | {label} | {:.2}% | {} | {:.2}% | {peak}% | {avg}% |",
                s.peak_percent, s.peak_n, s.average_percent
            );
        }
    }
    for gap in &skipped {
        println!("# gap,{},{},attempts={},{}", gap.series, gap.n, gap.attempts, gap.reason);
    }
    Ok(())
}

/// β₁/β₂ on random inputs (Karsin et al. report β₁ = 3.1, β₂ = 2.2 for
/// Modern GPU) and their growth with inversion count.
fn beta_report(sweep: &SweepConfig, backend: BackendKind) -> Result<(), WcmsError> {
    let device = DeviceSpec::quadro_m4000();
    let params = SortParams::mgpu(&device)?;
    let n = params.block_elems() << sweep.max_doublings.min(6);

    println!("| workload | inversions-ish | beta1 | beta2 |");
    println!("|---|---|---|---|");
    let workloads = [
        ("sorted", WorkloadSpec::Sorted),
        ("1e2 swaps", WorkloadSpec::KSwaps { swaps: 100, seed: 7 }),
        ("1e4 swaps", WorkloadSpec::KSwaps { swaps: 10_000, seed: 7 }),
        ("random", WorkloadSpec::RandomPermutation { seed: 7 }),
        ("reverse", WorkloadSpec::Reverse),
        ("worst-case", WorkloadSpec::WorstCase),
    ];
    for (label, spec) in workloads {
        let m = measure_on(&device, &params, spec, n, sweep.runs, backend)?;
        println!("| {label} | n={n} | {:.2} | {:.2} |", m.beta1, m.beta2);
    }
    println!();
    println!("(Karsin et al., ICS 2018: beta1 = 3.1, beta2 = 2.2 on random inputs for Modern GPU;");
    println!(" both grow with the number of inversions — compare the swap rows.)");
    Ok(())
}
