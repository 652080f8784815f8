//! Every sweep binary accepts exactly the flags of its table: anything
//! else exits 2, names the token, and leaves the working directory
//! empty — no checkpoint store opens. No regression case below may run
//! at all: accepting it would measure something other than what was
//! typed.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

use refusal::{assert_documented, assert_refused, run_in_empty_dir};

const BINARIES: [(&str, &str); 11] = [
    (env!("CARGO_BIN_EXE_ablation"), include_str!("../src/bin/ablation.rs")),
    (env!("CARGO_BIN_EXE_chaos"), include_str!("../src/bin/chaos.rs")),
    (env!("CARGO_BIN_EXE_compare_sorts"), include_str!("../src/bin/compare_sorts.rs")),
    (env!("CARGO_BIN_EXE_crossval"), include_str!("../src/bin/crossval.rs")),
    (env!("CARGO_BIN_EXE_esweep"), include_str!("../src/bin/esweep.rs")),
    (env!("CARGO_BIN_EXE_fig4"), include_str!("../src/bin/fig4.rs")),
    (env!("CARGO_BIN_EXE_fig5"), include_str!("../src/bin/fig5.rs")),
    (env!("CARGO_BIN_EXE_fig6"), include_str!("../src/bin/fig6.rs")),
    (env!("CARGO_BIN_EXE_karsin"), include_str!("../src/bin/karsin.rs")),
    (env!("CARGO_BIN_EXE_merge"), include_str!("../src/bin/merge.rs")),
    (env!("CARGO_BIN_EXE_summary"), include_str!("../src/bin/summary.rs")),
];

#[test]
fn every_binary_refuses_an_unknown_flag_before_any_side_effect() {
    for (bin, source) in BINARIES {
        let run = assert_refused(bin, &["--bogus"], "--bogus");
        assert_documented(source, &run);
    }
}

/// `--metrics --quick` must neither write a file named `--quick` nor
/// run the quick grid.
#[test]
fn a_value_flag_never_swallows_the_next_flag() {
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    let args = ["--no-checkpoint", "--backend", "analytic", "--metrics", "--quick"];
    let run = assert_refused(fig4, &args, "--metrics");
    assert!(run.stdout.is_empty(), "no grid may run:\n{}", run.stdout);
}

/// A misspelt `--rtx` must not print the M4000 table.
#[test]
fn esweep_refuses_a_misspelt_device() {
    let esweep = env!("CARGO_BIN_EXE_esweep");
    assert_refused(esweep, &["--quick", "--backend", "analytic", "--rxt"], "--rxt");
}

/// The ad-hoc tables have no checkpoint store and no shard flags.
#[test]
fn ad_hoc_tables_refuse_the_figure_only_flags() {
    for bin in [
        env!("CARGO_BIN_EXE_esweep"),
        env!("CARGO_BIN_EXE_compare_sorts"),
        env!("CARGO_BIN_EXE_ablation"),
    ] {
        assert_refused(bin, &["--quick", "--shard-index", "0", "--shard-count", "2"], "--shard");
        assert_refused(bin, &["--quick", "--markdown"], "--markdown");
    }
}

/// crossval has one grid, so it takes no arguments.
#[test]
fn crossval_takes_no_arguments() {
    let crossval = env!("CARGO_BIN_EXE_crossval");
    assert_refused(crossval, &["--quik"], "--quik");
    assert_refused(crossval, &["--quick"], "--quick");
}

/// karsin runs both algorithms in every cell and prints CSV only, so
/// it reads neither `--algorithm` nor `--markdown`.
#[test]
fn karsin_refuses_the_flags_it_ignored() {
    let karsin = env!("CARGO_BIN_EXE_karsin");
    assert_refused(karsin, &["--quick", "--algorithm", "multiway"], "--algorithm");
    assert_refused(karsin, &["--quick", "--markdown"], "--markdown");
}

/// karsin has no shard path: `merge` joins only the figure binaries,
/// so a shard would print half the rows and nothing could join them.
#[test]
fn karsin_has_no_shard_modes() {
    let karsin = env!("CARGO_BIN_EXE_karsin");
    assert_refused(karsin, &["--quick", "--shard-index", "0", "--shard-count", "2"], "--shard");
    assert_refused(karsin, &["--quick", "--steal", "--worker-id", "w"], "--steal");
}

/// summary prints a markdown table either way.
#[test]
fn summary_refuses_markdown() {
    assert_refused(env!("CARGO_BIN_EXE_summary"), &["--quick", "--markdown"], "--markdown");
}

/// `summary --beta` reads no cell: it opens no checkpoint store (which
/// would clear summary's cells), and it refuses the flags it does not
/// read.
#[test]
fn summary_beta_reads_no_checkpoint_store() {
    let summary = env!("CARGO_BIN_EXE_summary");
    let run = run_in_empty_dir(summary, &["--quick", "--backend", "analytic", "--beta"]);
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    assert!(run.stdout.contains("| random |"), "{}", run.stdout);
    assert!(run.left.is_empty(), "--beta left {:?} behind", run.left);
    assert_refused(summary, &["--beta", "--jobs", "2"], "--jobs 2");
    assert_refused(summary, &["--quick", "--beta", "--resume"], "--resume");
    assert_refused(summary, &["--beta", "--steal", "--worker-id", "w"], "--steal");
}

/// merge always replays, and `--figure` is required and must name a
/// figure; neither refusal may open a store.
#[test]
fn merge_refuses_before_opening_a_store() {
    let merge = env!("CARGO_BIN_EXE_merge");
    assert_refused(merge, &["--quick"], "--figure");
    assert_refused(merge, &["--figure", "fig7", "--quick"], "fig7");
    assert_refused(merge, &["--figure", "fig4", "--replay"], "--replay");
}

/// A value that does not parse names the flag and the value, and a
/// repeated flag is refused; neither falls back to a default.
#[test]
fn bad_values_and_repeats_are_usage_errors() {
    let fig4 = env!("CARGO_BIN_EXE_fig4");
    assert_refused(fig4, &["--quick", "--jobs", "x"], "--jobs x");
    assert_refused(fig4, &["--quick", "--jobs", "0"], "--jobs 0");
    assert_refused(fig4, &["--quick", "--backend", "gpu"], "--backend gpu");
    assert_refused(fig4, &["--quick", "--jobs", "2", "--jobs", "4"], "--jobs");
    assert_refused(env!("CARGO_BIN_EXE_chaos"), &["--cycles", "many"], "--cycles many");
}
