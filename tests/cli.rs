//! The `wcms` CLI: every command has its own flag table, and a flag a
//! command does not read is refused before it runs — exit 2, the token
//! named, nothing written. In the regression cases a default must never
//! stand in for what was typed.

#[path = "support/refusal.rs"]
mod refusal;

use refusal::{assert_documented, assert_refused};

const WCMS: &str = env!("CARGO_BIN_EXE_wcms");
const SOURCE: &str = include_str!("../src/bin/wcms.rs");
const COMMANDS: [&str; 8] =
    ["generate", "evaluate", "sort", "assess", "occupancy", "genstream", "verify", "sortfile"];

#[test]
fn every_command_refuses_an_unknown_flag_before_any_side_effect() {
    let run = assert_refused(WCMS, &["--bogus"], "--bogus");
    assert_documented(SOURCE, &run);
    assert_eq!(run.stderr.lines().filter(|l| l.starts_with("usage: ")).count(), COMMANDS.len());
    for command in COMMANDS {
        let run = assert_refused(WCMS, &[command, "--bogus"], "--bogus");
        assert_documented(SOURCE, &run);
    }
}

/// `--e abc` must not run with the default E = 15.
#[test]
fn an_unparsable_value_is_refused_not_defaulted() {
    assert_refused(WCMS, &["sort", "--e", "abc"], "--e abc");
    assert_refused(WCMS, &["generate", "--n", "-5"], "--n -5");
}

/// `--inptu random` must not sort the default worst-case input.
#[test]
fn a_misspelt_flag_is_refused() {
    assert_refused(WCMS, &["sort", "--inptu", "random"], "--inptu");
    assert_refused(WCMS, &["sort", "--input", "randm"], "--input randm");
}

/// Each command's table holds only what it reads.
#[test]
fn a_flag_another_command_reads_is_refused() {
    assert_refused(WCMS, &["verify", "--file", "k.bin", "--w", "32"], "--w");
    assert_refused(WCMS, &["occupancy", "--n", "4096"], "--n");
    assert_refused(WCMS, &["evaluate", "--b", "512"], "--b");
    assert_refused(WCMS, &["assess", "--w", "32"], "--file <file> is required");
    assert_refused(WCMS, &["genstream", "--n", "0", "--out", "k.bin"], "--n 0");
}
