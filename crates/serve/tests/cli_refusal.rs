//! The daemon and the load generator refuse a command line outside
//! their tables before any side effect: exit 2, the token named, no
//! `state/serve` directory, and no socket bound.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

use refusal::{assert_documented, assert_refused};

const SERVE: &str = env!("CARGO_BIN_EXE_wcms-serve");
const LOAD: &str = env!("CARGO_BIN_EXE_wcms-load");

#[test]
fn both_binaries_refuse_an_unknown_flag_before_any_side_effect() {
    let run = assert_refused(SERVE, &["--addr", "127.0.0.1:0", "--bogus"], "--bogus");
    assert!(!run.stdout.contains("listening on"), "it bound a socket:\n{}", run.stdout);
    assert_documented(include_str!("../src/bin/wcms-serve.rs"), &run);
    let run = assert_refused(LOAD, &["--bogus"], "--bogus");
    assert_documented(include_str!("../src/bin/wcms-load.rs"), &run);
}

/// A misspelt `--cache-dir` must not serve from the default
/// state/serve.
#[test]
fn a_misspelt_state_directory_is_refused() {
    let run = assert_refused(SERVE, &["--addr", "127.0.0.1:0", "--cache-dri", "X"], "--cache-dri");
    assert!(!run.stdout.contains("listening on"), "it bound a socket:\n{}", run.stdout);
}

#[test]
fn bad_values_are_usage_errors() {
    assert_refused(SERVE, &["--addr", "127.0.0.1:0", "--workers", "two"], "--workers two");
    assert_refused(LOAD, &["--rps", "50"], "--addr <host:port> is required");
    assert_refused(LOAD, &["--addr", "127.0.0.1:1", "--duration-s", "-1"], "--duration-s");
    // Checked in every mode, before any connection.
    assert_refused(LOAD, &["--addr", "127.0.0.1:1", "--scrape", "--rps", "fast"], "--rps fast");
    assert_refused(LOAD, &["--addr", "no-port", "--scrape"], "--addr no-port");
}

/// The probe modes read only `--addr` and `--deadline-ms`: a load flag
/// or the other mode is refused before the first connection (nothing
/// listens on port 1, so a connection attempt would exit 1).
#[test]
fn probe_modes_refuse_the_load_flags() {
    let probe = ["--addr", "127.0.0.1:1", "--probe", r#"{"op":"health"}"#];
    let with = |extra: &[&'static str]| [&probe[..], extra].concat();
    assert_refused(LOAD, &with(&["--out", "probe.json"]), "--out probe.json");
    assert_refused(LOAD, &with(&["--rps", "5", "--duration-s", "9"]), "--rps 5");
    assert_refused(LOAD, &with(&["--scrape"]), "--scrape");
    let scrape = ["--addr", "127.0.0.1:1", "--scrape", "--deadline-ms", "50"];
    assert_refused(LOAD, &[&scrape[..], &["--out", "m.txt"]].concat(), "--out m.txt");
    assert_refused(LOAD, &[&scrape[..], &["--seed", "3"]].concat(), "--seed 3");
}
