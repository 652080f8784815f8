//! `wcms-analyze` refuses a command line outside its table: exit 2,
//! the token named, and nothing written.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

use refusal::{assert_documented, assert_refused};

const ANALYZE: &str = env!("CARGO_BIN_EXE_wcms-analyze");

#[test]
fn unknown_flags_and_empty_runs_are_usage_errors() {
    let run = assert_refused(ANALYZE, &["--bogus"], "--bogus");
    assert_documented(include_str!("../src/bin/wcms-analyze.rs"), &run);
    assert_refused(ANALYZE, &[], "nothing to do");
    assert_refused(ANALYZE, &["--lint", "--warp", "w"], "--warp w");
}
