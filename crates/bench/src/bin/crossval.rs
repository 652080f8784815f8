//! Cross-validate the analytic backend against the cycle-accurate
//! simulator: run both over the Fig. 4 presets and the §III worst-case
//! families, demand integer-identical outputs and reports, and print
//! the wall-clock speedup. Exits 1 on any divergence, so CI can use it
//! as a gate.
//!
//! Usage: `crossval`

use std::process::ExitCode;

use wcms_bench::crossval::{cross_validate, default_jobs};
use wcms_error::cli::{self, Cli};

fn main() -> ExitCode {
    cli::main(&Cli { name: "crossval", flags: &[] }, |_| {
        let report = cross_validate(&default_jobs()?)?;
        print!("{}", report.render());
        if report.all_equal() {
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!("crossval: {} cell(s) diverged", report.mismatches().len());
        Ok(ExitCode::FAILURE)
    })
}
