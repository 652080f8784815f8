//! `wcms-trace`: inspect, validate and convert trace journals written
//! by `--trace`.
//!
//! ```text
//! wcms-trace validate <journal>...          structural check (exit 1 on failure)
//! wcms-trace summary  <journal>             per-name span/event/time table
//! wcms-trace chrome   <journal> [-o FILE]   convert to Chrome trace-event JSON
//! wcms-trace join     [--validate] <journal>... [-o FILE]  merge N per-process journals
//! wcms-trace diff     <a> <b>               compare span/event counts (exit 1 if they differ)
//! wcms-trace root     <seed> <stream>       print the deterministic root trace context
//! ```

use std::process::ExitCode;

use wcms_obs::journal::{
    chrome_from_journal, diff, join_journals, parse_journal, summarize, validate, Journal,
};
use wcms_obs::TraceContext;

const USAGE: &str = "usage: wcms-trace <validate|summary|chrome|join|diff|root> [args]
  validate <journal>...            exit 1 unless every journal is structurally valid
  summary  <journal>               print a per-name span/event/time table
  chrome   <journal> [-o FILE]     convert to Chrome trace-event JSON (stdout by default)
  join     [--validate] <journal>... [-o FILE]
                                   merge per-process journals into one causally-checked
                                   Chrome trace (clock offsets from journal epoch records);
                                   --validate exits 1 on orphan/cycle/non-monotonic spans
  diff     <a> <b>                 compare span/event counts; exit 1 if they differ
  root     <seed> <stream>         print the deterministic root context for (seed, stream)";

fn load(path: &str) -> Result<Journal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    parse_journal(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or_else(|| USAGE.to_string())?;
    match cmd.as_str() {
        "validate" => cmd_validate(rest),
        "summary" => cmd_summary(rest),
        "chrome" => cmd_chrome(rest),
        "join" => cmd_join(rest),
        "diff" => cmd_diff(rest),
        "root" => cmd_root(rest),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn cmd_validate(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err(format!("validate: no journals given\n{USAGE}"));
    }
    let mut failures = 0usize;
    for path in paths {
        let journal = load(path)?;
        let report = validate(&journal);
        if report.dropped > 0 {
            // Reported by count (the emitter's obs_dropped_spans_total),
            // not only as a pass/fail verdict.
            println!("{path}: dropped records: {}", report.dropped);
        }
        if report.is_ok() {
            println!(
                "{path}: ok ({} records, {} spans matched)",
                report.records, report.matched_spans
            );
        } else {
            failures += 1;
            println!("{path}: INVALID ({} records)", report.records);
            for err in &report.errors {
                println!("  {err}");
            }
        }
    }
    if failures > 0 {
        Err(format!("{failures} of {} journals failed validation", paths.len()))
    } else {
        Ok(())
    }
}

fn cmd_summary(paths: &[String]) -> Result<(), String> {
    let [path] = paths else {
        return Err(format!("summary: expected exactly one journal\n{USAGE}"));
    };
    print!("{}", summarize(&load(path)?));
    Ok(())
}

/// Split `[-o FILE]` off an argument list.
fn split_output(args: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let mut inputs = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-o" || a == "--output" {
            out = Some(it.next().ok_or_else(|| format!("{a}: missing file operand"))?.to_string());
        } else {
            inputs.push(a.clone());
        }
    }
    Ok((inputs, out))
}

fn emit(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{path}: cannot write: {e}"))?;
            eprintln!("# wrote {path}");
            Ok(())
        }
    }
}

fn cmd_chrome(args: &[String]) -> Result<(), String> {
    let (inputs, out) = split_output(args)?;
    let [path] = inputs.as_slice() else {
        return Err(format!("chrome: expected exactly one journal\n{USAGE}"));
    };
    emit(&chrome_from_journal(&load(path)?), out.as_deref())
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    let (inputs, out) = split_output(args)?;
    let (flags, paths): (Vec<&String>, Vec<&String>) =
        inputs.iter().partition(|a| a.as_str() == "--validate");
    let strict = !flags.is_empty();
    if paths.is_empty() {
        return Err(format!("join: no journals given\n{USAGE}"));
    }
    let mut journals = Vec::with_capacity(paths.len());
    for path in &paths {
        journals.push(((*path).clone(), load(path)?));
    }
    let (chrome, report) = join_journals(&journals)?;
    eprintln!(
        "# joined {} journals: {} records, {} spans ({} roots), {} dropped",
        report.files, report.records, report.spans, report.roots, report.dropped
    );
    for err in report.errors() {
        eprintln!("# {err}");
    }
    emit(&chrome, out.as_deref())?;
    if strict && !report.is_ok() {
        return Err(format!(
            "join: causality validation failed ({} orphans, {} cycles, {} non-monotonic)",
            report.orphans.len(),
            report.cycles.len(),
            report.non_monotonic.len()
        ));
    }
    Ok(())
}

fn cmd_root(args: &[String]) -> Result<(), String> {
    let [seed, stream] = args else {
        return Err(format!("root: expected <seed> <stream>\n{USAGE}"));
    };
    let seed = match seed.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => seed.parse(),
    }
    .map_err(|e| format!("root: bad seed '{seed}': {e}"))?;
    println!("{}", TraceContext::root(seed, stream).encode());
    Ok(())
}

fn cmd_diff(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err(format!("diff: expected exactly two journals\n{USAGE}"));
    };
    let lines = diff(&load(a)?, &load(b)?);
    if lines.is_empty() {
        println!("journals agree: same span/event counts per name");
        Ok(())
    } else {
        for line in &lines {
            println!("{line}");
        }
        Err(format!("{} names differ between {a} and {b}", lines.len()))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("wcms-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}
