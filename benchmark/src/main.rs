//! `wcms-benchmark` — run one workload, or compare two results logs.
//!
//! ```text
//! wcms-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
//! wcms-benchmark compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! Run from the repository root: metrics are declared in
//! `BENCHMARK.json` there, and results go to `benchmark/out/`. A run
//! prints `workload metric value unit [n=samples]` lines, appends itself
//! to `benchmark/out/results.jsonl`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wcms_benchmark::report::{append_record, result_json, Catalogue};
use wcms_benchmark::{compare::compare, run, run_traced, Workload};

const SPEC: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";
const USAGE: &str = "usage: wcms-benchmark run --workload <name> --seed <u64> [--seconds <s>] \
                     [--trace <0|1>]\n       wcms-benchmark compare <parent.jsonl> <change.jsonl>";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag}: missing value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run_one(args: &RunArgs) -> Result<(), String> {
    let catalogue = Catalogue::load(Path::new(SPEC))?;
    let name = args.workload.name();
    if !catalogue.workloads.iter().any(|w| w == name) {
        return Err(format!("{SPEC} does not declare workload {name}"));
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let state = out_dir.join(format!("state-{}", std::process::id()));
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let result = if args.trace {
        run_traced(args.seed, &state, &out_dir)
    } else {
        run(args.workload, args.seed, args.seconds, &state)
    };
    let _ = std::fs::remove_dir_all(&state);
    let mut outcome = result?;
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let specs = if args.trace { &catalogue.per_layer } else { &catalogue.end_to_end };
    let metrics = outcome.select(specs);
    for (spec, value, samples) in &metrics {
        let n = samples.map_or(String::new(), |n| format!(" n={n}"));
        println!("{name} {} {value} {}{n}", spec.name, spec.unit);
    }
    println!("{name} failed_frac {} ratio", outcome.failed as f64 / outcome.attempted as f64);
    if let Some(ms) = outcome.calibration_ms {
        println!("{name} calibration_ms {ms} ms");
    }
    for problem in &outcome.problems {
        eprintln!("{name}: incorrect: {problem}");
    }
    let line = result_json(outcome.correct(), outcome.attempted, outcome.failed, &metrics);
    append_record(
        &out_dir.join("results.jsonl"),
        name,
        args.seed,
        args.seconds,
        args.trace,
        outcome.calibration_ms,
        &metrics,
        &line,
    )?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|a| run_one(&a)).map(|()| true)
        }
        Some((cmd, [parent, change])) if cmd == "compare" => Catalogue::load(Path::new(SPEC))
            .and_then(|c| compare(&c, Path::new(parent), Path::new(change)))
            .map(|regression| !regression),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wcms-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
