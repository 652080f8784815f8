//! `wcms-analyze` — the workspace's static-analysis gate.
//!
//! Usage: `wcms-analyze [--verify-bounds] [--model-check] [--model-check-shard] [--crosscheck]
//!                      [--lint] [--all] [--warp <W>] [--doublings <D>] [--min-schedules <N>]
//!                      [--root <PATH>] [--allowlist <PATH>] [--json]`
//!
//! Exit status 0 when every requested pass is clean, 1 on any finding,
//! 2 on usage errors. CI runs `wcms-analyze --all` as a required job.

use std::path::PathBuf;
use std::process::ExitCode;

use wcms_analyzer::bounds::{verify_grid, verify_multiway_rounds};
use wcms_analyzer::crosscheck::{crosscheck_fig4, warp_grid_disagreements};
use wcms_analyzer::interleave::ExploreConfig;
use wcms_analyzer::lint::{json_str, lint_workspace};
use wcms_analyzer::model_fs::{check_fs_consistency, check_fs_mutations};
use wcms_analyzer::shard_model::{check_shard_mutations, check_shard_protocol};
use wcms_analyzer::supervisor_model::check_supervisor_protocol;
use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::WcmsError;

const CLI: Cli = Cli {
    name: "wcms-analyze",
    flags: &[&[
        Flag::switch("--verify-bounds"),
        Flag::switch("--model-check"),
        Flag::switch("--model-check-shard"),
        Flag::switch("--crosscheck"),
        Flag::switch("--lint"),
        Flag::switch("--all"),
        Flag::value("--warp", "W"),
        Flag::value("--doublings", "D"),
        Flag::value("--min-schedules", "N"),
        Flag::value("--root", "PATH"),
        Flag::value("--allowlist", "PATH"),
        Flag::switch("--json"),
    ]],
};

struct Options {
    verify_bounds: bool,
    model_check: bool,
    model_check_shard: bool,
    crosscheck: bool,
    lint: bool,
    json: bool,
    warp: usize,
    doublings: usize,
    min_schedules: usize,
    root: PathBuf,
    allowlist: Option<PathBuf>,
}

impl Options {
    fn from_args(args: &Args) -> Result<Self, WcmsError> {
        let pass = |flag| args.has("--all") || args.has(flag);
        let o = Options {
            verify_bounds: pass("--verify-bounds"),
            model_check: pass("--model-check"),
            model_check_shard: pass("--model-check-shard"),
            crosscheck: pass("--crosscheck"),
            lint: pass("--lint"),
            json: args.has("--json"),
            warp: args.get_or("--warp", 32)?,
            doublings: args.get_or("--doublings", 2)?,
            min_schedules: args.get_or("--min-schedules", 10_000)?,
            root: args.get_or("--root", PathBuf::from("."))?,
            allowlist: args.get("--allowlist")?,
        };
        if !(o.verify_bounds || o.model_check || o.model_check_shard || o.crosscheck || o.lint) {
            return Err(WcmsError::Usage {
                reason: "nothing to do — pick a pass or --all".into()
            });
        }
        Ok(o)
    }
}

fn main() -> ExitCode {
    cli::main(&CLI, |args| {
        let clean = analyze(&Options::from_args(args)?);
        Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
    })
}

/// Run the requested passes and print their reports; `true` when every
/// pass is clean.
fn analyze(o: &Options) -> bool {
    let mut ok = true;
    let mut json_sections: Vec<String> = Vec::new();

    if o.verify_bounds {
        // Multiway rounds for a representative tuning slice: co-prime,
        // shared-factor and power-of-two E under a 4-way fan-in. Rounds
        // with no closed form (the irregular interleavings) are
        // *reported*, never failed — only a stride-regular round that
        // misses its d·E form is a finding.
        let multiway: Vec<_> = [3usize, 5, 8]
            .into_iter()
            .filter(|&e| e < o.warp)
            .filter_map(|e| verify_multiway_rounds(o.warp, e, 4).ok())
            .flatten()
            .collect();
        let multiway_bad = multiway.iter().filter(|v| !v.holds()).count();
        match verify_grid(o.warp) {
            Ok(verdicts) => {
                let bad = verdicts.iter().filter(|v| !v.holds()).count() + multiway_bad;
                if o.json {
                    let items: Vec<String> = verdicts
                        .iter()
                        .map(|v| {
                            format!(
                                "{{\"e\":{},\"case\":{},\"aligned\":{},\"closed_form\":{},\
                                 \"min_cycles\":{},\"holds\":{}}}",
                                v.e,
                                json_str(v.case.name()),
                                v.aligned,
                                v.closed_form,
                                v.min_cycles,
                                v.holds()
                            )
                        })
                        .collect();
                    let mw_items: Vec<String> = multiway
                        .iter()
                        .map(|v| {
                            format!(
                                "{{\"e\":{},\"k\":{},\"round\":{},\"stride_regular\":{},\
                                 \"closed_form\":{},\"per_warp\":{:?},\"holds\":{}}}",
                                v.e,
                                v.k,
                                json_str(v.label),
                                v.stride_regular,
                                v.closed_form.map_or("null".into(), |c| c.to_string()),
                                v.per_warp_aligned,
                                v.holds()
                            )
                        })
                        .collect();
                    json_sections.push(format!(
                        "\"bounds\":{{\"w\":{},\"verdicts\":[{}],\"multiway\":[{}]}}",
                        o.warp,
                        items.join(","),
                        mw_items.join(",")
                    ));
                } else {
                    println!("== verify-bounds (w = {}) ==", o.warp);
                    for v in &verdicts {
                        println!(
                            "  E={:<2} {:<13} aligned={:<4} closed-form={:<4} min-cycles={:<4} {}",
                            v.e,
                            v.case.name(),
                            v.aligned,
                            v.closed_form,
                            v.min_cycles,
                            if v.holds() { "ok" } else { "FAIL" }
                        );
                        for f in &v.failures {
                            println!("       {f}");
                        }
                    }
                    for v in &multiway {
                        match v.closed_form {
                            Some(cf) => println!(
                                "  E={:<2} multiway k={} {:<11} per-warp {:?} closed-form={cf} {}",
                                v.e,
                                v.k,
                                v.label,
                                v.per_warp_aligned,
                                if v.holds() { "ok" } else { "FAIL" }
                            ),
                            None => println!(
                                "  E={:<2} multiway k={} {:<11} per-warp {:?} \
                                 no closed form (reported, not a failure)",
                                v.e, v.k, v.label, v.per_warp_aligned
                            ),
                        }
                        for f in &v.failures {
                            println!("       {f}");
                        }
                    }
                    println!(
                        "  {} verdicts ({} multiway rounds), {} failures",
                        verdicts.len(),
                        multiway.len(),
                        bad
                    );
                }
                ok &= bad == 0;
            }
            Err(e) => {
                eprintln!("verify-bounds: {e}");
                ok = false;
            }
        }
    }

    if o.model_check {
        let reports = check_supervisor_protocol(&ExploreConfig::default());
        let total: usize = reports.iter().map(|r| r.report.schedules).sum();
        let violations: usize = reports.iter().map(|r| r.report.violations.len()).sum();
        let clean = reports.iter().all(|r| r.report.clean()) && total >= o.min_schedules;
        if o.json {
            let items: Vec<String> = reports
                .iter()
                .map(|r| {
                    format!(
                        "{{\"scenario\":{},\"schedules\":{},\"states\":{},\"max_depth\":{},\
                         \"violations\":{},\"truncated\":{}}}",
                        json_str(r.name),
                        r.report.schedules,
                        r.report.states,
                        r.report.max_depth_seen,
                        r.report.violations.len(),
                        r.report.truncated
                    )
                })
                .collect();
            json_sections.push(format!(
                "\"model_check\":{{\"total_schedules\":{total},\"scenarios\":[{}]}}",
                items.join(",")
            ));
        } else {
            println!("== model-check (supervisor protocol) ==");
            for r in &reports {
                println!(
                    "  {:<24} {:>7} schedules, {:>8} states, depth {:>2}, {} violations{}",
                    r.name,
                    r.report.schedules,
                    r.report.states,
                    r.report.max_depth_seen,
                    r.report.violations.len(),
                    if r.report.truncated { " (TRUNCATED)" } else { "" }
                );
                for v in r.report.violations.iter().take(3) {
                    println!("       {} via {:?}", v.message, v.schedule);
                }
            }
            println!(
                "  {total} schedules total (minimum {}), {violations} violations",
                o.min_schedules
            );
        }
        if total < o.min_schedules {
            eprintln!("model-check: only {total} schedules explored (< {})", o.min_schedules);
        }
        ok &= clean;
    }

    if o.model_check_shard {
        let scenarios = check_shard_protocol(&ExploreConfig::default());
        let fs_scripts = check_fs_consistency();
        let mutations = check_shard_mutations(&ExploreConfig::default());
        let fs_mutations = check_fs_mutations();

        let total: usize = scenarios.iter().map(|r| r.report.schedules).sum();
        let fs_cases: usize = fs_scripts.iter().map(|r| r.cases).sum();
        let total_violations: usize =
            scenarios.iter().map(|r| r.report.violations.len()).sum::<usize>()
                + fs_scripts.iter().map(|r| r.violations.len()).sum::<usize>();
        let all_caught = mutations.iter().all(|m| m.caught && m.replayed)
            && fs_mutations.iter().all(|m| m.caught && m.replayed);
        let clean = scenarios.iter().all(|r| r.report.clean())
            && fs_scripts.iter().all(wcms_analyzer::model_fs::FsScriptReport::clean)
            && total >= o.min_schedules
            && all_caught;

        if o.json {
            let scenario_items: Vec<String> = scenarios
                .iter()
                .map(|r| {
                    format!(
                        "{{\"scenario\":{},\"schedules\":{},\"states\":{},\"max_depth\":{},\
                         \"violations\":{},\"truncated\":{}}}",
                        json_str(r.name),
                        r.report.schedules,
                        r.report.states,
                        r.report.max_depth_seen,
                        r.report.violations.len(),
                        r.report.truncated
                    )
                })
                .collect();
            let fs_items: Vec<String> = fs_scripts
                .iter()
                .map(|r| {
                    format!(
                        "{{\"script\":{},\"crash_points\":{},\"cases\":{},\"violations\":{}}}",
                        json_str(r.script),
                        r.crash_points,
                        r.cases,
                        r.violations.len()
                    )
                })
                .collect();
            let mut mutation_items: Vec<String> = mutations
                .iter()
                .map(|m| {
                    let ce = m.counterexample.as_ref().map_or("null".to_string(), |v| {
                        format!(
                            "{{\"schedule\":{:?},\"message\":{}}}",
                            v.schedule,
                            json_str(&v.message)
                        )
                    });
                    format!(
                        "{{\"name\":{},\"kind\":\"interleaving\",\"schedules\":{},\
                         \"caught\":{},\"replayed\":{},\"counterexample\":{ce}}}",
                        json_str(m.variant.name()),
                        m.schedules,
                        m.caught,
                        m.replayed
                    )
                })
                .collect();
            mutation_items.extend(fs_mutations.iter().map(|m| {
                let ce = m.counterexample.as_ref().map_or("null".to_string(), |v| {
                    format!(
                        "{{\"script\":{},\"crash_after\":{},\"choice\":{:?},\"message\":{}}}",
                        json_str(v.script),
                        v.crash_after,
                        v.choice,
                        json_str(&v.message)
                    )
                });
                format!(
                    "{{\"name\":{},\"kind\":\"crash\",\"cases\":{},\
                     \"caught\":{},\"replayed\":{},\"counterexample\":{ce}}}",
                    json_str(m.variant.name()),
                    m.cases,
                    m.caught,
                    m.replayed
                )
            }));
            json_sections.push(format!(
                "\"model_check_shard\":{{\"total_schedules\":{total},\
                 \"total_violations\":{total_violations},\"fs_cases\":{fs_cases},\
                 \"scenarios\":[{}],\"fs\":[{}],\"mutations\":[{}]}}",
                scenario_items.join(","),
                fs_items.join(","),
                mutation_items.join(",")
            ));
        } else {
            println!("== model-check-shard (lease/steal protocol + fs crash consistency) ==");
            for r in &scenarios {
                println!(
                    "  {:<24} {:>7} schedules, {:>8} states, depth {:>2}, {} violations{}",
                    r.name,
                    r.report.schedules,
                    r.report.states,
                    r.report.max_depth_seen,
                    r.report.violations.len(),
                    if r.report.truncated { " (TRUNCATED)" } else { "" }
                );
                for v in r.report.violations.iter().take(3) {
                    println!("       {} via {:?}", v.message, v.schedule);
                }
            }
            for r in &fs_scripts {
                println!(
                    "  fs {:<21} {:>7} crash images over {} crash points, {} violations",
                    r.script,
                    r.cases,
                    r.crash_points,
                    r.violations.len()
                );
                for v in r.violations.iter().take(3) {
                    println!(
                        "       {} (crash after step {}, choice {:?})",
                        v.message, v.crash_after, v.choice
                    );
                }
            }
            for m in &mutations {
                let verdict = match (m.caught, m.replayed) {
                    (true, true) => "caught, replayed".to_string(),
                    (true, false) => "caught, REPLAY FAILED".to_string(),
                    _ => "ESCAPED".to_string(),
                };
                println!(
                    "  mutation {:<18} {:>7} schedules: {verdict}",
                    m.variant.name(),
                    m.schedules
                );
                if let Some(v) = &m.counterexample {
                    println!("       counterexample schedule {:?}: {}", v.schedule, v.message);
                }
            }
            for m in &fs_mutations {
                let verdict = match (m.caught, m.replayed) {
                    (true, true) => "caught, replayed".to_string(),
                    (true, false) => "caught, REPLAY FAILED".to_string(),
                    _ => "ESCAPED".to_string(),
                };
                println!(
                    "  mutation {:<18} {:>7} crash images: {verdict}",
                    m.variant.name(),
                    m.cases
                );
                if let Some(v) = &m.counterexample {
                    println!(
                        "       counterexample {} crash after step {} choice {:?}: {}",
                        v.script, v.crash_after, v.choice, v.message
                    );
                }
            }
            println!(
                "  {total} schedules + {fs_cases} crash images total (minimum {}), \
                 {total_violations} violations, {} mutation(s) seeded",
                o.min_schedules,
                mutations.len() + fs_mutations.len()
            );
        }
        if total < o.min_schedules {
            eprintln!("model-check-shard: only {total} schedules explored (< {})", o.min_schedules);
        }
        ok &= clean;
    }

    if o.crosscheck {
        let grid = warp_grid_disagreements(o.warp);
        let cells = crosscheck_fig4(o.doublings);
        match (grid, cells) {
            (Ok(diffs), Ok(cells)) => {
                let cell_failures: usize = cells.iter().map(|c| c.failures.len()).sum();
                if o.json {
                    let items: Vec<String> = cells
                        .iter()
                        .map(|c| {
                            format!(
                                "{{\"label\":{},\"n\":{},\"rounds\":{},\"predicted_cycles\":{},\
                                 \"holds\":{}}}",
                                json_str(&c.label),
                                c.n,
                                c.rounds,
                                c.predicted_cycles,
                                c.holds()
                            )
                        })
                        .collect();
                    json_sections.push(format!(
                        "\"crosscheck\":{{\"grid_disagreements\":{},\"cells\":[{}]}}",
                        diffs.len(),
                        items.join(",")
                    ));
                } else {
                    println!("== crosscheck (symbolic vs AnalyticBackend) ==");
                    println!("  per-warp grid: {} disagreements", diffs.len());
                    for d in &diffs {
                        println!("       {d}");
                    }
                    for c in &cells {
                        println!(
                            "  {:<12} n={:<6} rounds={} merge-cycles/round {:?} \
                             (predicted {}) β₂ worst {:?} sorted {:?} {}",
                            c.label,
                            c.n,
                            c.rounds,
                            c.merge_cycles,
                            c.predicted_cycles,
                            c.beta2_worst,
                            c.beta2_sorted,
                            if c.holds() { "ok" } else { "FAIL" }
                        );
                        for f in &c.failures {
                            println!("       {f}");
                        }
                    }
                }
                ok &= diffs.is_empty() && cell_failures == 0;
            }
            (g, c) => {
                if let Err(e) = g {
                    eprintln!("crosscheck grid: {e}");
                }
                if let Err(e) = c {
                    eprintln!("crosscheck fig4: {e}");
                }
                ok = false;
            }
        }
    }

    if o.lint {
        let allowlist_path =
            o.allowlist.clone().unwrap_or_else(|| o.root.join("lint-allowlist.txt"));
        let allowlist = std::fs::read_to_string(&allowlist_path).unwrap_or_default();
        match lint_workspace(&o.root, &allowlist) {
            Ok(report) => {
                if o.json {
                    json_sections.push(format!("\"lint\":{}", report.to_json()));
                } else {
                    println!("== lint ({} files) ==", report.files_scanned);
                    for f in &report.findings {
                        if f.allowed {
                            println!(
                                "  allowed {:<12} {}:{}:{} {} — {}",
                                f.rule,
                                f.path,
                                f.line,
                                f.col,
                                f.snippet,
                                f.reason.as_deref().unwrap_or("")
                            );
                        } else {
                            println!(
                                "  DENIED  {:<12} {}:{}:{} {}",
                                f.rule, f.path, f.line, f.col, f.snippet
                            );
                        }
                    }
                    for s in &report.stale_allowlist {
                        println!("  STALE allowlist entry (fails the gate — delete it): {s}");
                    }
                    for m in &report.malformed_allowlist {
                        println!("  malformed allowlist entry: {m}");
                    }
                    println!(
                        "  {} findings ({} denied), {} stale entries",
                        report.findings.len(),
                        report.denied().count(),
                        report.stale_allowlist.len()
                    );
                }
                ok &= report.gate_ok();
            }
            Err(e) => {
                eprintln!("lint: {e}");
                ok = false;
            }
        }
    }

    if o.json {
        println!("{{{},\"ok\":{ok}}}", json_sections.join(","));
    } else {
        println!("{}", if ok { "analysis clean" } else { "analysis FAILED" });
    }
    ok
}
