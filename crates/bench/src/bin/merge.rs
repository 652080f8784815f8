//! Join per-shard sweep checkpoints into the full figure output —
//! byte-identical to an uninterrupted sequential run.
//!
//! A scale-out sweep leaves its results as checksummed cell files:
//! either in one shared checkpoint directory (`--steal` workers) or in
//! several per-shard directories (`--shard-index/--shard-count` runs
//! with separate `--checkpoint-dir`s, joined here via `--from`). This
//! binary (a) copies any `--from` directories into the target store,
//! refusing byte-differing duplicates (a double-committed cell) and
//! foreign manifests (a configuration mix-up); (b) re-renders the
//! figure through the exact panel pipeline the figure binaries use,
//! under `--replay` — every cell must come from the store, and a
//! missing (*lost*) cell fails the merge rather than publishing an
//! incomplete grid; (c) absorbs the per-shard metric exports
//! (`shard-metrics-*.prom`) into one unified `# sweep-summary` line.
//!
//! Usage: `merge --figure <fig4|fig5|fig6> [--from <dir>]... [--quick] [--standard] [--full]
//!               [--backend <sim|analytic|reference>] [--algorithm <pairwise|multiway>]
//!               [--markdown] [--checkpoint-dir <dir>] [--trace <path>] [--metrics <path>]`

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use wcms_bench::checkpoint::write_atomic;
use wcms_bench::cliargs::{
    parse_figure_args, ALGORITHM, BACKEND, CHECKPOINT_DIR, GRID, MARKDOWN, METRICS, TRACE,
};
use wcms_bench::panel::build_figure_panels;
use wcms_bench::protocol::ATOMIC_WRITE_STEPS;
use wcms_bench::resilient::SweepStats;
use wcms_bench::shard::{ShardPolicy, LOST_PREFIX};
use wcms_error::cli::{self, Args, Cli, Flag};
use wcms_error::WcmsError;
use wcms_obs::{parse_prometheus_text, MetricsRegistry};

const CLI: Cli = Cli {
    name: "merge",
    flags: &[
        &[
            Flag::value("--figure", "fig4|fig5|fig6").required(),
            Flag::value("--from", "dir").repeated(),
        ],
        GRID,
        &[BACKEND, ALGORITHM, MARKDOWN, CHECKPOINT_DIR, TRACE, METRICS],
    ],
};

fn main() -> ExitCode {
    cli::main(&CLI, run)
}

fn bad(msg: String) -> WcmsError {
    WcmsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

fn run(argv: &Args) -> Result<(), WcmsError> {
    let figure = argv.value("--figure").unwrap_or_default();
    if !["fig4", "fig5", "fig6"].contains(&figure) {
        return Err(WcmsError::Usage { reason: format!("--figure {figure}: not a figure") });
    }
    // The whole point of the merge is rendering from checkpoints only.
    let args = parse_figure_args(figure, argv, ShardPolicy::Replay)?;
    let store = args
        .opts
        .resilience
        .checkpoint
        .clone()
        .ok_or_else(|| bad("merge requires a checkpoint store".into()))?;

    let mut report = JoinReport::default();
    for dir in argv.values("--from") {
        join_dir(store.dir(), Path::new(dir), &mut report)?;
    }
    let from = argv.values("--from").count();
    if from > 0 {
        eprintln!(
            "# merge: joined {from} shard dir(s): {} cell file(s) imported, {} identical duplicate(s)",
            report.imported,
            report.duplicates
        );
    }

    // Re-render through the exact pipeline the figure binaries use —
    // same grid, same panel code — with every cell replayed from disk.
    let panels = build_figure_panels(figure, &args.opts)?;
    let lost: Vec<String> = panels
        .iter()
        .flat_map(|p| p.report.skipped.iter())
        .filter(|s| s.reason.starts_with(LOST_PREFIX))
        .map(|s| format!("{}/{}", s.series, s.n))
        .collect();
    if !lost.is_empty() {
        return Err(bad(format!(
            "refusing to publish an incomplete grid: {} lost cell(s): {}",
            lost.len(),
            lost.join(", ")
        )));
    }
    for panel in &panels {
        let (data, comments) = panel.render(args.backend(), args.markdown);
        eprint!("{comments}");
        eprintln!("{}", panel.report.stats.summary_line(figure));
        print!("{data}");
    }

    // One unified summary across every worker that exported metrics.
    let unified = MetricsRegistry::new();
    let mut shards = 0usize;
    for name in store.aux_names("shard-metrics-")? {
        let text = store.read_aux(&name)?;
        let reg = parse_prometheus_text(&text).map_err(|e| bad(format!("{name}: {e}")))?;
        unified.absorb(&reg);
        shards += 1;
    }
    if shards > 0 {
        let stats = SweepStats::from_registry(&unified);
        eprintln!("# merge: absorbed {shards} shard metric export(s)");
        eprintln!("{}", stats.summary_line(&format!("{figure}-merged")));
    }
    args.export_observability()?;
    Ok(())
}

#[derive(Default)]
struct JoinReport {
    imported: usize,
    duplicates: usize,
}

/// Copy one per-shard checkpoint directory into the target store:
/// cell files, the manifest, and shard metric exports. Every name that
/// already exists must be byte-identical — a differing cell file means
/// two shards committed *different* results for one cell (the
/// double-commit the lease protocol exists to prevent), and a
/// differing manifest means the shard ran a different configuration.
fn join_dir(target: &Path, src: &Path, report: &mut JoinReport) -> Result<(), WcmsError> {
    if fs::canonicalize(src).ok() == fs::canonicalize(target).ok() {
        return Ok(()); // joining the target into itself is a no-op
    }
    for entry in fs::read_dir(src).map_err(|e| bad(format!("--from {}: {e}", src.display())))? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let is_cell = name.starts_with("cell-") && name.ends_with(".json");
        let is_aux = name.starts_with("shard-metrics-") && name.ends_with(".prom");
        if !is_cell && !is_aux && name != "manifest.json" {
            continue; // leases, quarantine, strays: not results
        }
        let bytes = fs::read(&path)?;
        let dest = target.join(&name);
        match fs::read(&dest) {
            Ok(existing) if existing == bytes => {
                if is_cell {
                    report.duplicates += 1;
                }
            }
            Ok(_) if is_cell => {
                return Err(bad(format!(
                    "cell file {name} differs between {} and the target store: \
                     a cell was double-committed with diverging results",
                    src.display()
                )));
            }
            Ok(_) => {
                return Err(bad(format!(
                    "{name} differs between {} and the target store: \
                     shards from different configurations cannot be merged",
                    src.display()
                )));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Imported through the durable-write executor, like
                // every store write: the name never points at bytes
                // that were not forced.
                write_atomic(ATOMIC_WRITE_STEPS, &dest, &bytes)?;
                if is_cell {
                    report.imported += 1;
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}
