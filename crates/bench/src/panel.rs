//! Shared rendering and `main` scaffolding for the figure binaries.
//!
//! Every figure binary used to repeat the same dozen lines: parse the
//! CLI, print a heading, run the sweep, render CSV or markdown, print
//! the slowdown / rank-agreement commentary, count the gaps, map errors
//! to an exit code. That boilerplate now lives here, so a new surface
//! (like `--backend`) lands in exactly one place and every figure
//! reports it the same way.
//!
//! A figure's output is one or more [`FigurePanel`]s — a heading, a
//! [`SweepReport`], and the projections to print — built by
//! [`build_figure_panels`]; a figure binary's whole `main` is
//! [`figure_binary_main`]. Data rows go to stdout;
//! all commentary (headings, paper quotes, slowdown statistics, gap
//! counts) goes to stderr as `#`-prefixed lines, exactly as before.

use std::process::ExitCode;

use wcms_error::cli::{self, Cli};
use wcms_error::WcmsError;
use wcms_mergesort::{AlgorithmKind, BackendKind};

use crate::checkpoint::sanitize;
use crate::cliargs::{parse_figure_args, shard_from_args, FIGURE};
use crate::experiment::Measurement;
use crate::resilient::SweepReport;
use crate::series::Series;
use crate::summary::slowdown_table;
use crate::supervisor::SweepOptions;

/// One projected table of a panel: an optional stderr caption, the
/// per-measurement value to print, and its unit (markdown mode only).
struct PanelSection {
    /// Caption printed (as a `#` comment) before the table.
    caption: Option<&'static str>,
    /// Projection from a measurement to the printed value.
    pub(crate) value: fn(&Measurement) -> f64,
    /// Unit label for markdown tables.
    pub(crate) unit: &'static str,
}

impl PanelSection {
    /// The standard throughput section: millions of elements per second.
    #[must_use]
    pub(crate) fn throughput() -> Self {
        Self { caption: None, value: |m| m.throughput / 1e6, unit: "ME/s" }
    }
}

/// One figure panel: a sweep report plus how to present it.
pub struct FigurePanel {
    /// Heading line (printed as a `#` comment, with the backend appended).
    heading: String,
    /// Extra commentary lines (paper quotes) printed with the statistics.
    notes: Vec<String>,
    /// The sweep to render.
    pub report: SweepReport,
    /// Tables to print, in order.
    sections: Vec<PanelSection>,
    /// Print worst-case vs. random slowdown statistics (Figs. 4 and 5).
    pub(crate) slowdown: bool,
    /// Print conflict/runtime rank-agreement lines (Fig. 6).
    rank_agreement: bool,
}

impl FigurePanel {
    /// A panel with the default presentation: one throughput section and
    /// the slowdown statistics — the shape of Figures 4 and 5.
    #[must_use]
    pub fn throughput_panel(heading: impl Into<String>, report: SweepReport) -> Self {
        Self {
            heading: heading.into(),
            notes: Vec::new(),
            report,
            sections: vec![PanelSection::throughput()],
            slowdown: true,
            rank_agreement: false,
        }
    }

    /// Attach commentary lines (printed under the statistics heading).
    #[must_use]
    fn with_notes(mut self, notes: &[&str]) -> Self {
        self.notes = notes.iter().map(|s| (*s).to_string()).collect();
        self
    }

    /// Render the panel: `(stdout data, stderr commentary)`. Split by
    /// stream, not strictly by time — captions land before their tables
    /// within the stderr stream, which is all a log reader can see.
    #[must_use]
    pub fn render(&self, backend: BackendKind, markdown: bool) -> (String, String) {
        let mut data = String::new();
        let mut comments = String::new();
        comments.push_str(&format!("# {} [backend: {backend}]\n", self.heading));
        for section in &self.sections {
            if let Some(caption) = section.caption {
                comments.push_str(&format!("# {caption}\n"));
            }
            if markdown {
                data.push_str(&self.report.markdown(section.value, section.unit));
            } else {
                data.push_str(&self.report.csv(section.value));
            }
            data.push('\n');
        }
        if self.slowdown {
            comments.push_str("# slowdown of worst-case vs. random\n");
            for note in &self.notes {
                comments.push_str(&format!("#   ({note})\n"));
            }
            for (label, s) in slowdown_table(&self.report.series) {
                comments.push_str(&format!(
                    "#   {label}: peak {:.2}% at N = {}, average {:.2}%\n",
                    s.peak_percent, s.peak_n, s.average_percent
                ));
            }
        }
        if self.rank_agreement {
            for line in rank_agreement_lines(&self.report.series) {
                comments.push_str(&format!("# {line}\n"));
            }
        }
        if !self.report.skipped.is_empty() {
            comments.push_str(&format!(
                "# {} cell(s) skipped — see the # gap lines above\n",
                self.report.skipped.len()
            ));
        }
        if !self.report.quarantined.is_empty() {
            comments.push_str(&format!(
                "# {} corrupt checkpoint(s) quarantined and re-measured\n",
                self.report.quarantined.len()
            ));
        }
        (data, comments)
    }
}

/// Build the panels of a named figure — the one registry the figure
/// binaries *and* the `merge` binary share, so a shard run and the
/// merge that re-renders it from checkpoints go through identical
/// sweep/panel code (the precondition for byte-identical CSV).
///
/// # Errors
///
/// Unknown figure names are an `Io(InvalidInput)` error; figure errors
/// (parameter validation) pass through.
pub fn build_figure_panels(
    figure: &str,
    opts: &SweepOptions,
) -> Result<Vec<FigurePanel>, WcmsError> {
    match figure {
        "fig4" => Ok(vec![FigurePanel::throughput_panel(
            "Fig. 4 — Quadro M4000 throughput (modelled), conflicts measured in simulation",
            crate::figures::fig4(opts)?,
        )
        .with_notes(&["paper: Thrust peak 50.49%, avg 43.53%; MGPU peak 33.82%, avg 27.3%"])]),
        "fig5" => {
            let paper = [
                "paper: Thrust E15 peak 42.43% avg 33.31%; E17 peak 22.94% avg 16.54%;",
                "       MGPU  E15 peak 42.62% avg 35.25%; E17 peak 20.34% avg 12.97%",
            ];
            Ok(vec![
                FigurePanel::throughput_panel(
                    "Fig. 5 — RTX 2080 Ti, Thrust (left panel)",
                    crate::figures::fig5_thrust(opts)?,
                )
                .with_notes(&paper),
                FigurePanel::throughput_panel(
                    "Fig. 5 — RTX 2080 Ti, Modern GPU (right panel)",
                    crate::figures::fig5_mgpu(opts)?,
                )
                .with_notes(&paper),
            ])
        }
        "fig6" => Ok(vec![FigurePanel {
            heading: "Fig. 6 — RTX 2080 Ti, Thrust, worst-case inputs".into(),
            notes: Vec::new(),
            report: crate::figures::fig6(opts)?,
            sections: vec![
                PanelSection {
                    caption: Some("runtime per element (ns/element, modelled):"),
                    value: |m| m.ms_per_element * 1e6,
                    unit: "ns/element",
                },
                PanelSection {
                    caption: Some("bank conflicts per element (extra cycles/element, measured):"),
                    value: |m| m.conflicts_per_element,
                    unit: "cycles/element",
                },
            ],
            slowdown: false,
            rank_agreement: true,
        }]),
        other => Err(WcmsError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown figure {other:?} (expected fig4, fig5 or fig6)"),
        ))),
    }
}

/// The correlation Fig. 6 highlights: per series, does the rank order of
/// sizes by conflicts match the rank order by runtime?
#[must_use]
fn rank_agreement_lines(series: &[Series]) -> Vec<String> {
    series
        .iter()
        .map(|s| {
            let mut by_conflicts: Vec<usize> = (0..s.points.len()).collect();
            by_conflicts.sort_by(|&a, &b| {
                s.points[a].conflicts_per_element.total_cmp(&s.points[b].conflicts_per_element)
            });
            let mut by_runtime: Vec<usize> = (0..s.points.len()).collect();
            by_runtime.sort_by(|&a, &b| {
                s.points[a].ms_per_element.total_cmp(&s.points[b].ms_per_element)
            });
            format!(
                "{}: conflict/runtime rank agreement = {}",
                s.label,
                if by_conflicts == by_runtime { "exact" } else { "partial" }
            )
        })
        .collect()
}

/// The whole `main` of a figure binary: walk the arguments through the
/// figure table, build the panels, render them, and map the outcome to
/// the exit contract ([`cli::main`]).
pub fn figure_binary_main(figure: &'static str) -> ExitCode {
    cli::main(&Cli { name: figure, flags: FIGURE }, |args| {
        let args = parse_figure_args(figure, args, shard_from_args(args)?)?;
        let panels = build_figure_panels(figure, &args.opts)?;
        let partial = args.opts.shard.partial_output();
        for panel in &panels {
            let (data, comments) = panel.render(args.backend(), args.markdown);
            eprint!("{comments}");
            // Pairwise keeps the historical stderr byte for byte; only a
            // non-default algorithm announces itself.
            if args.opts.algorithm != AlgorithmKind::Pairwise {
                eprintln!("# algorithm: {}", args.opts.algorithm);
            }
            // The structured run summary: one greppable line per sweep,
            // rebuilt from the metrics registry by the supervisor
            // (`SweepStats::from_registry`), so it can never drift from a
            // `--metrics` dump of the same run.
            eprintln!("{}", panel.report.stats.summary_line(figure));
            // A shard holds only its slice of the grid: its CSV would be
            // partial and silently misleading, so data rows are suppressed
            // — the `merge` binary (or a `--replay` run) renders the full,
            // byte-identical CSV from the joined checkpoint store.
            if !partial {
                print!("{data}");
            }
        }
        if partial {
            if let (Some(worker), Some(store)) =
                (args.opts.shard.worker_label(), &args.opts.resilience.checkpoint)
            {
                // Export this shard's counters next to its cells, so the
                // merge step can absorb them into one unified summary.
                let name = format!("shard-metrics-{}.prom", sanitize(&worker));
                store.write_aux(&name, &args.obs().metrics.prometheus_text())?;
            }
            eprintln!(
                "# shard: data rows suppressed; run `merge --figure {figure}` (or re-run with \
                 --replay) against the shared checkpoint dir for the full CSV"
            );
        }
        args.export_observability()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_dmm::stats::Summary;

    fn meas(n: usize, thr: f64, cpe: f64, mspe: f64) -> Measurement {
        Measurement {
            n,
            throughput: thr,
            ms: 1.0,
            throughput_spread: Summary::of(&[thr]).unwrap(),
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: cpe,
            ms_per_element: mspe,
        }
    }

    fn report() -> SweepReport {
        SweepReport {
            series: vec![
                Series {
                    label: "T worst-case".into(),
                    points: vec![meas(100, 1e6, 2.0, 0.2), meas(200, 1e6, 3.0, 0.3)],
                },
                Series {
                    label: "T random".into(),
                    points: vec![meas(100, 2e6, 1.0, 0.1), meas(200, 2e6, 1.5, 0.15)],
                },
            ],
            ..SweepReport::default()
        }
    }

    #[test]
    fn throughput_panel_renders_heading_backend_and_slowdown() {
        let panel = FigurePanel::throughput_panel("Fig. X", report())
            .with_notes(&["paper: peak 50%, avg 40%"]);
        let (data, comments) = panel.render(BackendKind::Analytic, false);
        assert!(comments.contains("# Fig. X [backend: analytic]"), "{comments}");
        assert!(comments.contains("(paper: peak 50%, avg 40%)"), "{comments}");
        assert!(comments.contains("T: peak 100.00% at N = 100"), "{comments}");
        assert!(data.starts_with("series,n,value\n"), "{data}");
        assert!(data.contains("T worst-case,100,1.000000"), "{data}");
    }

    #[test]
    fn markdown_mode_uses_unit() {
        let panel = FigurePanel::throughput_panel("Fig. X", report());
        let (data, _) = panel.render(BackendKind::Sim, true);
        assert!(data.contains("value (ME/s)"), "{data}");
    }

    #[test]
    fn rank_agreement_matches_fig6_logic() {
        // Conflicts and runtime rank identically → exact.
        let lines = rank_agreement_lines(&report().series);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("= exact"), "{lines:?}");
        // Flip one runtime so the orders disagree → partial.
        let mut r = report();
        r.series[0].points[0].ms_per_element = 9.0;
        let lines = rank_agreement_lines(&r.series);
        assert!(lines[0].ends_with("= partial"), "{lines:?}");
    }

    #[test]
    fn multi_section_panel_prints_captions_and_tables_in_order() {
        let panel = FigurePanel {
            heading: "Fig. 6".into(),
            notes: Vec::new(),
            report: report(),
            sections: vec![
                PanelSection {
                    caption: Some("runtime per element"),
                    value: |m| m.ms_per_element * 1e6,
                    unit: "ns/element",
                },
                PanelSection {
                    caption: Some("bank conflicts per element"),
                    value: |m| m.conflicts_per_element,
                    unit: "cycles/element",
                },
            ],
            slowdown: false,
            rank_agreement: true,
        };
        let (data, comments) = panel.render(BackendKind::Sim, false);
        assert_eq!(data.matches("series,n,value").count(), 2, "{data}");
        let runtime_pos = comments.find("runtime per element").unwrap();
        let conflict_pos = comments.find("bank conflicts").unwrap();
        assert!(runtime_pos < conflict_pos);
        assert!(comments.contains("rank agreement"), "{comments}");
    }

    #[test]
    fn skipped_cells_are_counted() {
        let mut r = report();
        r.skipped.push(crate::resilient::SkippedCell {
            series: "T worst-case".into(),
            n: 400,
            reason: "timeout".into(),
            attempts: 3,
        });
        let panel = FigurePanel::throughput_panel("Fig. X", r);
        let (_, comments) = panel.render(BackendKind::Sim, false);
        assert!(comments.contains("# 1 cell(s) skipped"), "{comments}");
    }

    #[test]
    fn quarantined_checkpoints_are_counted() {
        let mut r = report();
        r.quarantined.push(crate::resilient::QuarantinedCell {
            cell: "figX/T worst-case/100".into(),
            reason: "checksum mismatch".into(),
        });
        let panel = FigurePanel::throughput_panel("Fig. X", r);
        let (data, comments) = panel.render(BackendKind::Sim, false);
        assert!(comments.contains("# 1 corrupt checkpoint(s) quarantined"), "{comments}");
        assert!(!data.contains("quarantine"), "quarantine notes must stay out of the data stream");
    }
}
