//! Reading journals back: parse, validate, summarize, diff and join.
//! This is the library behind the `wcms-trace` binary, kept here so
//! tests can drive it in-process.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{parse, Value};
use crate::recorder::Phase;

/// One journal record with its name and fields owned (journals are read
/// back from disk, so `&'static str` names are gone).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Timestamp in microseconds.
    pub(crate) ts_us: u64,
    /// Emitting-thread label (opaque).
    pub(crate) tid: u32,
    /// Record phase.
    pub phase: Phase,
    /// Record name.
    pub name: String,
    /// Fields as parsed JSON values, in journal order.
    pub(crate) fields: Vec<(String, Value)>,
}

impl JournalRecord {
    /// Field lookup by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A parsed journal: the records plus the drop count declared by any
/// trailing `dropped-records` meta line.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// All records, in file order (meta lines included).
    pub records: Vec<JournalRecord>,
    /// Records the collector admitted to dropping.
    pub(crate) dropped: u64,
}

/// Parse a JSONL journal. Blank lines are skipped; any malformed line
/// is an error naming its line number.
///
/// # Errors
///
/// A message naming the first offending line.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut journal = Journal::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ts_us = v
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing or non-integer 'ts'"))?;
        let tid = v
            .get("tid")
            .and_then(Value::as_u64)
            .and_then(|t| u32::try_from(t).ok())
            .ok_or_else(|| format!("line {lineno}: missing or non-u32 'tid'"))?;
        let ph = v
            .get("ph")
            .and_then(Value::as_str)
            .and_then(|s| s.chars().next())
            .and_then(Phase::from_code)
            .ok_or_else(|| format!("line {lineno}: missing or unknown 'ph'"))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing 'name'"))?
            .to_string();
        let fields = match v.get("fields") {
            None => Vec::new(),
            Some(Value::Obj(members)) => members.clone(),
            Some(_) => return Err(format!("line {lineno}: 'fields' is not an object")),
        };
        if ph == Phase::Meta && name == "dropped-records" {
            journal.dropped +=
                v.get("fields").and_then(|f| f.get("dropped")).and_then(Value::as_u64).unwrap_or(0);
        }
        journal.records.push(JournalRecord { ts_us, tid, phase: ph, name, fields });
    }
    Ok(journal)
}

/// The outcome of structural validation.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Total records examined.
    pub records: usize,
    /// Spans that opened and closed correctly.
    pub matched_spans: usize,
    /// Records the collector admitted to dropping (surfaced so
    /// operators see the count — the same number the emitting process
    /// exports as `obs_dropped_spans_total`).
    pub dropped: u64,
    /// Every structural violation found (empty means valid).
    pub errors: Vec<String>,
}

impl ValidationReport {
    /// True when no violations were found.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Structurally validate a journal:
///
/// 1. per-thread timestamps are non-decreasing,
/// 2. per-thread `Begin`/`End` records nest properly with matching
///    names (threads are independent stacks — spans never migrate),
/// 3. no thread ends with an open span,
/// 4. the collector dropped nothing (a truncated journal cannot be
///    certified).
#[must_use]
pub fn validate(journal: &Journal) -> ValidationReport {
    let mut report = ValidationReport {
        records: journal.records.len(),
        dropped: journal.dropped,
        ..ValidationReport::default()
    };
    let mut stacks: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    for (idx, rec) in journal.records.iter().enumerate() {
        let lineno = idx + 1;
        if let Some(&prev) = last_ts.get(&rec.tid) {
            if rec.ts_us < prev {
                report.errors.push(format!(
                    "record {lineno}: tid {} time went backwards ({} -> {})",
                    rec.tid, prev, rec.ts_us
                ));
            }
        }
        last_ts.insert(rec.tid, rec.ts_us);
        match rec.phase {
            Phase::Begin => stacks.entry(rec.tid).or_default().push(&rec.name),
            Phase::End => match stacks.entry(rec.tid).or_default().pop() {
                Some(open) if open == rec.name => report.matched_spans += 1,
                Some(open) => report.errors.push(format!(
                    "record {lineno}: tid {} closes '{}' but '{open}' is open",
                    rec.tid, rec.name
                )),
                None => report.errors.push(format!(
                    "record {lineno}: tid {} closes '{}' with no span open",
                    rec.tid, rec.name
                )),
            },
            Phase::Event | Phase::Meta => {}
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            report
                .errors
                .push(format!("tid {tid}: span '{open}' never closed ({} left open)", stack.len()));
        }
    }
    if journal.dropped > 0 {
        report
            .errors
            .push(format!("collector dropped {} records; journal is truncated", journal.dropped));
    }
    report
}

/// Durations (µs) of every completed span named `name`, matched
/// per-thread in nesting order.
#[must_use]
fn span_durations_us(journal: &Journal, name: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut stacks: BTreeMap<u32, Vec<(String, u64)>> = BTreeMap::new();
    for rec in &journal.records {
        match rec.phase {
            Phase::Begin => stacks.entry(rec.tid).or_default().push((rec.name.clone(), rec.ts_us)),
            Phase::End => {
                if let Some((open, t0)) = stacks.entry(rec.tid).or_default().pop() {
                    if open == rec.name && open == name {
                        out.push(rec.ts_us.saturating_sub(t0));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-name counts: (spans completed, instant events).
#[must_use]
fn name_counts(journal: &Journal) -> BTreeMap<String, (usize, usize)> {
    let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for rec in &journal.records {
        let entry = out.entry(rec.name.clone()).or_default();
        match rec.phase {
            Phase::End => entry.0 += 1,
            Phase::Event => entry.1 += 1,
            _ => {}
        }
    }
    out
}

/// A human-readable summary: record/span/event counts per name plus
/// total span time.
#[must_use]
pub fn summarize(journal: &Journal) -> String {
    let mut out = String::new();
    out.push_str(&format!("records: {}  (dropped: {})\n", journal.records.len(), journal.dropped));
    out.push_str("name                      spans   events   total_ms\n");
    for (name, (spans, events)) in name_counts(journal) {
        let total_ms =
            span_durations_us(journal, &name).iter().fold(0.0, |acc, &d| acc + d as f64 / 1e3);
        out.push_str(&format!("{name:<25} {spans:>5} {events:>8} {total_ms:>10.3}\n"));
    }
    out
}

/// Compare two journals by per-name span/event counts. Returns the
/// lines that differ (empty means the journals agree structurally).
#[must_use]
pub fn diff(a: &Journal, b: &Journal) -> Vec<String> {
    let ca = name_counts(a);
    let cb = name_counts(b);
    let mut out = Vec::new();
    for name in ca.keys().chain(cb.keys()) {
        let va = ca.get(name).copied().unwrap_or((0, 0));
        let vb = cb.get(name).copied().unwrap_or((0, 0));
        if va != vb {
            let line = format!("{name}: spans {} -> {}, events {} -> {}", va.0, vb.0, va.1, vb.1);
            if !out.contains(&line) {
                out.push(line);
            }
        }
    }
    out
}

/// Render a parsed journal as a Chrome trace-event document — the
/// offline conversion behind `wcms-trace chrome` (the live path exports
/// straight from [`crate::recorder::Record`]s via
/// [`crate::export::chrome_trace`]).
#[must_use]
pub fn chrome_from_journal(journal: &Journal) -> String {
    use crate::json::escape_into;
    use std::fmt::Write as _;
    let mut out = String::with_capacity(journal.records.len() * 112 + 32);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for rec in &journal.records {
        let ph = match rec.phase {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Event => "i",
            Phase::Meta => "M",
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":");
        escape_into(&mut out, &rec.name);
        let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}", rec.ts_us, rec.tid);
        if rec.phase == Phase::Event {
            out.push_str(",\"s\":\"t\"");
        }
        if !rec.fields.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in rec.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(&mut out, key);
                out.push(':');
                write_value(&mut out, value);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

fn write_value(out: &mut String, value: &Value) {
    use crate::json::escape_into;
    use std::fmt::Write as _;
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
        Value::Str(s) => escape_into(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, v);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// The clock anchor a journal's `epoch` meta record declares: the
/// emitting process's name and pid, the epoch-anchored unix time at
/// emission, and the record's own timestamp on the process-local clock.
/// `unix_us - ts_us` is the offset that maps every record of that
/// journal onto the shared unix timeline.
#[derive(Debug, Clone, PartialEq)]
struct JournalEpoch {
    /// Self-declared process label (e.g. `wcms-serve`, `fig4/w2`).
    pub(crate) process: String,
    /// OS process id at emission.
    pub(crate) pid: u64,
    /// Epoch-anchored wall time (µs) at the emission instant.
    pub(crate) unix_us: u64,
    /// The same instant on the journal's own clock (µs).
    pub(crate) ts_us: u64,
}

/// Find a journal's epoch record (the first `Meta` record named
/// `epoch`), or `None` for journals written before epochs existed.
#[must_use]
fn journal_epoch(journal: &Journal) -> Option<JournalEpoch> {
    journal.records.iter().find(|r| r.phase == Phase::Meta && r.name == "epoch").map(|r| {
        JournalEpoch {
            process: r.field("process").and_then(Value::as_str).unwrap_or("?").to_string(),
            pid: r.field("pid").and_then(Value::as_u64).unwrap_or(0),
            unix_us: r.field("unix_us").and_then(Value::as_u64).unwrap_or(0),
            ts_us: r.ts_us,
        }
    })
}

/// One stamped span occurrence, gathered from a `Begin` record's
/// `trace`/`span`/`parent` fields while joining.
#[derive(Debug, Clone)]
struct SpanSite {
    file: usize,
    name: String,
    /// Begin timestamp normalized onto the unix timeline.
    begin_us: i128,
    parent: Option<String>,
}

/// The causal outcome of joining N per-process journals.
#[derive(Debug, Clone, Default)]
pub struct JoinReport {
    /// Journals joined.
    pub files: usize,
    /// Total records across all journals.
    pub records: usize,
    /// `Begin` records carrying a stamped span id.
    pub spans: usize,
    /// Stamped spans with no parent (trace roots).
    pub roots: usize,
    /// Total records the collectors admitted to dropping.
    pub dropped: u64,
    /// Spans whose parent id appears in no joined journal.
    pub orphans: Vec<String>,
    /// Parent chains that loop back on themselves.
    pub cycles: Vec<String>,
    /// Spans that begin before their parent on the normalized timeline
    /// (causality cannot run backwards across correctly-offset clocks).
    pub non_monotonic: Vec<String>,
}

impl JoinReport {
    /// True when the join found no causal violations. Dropped records
    /// are reported, not fatal — truncation already surfaces through
    /// per-journal validation and the drop counter metric.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.orphans.is_empty() && self.cycles.is_empty() && self.non_monotonic.is_empty()
    }

    /// Every causal violation, one line each, prefixed with its class.
    #[must_use]
    pub fn errors(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(self.orphans.iter().map(|e| format!("orphan: {e}")));
        out.extend(self.cycles.iter().map(|e| format!("cycle: {e}")));
        out.extend(self.non_monotonic.iter().map(|e| format!("non-monotonic: {e}")));
        out
    }
}

/// Merge N per-process journals into one Chrome trace-event document
/// and causally validate the result.
///
/// Each journal must carry an `epoch` meta record; its
/// `unix_us - ts_us` offset maps that process's clock onto the shared
/// unix timeline (process-local clocks are monotonic-from-startup and
/// never comparable directly). Each input becomes one Chrome `pid`
/// (named from its epoch's process label), timestamps are rebased so
/// the earliest joined record sits at 0, and stamped
/// `trace`/`span`/`parent` fields are checked for orphan parents,
/// parent cycles, and children that begin before their parents.
///
/// # Errors
///
/// If no journals are given or any journal lacks an epoch record
/// (without one its clock cannot be normalized, and a join that
/// silently guessed offsets would fabricate causality).
pub fn join_journals(inputs: &[(String, Journal)]) -> Result<(String, JoinReport), String> {
    use crate::json::escape_into;
    use std::fmt::Write as _;
    if inputs.is_empty() {
        return Err("join: no journals given".to_string());
    }
    let mut report = JoinReport { files: inputs.len(), ..JoinReport::default() };
    let mut epochs = Vec::with_capacity(inputs.len());
    let mut offsets = Vec::with_capacity(inputs.len());
    for (label, journal) in inputs {
        let epoch = journal_epoch(journal).ok_or_else(|| {
            format!(
                "{label}: no 'epoch' meta record — cannot normalize this journal's clock \
                 onto the shared timeline (re-emit it with tracing from this revision)"
            )
        })?;
        offsets.push(epoch.unix_us as i128 - i128::from(epoch.ts_us));
        epochs.push(epoch);
        report.records += journal.records.len();
        report.dropped += journal.dropped;
    }

    let mut spans: BTreeMap<String, SpanSite> = BTreeMap::new();
    for (file, (_, journal)) in inputs.iter().enumerate() {
        for rec in &journal.records {
            if rec.phase != Phase::Begin {
                continue;
            }
            let Some(id) = rec.field("span").and_then(Value::as_str) else { continue };
            report.spans += 1;
            let parent = rec.field("parent").and_then(Value::as_str).map(str::to_string);
            if parent.is_none() {
                report.roots += 1;
            }
            // First occurrence wins: a replayed cell re-begins the same
            // derived span id, which is the same causal node.
            spans.entry(id.to_string()).or_insert(SpanSite {
                file,
                name: rec.name.clone(),
                begin_us: i128::from(rec.ts_us) + offsets[file],
                parent,
            });
        }
    }

    for (id, site) in &spans {
        let Some(parent) = &site.parent else { continue };
        match spans.get(parent) {
            None => report.orphans.push(format!(
                "{}: span {id} ('{}') parents to {parent}, found in no journal",
                inputs[site.file].0, site.name
            )),
            Some(p) => {
                if site.begin_us < p.begin_us {
                    report.non_monotonic.push(format!(
                        "{}: span {id} ('{}') begins {}us before its parent {parent} \
                         ('{}' in {})",
                        inputs[site.file].0,
                        site.name,
                        p.begin_us - site.begin_us,
                        p.name,
                        inputs[p.file].0
                    ));
                }
            }
        }
    }

    // Cycle detection over the parent links: walk each chain; a node
    // revisited on its own path closes a cycle. Members already
    // attributed to a reported cycle are skipped so each cycle is
    // reported once.
    let mut in_cycle: BTreeSet<String> = BTreeSet::new();
    for id in spans.keys() {
        if in_cycle.contains(id) {
            continue;
        }
        let mut path: Vec<String> = vec![id.clone()];
        while let Some(cur) = path.last() {
            let Some(next) = spans.get(cur).and_then(|s| s.parent.clone()) else { break };
            if !spans.contains_key(&next) {
                break; // orphan end, already reported above
            }
            if let Some(start) = path.iter().position(|p| *p == next) {
                let members = &path[start..];
                if !members.iter().any(|m| in_cycle.contains(m)) {
                    report
                        .cycles
                        .push(format!("parent cycle through spans [{}]", members.join(" -> ")));
                    in_cycle.extend(members.iter().cloned());
                }
                break;
            }
            if in_cycle.contains(&next) {
                break;
            }
            path.push(next);
        }
    }

    // Render: one Chrome pid per journal, timestamps rebased so the
    // earliest joined record sits at 0. Meta records (epoch, drop
    // markers) become report material, not trace events.
    let t0 = inputs
        .iter()
        .enumerate()
        .flat_map(|(f, (_, j))| {
            let offset = offsets[f];
            j.records.iter().map(move |r| i128::from(r.ts_us) + offset)
        })
        .min()
        .unwrap_or(0);
    let mut out = String::with_capacity(report.records * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (file, (label, journal)) in inputs.iter().enumerate() {
        let pid = file + 1;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":"
        );
        escape_into(&mut out, &format!("{} [{}]", epochs[file].process, label));
        out.push_str("}}");
        for rec in &journal.records {
            let ph = match rec.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Event => "i",
                Phase::Meta => continue,
            };
            out.push_str(",\n{\"name\":");
            escape_into(&mut out, &rec.name);
            let ts = i128::from(rec.ts_us) + offsets[file] - t0;
            let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{}", rec.tid);
            if rec.phase == Phase::Event {
                out.push_str(",\"s\":\"t\"");
            }
            if !rec.fields.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (key, value)) in rec.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(&mut out, key);
                    out.push(':');
                    write_value(&mut out, value);
                }
                out.push('}');
            }
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ts: u64, tid: u32, ph: char, name: &str, fields: &str) -> String {
        if fields.is_empty() {
            format!(r#"{{"ts":{ts},"tid":{tid},"ph":"{ph}","name":"{name}"}}"#)
        } else {
            format!(r#"{{"ts":{ts},"tid":{tid},"ph":"{ph}","name":"{name}","fields":{fields}}}"#)
        }
    }

    fn good_journal() -> Journal {
        let text = [
            line(0, 1, 'B', "sweep", ""),
            line(1, 2, 'B', "cell", ""),
            line(2, 2, 'I', "round-counters", r#"{"merge_steps":10,"extra_cycles":3}"#),
            line(5, 2, 'E', "cell", ""),
            line(6, 2, 'B', "cell", ""),
            line(7, 2, 'I', "round-counters", r#"{"merge_steps":20,"extra_cycles":5}"#),
            line(9, 2, 'E', "cell", ""),
            line(10, 1, 'E', "sweep", ""),
        ]
        .join("\n");
        parse_journal(&text).unwrap()
    }

    #[test]
    fn well_formed_journal_validates() {
        let j = good_journal();
        let report = validate(&j);
        assert!(report.is_ok(), "{:?}", report.errors);
        assert_eq!(report.matched_spans, 3);
    }

    #[test]
    fn unbalanced_and_misnamed_spans_are_caught() {
        let open = parse_journal(&line(0, 1, 'B', "sweep", "")).unwrap();
        assert!(!validate(&open).is_ok());

        let wrong = parse_journal(&[line(0, 1, 'B', "a", ""), line(1, 1, 'E', "b", "")].join("\n"))
            .unwrap();
        assert!(validate(&wrong).errors[0].contains("closes 'b' but 'a' is open"));

        let orphan = parse_journal(&line(0, 1, 'E', "a", "")).unwrap();
        assert!(validate(&orphan).errors[0].contains("no span open"));
    }

    #[test]
    fn time_reversal_is_caught_per_thread() {
        let j = parse_journal(&[line(5, 1, 'I', "a", ""), line(3, 1, 'I', "a", "")].join("\n"))
            .unwrap();
        assert!(validate(&j).errors[0].contains("time went backwards"));
        // Different threads are independent streams.
        let ok = parse_journal(&[line(5, 1, 'I', "a", ""), line(3, 2, 'I', "a", "")].join("\n"))
            .unwrap();
        assert!(validate(&ok).is_ok());
    }

    #[test]
    fn dropped_records_fail_validation() {
        let j = parse_journal(
            &[line(0, 1, 'I', "a", ""), line(0, 0, 'M', "dropped-records", r#"{"dropped":3}"#)]
                .join("\n"),
        )
        .unwrap();
        assert_eq!(j.dropped, 3);
        assert!(validate(&j).errors[0].contains("dropped 3"));
    }

    #[test]
    fn diff_reports_count_changes() {
        let a = good_journal();
        let b =
            parse_journal(&[line(0, 1, 'B', "sweep", ""), line(1, 1, 'E', "sweep", "")].join("\n"))
                .unwrap();
        let d = diff(&a, &b);
        assert!(d.iter().any(|l| l.starts_with("cell:")), "{d:?}");
        assert!(d.iter().any(|l| l.starts_with("round-counters:")), "{d:?}");
        assert!(diff(&a, &a).is_empty());
    }

    #[test]
    fn summarize_names_every_record_kind() {
        let text = summarize(&good_journal());
        assert!(text.contains("records: 8"));
        assert!(text.contains("cell"));
        assert!(text.contains("round-counters"));
    }

    #[test]
    fn chrome_conversion_preserves_every_record() {
        let j = good_journal();
        let doc = crate::json::parse(&chrome_from_journal(&j)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), j.records.len());
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[2].get("args").unwrap().get("merge_steps").unwrap().as_u64(), Some(10));
        assert_eq!(events[2].get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let err = parse_journal("{\"ts\":1}\n{nope").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    fn epoch_line(ts: u64, process: &str, unix_us: u64) -> String {
        format!(
            r#"{{"ts":{ts},"tid":0,"ph":"M","name":"epoch","fields":{{"process":"{process}","pid":7,"unix_us":{unix_us}}}}}"#
        )
    }

    fn span_line(ts: u64, ph: char, name: &str, span: &str, parent: Option<&str>) -> String {
        let fields = match parent {
            Some(p) => format!(r#"{{"trace":"t0","span":"{span}","parent":"{p}"}}"#),
            None => format!(r#"{{"trace":"t0","span":"{span}"}}"#),
        };
        line(ts, 1, ph, name, &fields)
    }

    fn named(label: &str, text: &str) -> (String, Journal) {
        (label.to_string(), parse_journal(text).unwrap())
    }

    #[test]
    fn epoch_records_parse_back() {
        let j = parse_journal(&epoch_line(42, "w0", 1_000_042)).unwrap();
        let e = journal_epoch(&j).unwrap();
        assert_eq!(e.process, "w0");
        assert_eq!(e.pid, 7);
        assert_eq!(e.unix_us, 1_000_042);
        assert_eq!(e.ts_us, 42);
        assert_eq!(journal_epoch(&Journal::default()), None);
    }

    #[test]
    fn join_normalizes_clocks_and_links_spans_across_files() {
        // Daemon clock starts ~1s before the unix anchor difference;
        // worker clock starts near zero. Offsets differ by 500µs.
        let daemon = [
            epoch_line(100, "daemon", 1_000_100),
            span_line(200, 'B', "request", "aaaa", None),
            span_line(900, 'E', "request", "aaaa", None),
        ]
        .join("\n");
        let worker = [
            epoch_line(5, "worker", 1_000_505),
            span_line(10, 'B', "sweep", "bbbb", Some("aaaa")),
            span_line(20, 'B', "cell", "cccc", Some("bbbb")),
            span_line(30, 'E', "cell", "cccc", None),
            span_line(40, 'E', "sweep", "bbbb", None),
        ]
        .join("\n");
        let (chrome, report) =
            join_journals(&[named("d.jsonl", &daemon), named("w.jsonl", &worker)]).unwrap();
        assert!(report.is_ok(), "{:?}", report.errors());
        assert_eq!(report.files, 2);
        assert_eq!(report.spans, 3);
        assert_eq!(report.roots, 1);
        let doc = crate::json::parse(&chrome).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name metadata + 6 non-meta records (epochs skipped).
        assert_eq!(events.len(), 2 + 6);
        let request = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("request"))
            .unwrap();
        let sweep =
            events.iter().find(|e| e.get("name").and_then(Value::as_str) == Some("sweep")).unwrap();
        // Earliest record (daemon epoch, unix 1_000_100) rebases to 0:
        // request begins at unix 1_000_200 -> 100; worker sweep at
        // unix 1_000_510 -> 410, on a different pid.
        assert_eq!(request.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(request.get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(sweep.get("ts").unwrap().as_u64(), Some(410));
        assert_eq!(sweep.get("pid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn join_reports_orphans_cycles_and_backwards_parents() {
        let orphaned = [
            epoch_line(0, "w", 1_000_000),
            span_line(1, 'B', "cell", "cccc", Some("ffff")),
            span_line(2, 'E', "cell", "cccc", None),
        ]
        .join("\n");
        let (_, report) = join_journals(&[named("w.jsonl", &orphaned)]).unwrap();
        assert!(!report.is_ok());
        assert_eq!(report.orphans.len(), 1, "{:?}", report.orphans);
        assert!(report.orphans[0].contains("ffff"), "{:?}", report.orphans);

        let cyclic = [
            epoch_line(0, "w", 1_000_000),
            span_line(1, 'B', "a", "aaaa", Some("bbbb")),
            span_line(2, 'B', "b", "bbbb", Some("aaaa")),
            span_line(3, 'E', "b", "bbbb", None),
            span_line(4, 'E', "a", "aaaa", None),
        ]
        .join("\n");
        let (_, report) = join_journals(&[named("w.jsonl", &cyclic)]).unwrap();
        assert_eq!(report.cycles.len(), 1, "{:?}", report.cycles);

        // Child normalizes to *before* its parent: worker's offset puts
        // its sweep 1ms earlier than the daemon request that caused it.
        let daemon = [
            epoch_line(0, "daemon", 2_000_000),
            span_line(100, 'B', "request", "aaaa", None),
            span_line(200, 'E', "request", "aaaa", None),
        ]
        .join("\n");
        let worker = [
            epoch_line(0, "worker", 1_000_000),
            span_line(10, 'B', "sweep", "bbbb", Some("aaaa")),
            span_line(20, 'E', "sweep", "bbbb", None),
        ]
        .join("\n");
        let (_, report) =
            join_journals(&[named("d.jsonl", &daemon), named("w.jsonl", &worker)]).unwrap();
        assert_eq!(report.non_monotonic.len(), 1, "{:?}", report.non_monotonic);
        assert!(report.non_monotonic[0].contains("before its parent"));
    }

    #[test]
    fn join_requires_an_epoch_per_journal() {
        let no_epoch = span_line(1, 'B', "a", "aaaa", None);
        let err = join_journals(&[named("bare.jsonl", &no_epoch)]).unwrap_err();
        assert!(err.contains("epoch"), "{err}");
        assert!(err.contains("bare.jsonl"), "{err}");
        assert!(join_journals(&[]).is_err());
    }

    #[test]
    fn join_aggregates_drop_counts_without_failing() {
        let truncated = [
            epoch_line(0, "w", 1_000_000),
            span_line(1, 'B', "a", "aaaa", None),
            span_line(2, 'E', "a", "aaaa", None),
            line(2, 0, 'M', "dropped-records", r#"{"dropped":5}"#),
        ]
        .join("\n");
        let (_, report) = join_journals(&[named("w.jsonl", &truncated)]).unwrap();
        assert_eq!(report.dropped, 5);
        assert!(report.is_ok(), "drops are reported, not causal violations");
    }

    #[test]
    fn validation_report_carries_the_drop_count() {
        let j = parse_journal(
            &[line(0, 1, 'I', "a", ""), line(0, 0, 'M', "dropped-records", r#"{"dropped":3}"#)]
                .join("\n"),
        )
        .unwrap();
        assert_eq!(validate(&j).dropped, 3);
        assert_eq!(validate(&good_journal()).dropped, 0);
    }
}
