//! Span bookkeeping for the traced run: one in-memory ring per traced
//! section, self-time totals per span name, and the journal written at
//! exit.
//!
//! A span's self time is its duration minus the part of it that its
//! child spans cover. Spans never migrate between threads, so children
//! are found with one open-span stack per thread id.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use wcms_obs::journal::{parse_journal, validate};
use wcms_obs::{journal_jsonl, Clock, FieldValue, Obs, Phase, Record, RingCollector};

/// Large enough that no traced section drops a record (a dropped record
/// makes the journal uncertifiable, and the run incorrect).
const RING_CAPACITY: usize = 1 << 22;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Completed spans.
    pub count: u64,
    /// Σ duration, µs.
    pub total_us: u64,
    /// Σ (duration − time covered by child spans), µs.
    pub self_us: u64,
}

/// What a traced section recorded, reduced to per-name totals.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Span totals by name.
    pub spans: BTreeMap<String, SpanTotals>,
    /// Σ of every `u64` field of every instant event, by
    /// `event.field` (counts recorded where the work happens).
    pub counts: BTreeMap<String, u64>,
}

impl Profile {
    /// Totals for `name` (zero when the span never ran).
    #[must_use]
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// The summed event field `key` (zero when never recorded).
    #[must_use]
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Reduce records to totals.
    #[must_use]
    pub fn of(records: &[Record]) -> Self {
        let mut profile = Profile::default();
        // Per thread: (name, start, time covered by children).
        let mut stacks: BTreeMap<u32, Vec<(&str, u64, u64)>> = BTreeMap::new();
        for r in records {
            match r.phase {
                Phase::Begin => stacks.entry(r.tid).or_default().push((r.name, r.ts_us, 0)),
                Phase::End => {
                    let stack = stacks.entry(r.tid).or_default();
                    let Some((name, start, children)) = stack.pop() else { continue };
                    let dur = r.ts_us.saturating_sub(start);
                    let t = profile.spans.entry(name.to_string()).or_default();
                    t.count += 1;
                    t.total_us += dur;
                    t.self_us += dur.saturating_sub(children);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += dur;
                    }
                }
                Phase::Event => {
                    for f in &r.fields {
                        if let FieldValue::U64(v) = f.value {
                            *profile.counts.entry(format!("{}.{}", r.name, f.key)).or_default() +=
                                v;
                        }
                    }
                }
                Phase::Meta => {}
            }
        }
        profile
    }
}

/// One traced section: an [`Obs`] whose spans land in a private ring.
pub struct Section {
    /// The section's name; its journal is `<name>.trace.jsonl`.
    pub name: &'static str,
    /// Recording bundle handed to every probe of the section.
    pub obs: Obs,
    ring: Arc<RingCollector>,
}

impl Section {
    /// A fresh section recording on the wall clock.
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        let ring = Arc::new(RingCollector::with_capacity(RING_CAPACITY));
        let obs = Obs::with_recorder(ring.clone(), Clock::wall());
        obs.emit_epoch(name);
        Section { name, obs, ring }
    }

    /// Drain the section: write `<dir>/<name>.trace.jsonl`, check it
    /// reads back as a structurally valid journal (balanced, monotonic,
    /// nothing dropped), and reduce it to a [`Profile`].
    ///
    /// # Errors
    ///
    /// A message when the journal cannot be written or fails validation.
    pub fn finish(self, dir: &Path) -> Result<Profile, String> {
        let (records, dropped) = self.ring.drain();
        let text = journal_jsonl(&records, dropped);
        let path = dir.join(format!("{}.trace.jsonl", self.name));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        let report = validate(&parse_journal(&text)?);
        if !report.is_ok() {
            return Err(format!("{}: invalid journal: {:?}", path.display(), report.errors));
        }
        Ok(Profile::of(&records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_obs::{event, span};

    #[test]
    fn self_time_excludes_children() {
        let ring = Arc::new(RingCollector::new());
        // Every clock read advances 10 µs.
        let obs = Obs::with_recorder(ring.clone(), Clock::virtual_us(10));
        {
            let _outer = span!(obs, "outer");
            {
                let _inner = span!(obs, "inner");
                event!(obs, "work", items => 3u64);
            }
            event!(obs, "work", items => 4u64);
        }
        let (records, _) = ring.drain();
        let p = Profile::of(&records);
        // outer: ts 0..50, inner: ts 10..30.
        assert_eq!(p.span("inner"), SpanTotals { count: 1, total_us: 20, self_us: 20 });
        assert_eq!(p.span("outer"), SpanTotals { count: 1, total_us: 50, self_us: 30 });
        assert_eq!(p.count("work.items"), 7);
        assert_eq!(p.span("absent"), SpanTotals::default());
    }
}
