//! The bounded in-memory collector behind `--trace`.
//!
//! A sweep can emit hundreds of thousands of records; an unbounded
//! buffer would make the observability layer the thing that OOMs a
//! long run. [`RingCollector`] keeps the most recent `capacity`
//! records and counts what it dropped — the journal exporter then
//! appends a `Meta` record with the drop count, so a truncated journal
//! is *detectably* truncated (`wcms-trace validate` fails it) instead
//! of silently missing its prefix.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::recorder::{Record, Recorder};

/// Default capacity: enough for a full-grid figure sweep with per-round
/// events, small enough to never matter (~tens of MB worst case).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// A thread-safe bounded ring of [`Record`]s (drop-oldest).
#[derive(Debug)]
pub struct RingCollector {
    capacity: usize,
    inner: Mutex<RingInner>,
}

#[derive(Debug, Default)]
struct RingInner {
    records: VecDeque<Record>,
    dropped: u64,
}

impl RingCollector {
    /// A ring holding at most `capacity` records (clamped to ≥ 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RingCollector { capacity: capacity.max(1), inner: Mutex::new(RingInner::default()) }
    }

    /// A ring with `DEFAULT_RING_CAPACITY` (2^20) records.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Records currently held (records, dropped-count), clearing the
    /// ring. Arrival order is preserved.
    pub fn drain(&self) -> (Vec<Record>, u64) {
        let mut inner = self.inner.lock().expect("ring lock poisoned");
        let records = std::mem::take(&mut inner.records).into();
        let dropped = std::mem::take(&mut inner.dropped);
        (records, dropped)
    }
}

impl Default for RingCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for RingCollector {
    fn record(&self, record: Record) {
        let mut inner = self.inner.lock().expect("ring lock poisoned");
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Phase;

    fn rec(ts: u64) -> Record {
        Record { ts_us: ts, tid: 1, phase: Phase::Event, name: "t", fields: Vec::new() }
    }

    #[test]
    fn keeps_arrival_order() {
        let ring = RingCollector::with_capacity(10);
        for ts in 0..5 {
            ring.record(rec(ts));
        }
        let (records, dropped) = ring.drain();
        assert_eq!(dropped, 0);
        assert_eq!(records.iter().map(|r| r.ts_us).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(ring.drain().0.is_empty(), "drain clears");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = RingCollector::with_capacity(3);
        for ts in 0..7 {
            ring.record(rec(ts));
        }
        let (records, dropped) = ring.drain();
        assert_eq!(dropped, 4);
        assert_eq!(records.iter().map(|r| r.ts_us).collect::<Vec<_>>(), vec![4, 5, 6]);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let ring = RingCollector::with_capacity(10_000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for ts in 0..1000 {
                        ring.record(rec(ts));
                    }
                });
            }
        });
        let (records, dropped) = ring.drain();
        assert_eq!(records.len(), 4000);
        assert_eq!(dropped, 0);
    }
}
