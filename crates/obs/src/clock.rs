//! Time as a value: a [`Clock`] that is either the process's monotonic
//! wall clock or a deterministic virtual clock.
//!
//! Every timestamp in the observability layer — span begin/end,
//! sweep wall time, backoff sleeps — is read through a `Clock` instead
//! of `Instant::now()`. That makes deadline/backoff logic testable: a
//! test hands the code under test [`Clock::virtual_us`], `sleep`
//! becomes an atomic addition, and elapsed times come out exact and
//! reproducible.
//!
//! Three sources exist. [`Clock::wall`] is monotonic and
//! process-epoch-relative — right for durations, wrong for anything
//! two processes compare. [`Clock::unix`] is anchored at the Unix
//! epoch — the *one* sanctioned `SystemTime` read in the workspace
//! (allowlisted for the `wall-clock` lint), existing exactly so
//! cross-process contracts like lease deadlines go through an
//! injectable clock instead of calling `SystemTime::now()` at the
//! decision site. [`Clock::virtual_us`] is deterministic virtual time
//! for tests and model checking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Microseconds since an arbitrary per-clock epoch, or deterministic
/// virtual ticks. Cloning shares the underlying time source (clones of
/// a virtual clock advance together).
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

#[derive(Debug)]
enum ClockInner {
    /// Monotonic wall time, measured from the clock's creation.
    Wall { epoch: Instant },
    /// Wall time measured from the Unix epoch: comparable across
    /// processes (lease deadlines), not monotonic under host clock
    /// steps — which the lease protocol tolerates by construction
    /// (skewed expiry only duplicates deterministic work).
    Unix,
    /// Virtual time: every `now_us` read returns the current value and
    /// advances it by `step_us`, so consecutive reads are strictly
    /// increasing and fully deterministic. `sleep` advances without
    /// blocking.
    Virtual { now_us: AtomicU64, step_us: u64 },
}

impl Clock {
    /// The monotonic wall clock, with its epoch at the call.
    #[must_use]
    pub fn wall() -> Self {
        Clock { inner: Arc::new(ClockInner::Wall { epoch: Instant::now() }) }
    }

    /// The epoch-anchored wall clock: [`Clock::now_us`] reads
    /// microseconds since the Unix epoch, so readings from different
    /// processes are comparable. Use this (not [`Clock::wall`]) to
    /// stamp cross-process deadlines; use it through injection so
    /// tests can substitute [`Clock::virtual_us`].
    #[must_use]
    pub fn unix() -> Self {
        Clock { inner: Arc::new(ClockInner::Unix) }
    }

    /// A deterministic virtual clock starting at 0 that advances by
    /// `step_us` microseconds on every [`Clock::now_us`] read (clamped
    /// to ≥ 1 so timestamps are strictly increasing).
    #[must_use]
    pub fn virtual_us(step_us: u64) -> Self {
        Clock {
            inner: Arc::new(ClockInner::Virtual {
                now_us: AtomicU64::new(0),
                step_us: step_us.max(1),
            }),
        }
    }

    /// Current time in microseconds since the clock's epoch. On a
    /// virtual clock this read *advances* time by the step, so two
    /// consecutive reads never collide.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        match &*self.inner {
            ClockInner::Wall { epoch } => {
                u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            ClockInner::Unix => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX)),
            ClockInner::Virtual { now_us, step_us } => now_us.fetch_add(*step_us, Ordering::SeqCst),
        }
    }

    /// Seconds elapsed since an earlier [`Clock::now_us`] reading
    /// (reads the clock, so on a virtual clock it consumes one tick).
    #[must_use]
    pub fn elapsed_s(&self, since_us: u64) -> f64 {
        self.now_us().saturating_sub(since_us) as f64 / 1e6
    }

    /// Sleep for `d`: a real `thread::sleep` on the wall clock, an
    /// instantaneous advance on a virtual clock — which is exactly what
    /// makes exponential-backoff tests run in microseconds while still
    /// observing the full virtual delay.
    pub fn sleep(&self, d: Duration) {
        match &*self.inner {
            ClockInner::Wall { .. } | ClockInner::Unix => std::thread::sleep(d),
            ClockInner::Virtual { now_us, .. } => {
                let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
                now_us.fetch_add(us, Ordering::SeqCst);
            }
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = Clock::wall();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_deterministic_and_strictly_increasing() {
        let c = Clock::virtual_us(7);
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.now_us(), 7);
        assert_eq!(c.now_us(), 14);
        // A second clock with the same step replays identically.
        let d = Clock::virtual_us(7);
        assert_eq!(d.now_us(), 0);
    }

    #[test]
    fn virtual_sleep_advances_without_blocking() {
        let c = Clock::virtual_us(1);
        let t0 = c.now_us();
        let real = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(real.elapsed() < Duration::from_secs(1), "virtual sleep must not block");
        let dt = c.now_us() - t0;
        assert!(dt >= 3_600_000_000, "the full virtual hour elapsed, got {dt}");
    }

    #[test]
    fn unix_clock_is_epoch_anchored_and_comparable_across_instances() {
        // Two independently-created unix clocks read the same stream —
        // the property process-crossing lease deadlines depend on,
        // which Wall (per-clock epoch) deliberately lacks.
        let a = Clock::unix();
        let b = Clock::unix();
        let (ta, tb) = (a.now_us(), b.now_us());
        assert!(tb.abs_diff(ta) < 60_000_000, "unix clocks must share an epoch: {ta} vs {tb}");
        // Sanity: the reading is after 2020-01-01 (no default-zero epoch).
        assert!(ta > 1_577_836_800_000_000, "{ta}");
    }

    #[test]
    fn clones_share_the_time_source() {
        let c = Clock::virtual_us(1);
        let d = c.clone();
        assert_eq!(c.now_us(), 0);
        assert_eq!(d.now_us(), 1, "a clone reads the same stream");
    }

    #[test]
    fn zero_step_is_clamped() {
        let c = Clock::virtual_us(0);
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.now_us(), 1);
    }

    #[test]
    fn elapsed_seconds_scale() {
        let c = Clock::virtual_us(1);
        let t0 = c.now_us();
        c.sleep(Duration::from_millis(2500));
        let s = c.elapsed_s(t0);
        assert!((s - 2.500_001).abs() < 1e-9, "{s}"); // +1 tick for the read
    }
}
