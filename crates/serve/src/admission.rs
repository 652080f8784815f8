//! Admission control: a bounded job queue that sheds load instead of
//! buffering it.
//!
//! The queue is the daemon's only buffer between connection workers and
//! compute workers. It is *bounded* and [`try_submit`] never blocks:
//! when the queue is full the request is rejected right away with a
//! typed [`WcmsError::Overloaded`] carrying a retry-after hint, so a
//! saturated daemon degrades into fast, honest rejections instead of an
//! unbounded backlog of doomed work (the crash-only stance applied to
//! overload: fail the request now, cheaply, rather than later,
//! expensively).
//!
//! [`try_submit`]: AdmissionQueue::try_submit

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use wcms_error::WcmsError;

/// Clamp bounds for the retry-after hint.
const MIN_RETRY_AFTER_MS: u64 = 50;
const MAX_RETRY_AFTER_MS: u64 = 5_000;

/// How long a rejected client should back off, given the backlog it
/// saw. Scales with the work ahead of it (half the queue times the
/// estimated per-job cost — by the time it retries, roughly half the
/// backlog should have drained), clamped to a sane band.
#[must_use]
pub(crate) fn retry_after_ms(queue_depth: usize, est_job_ms: u64) -> u64 {
    let depth = queue_depth as u64;
    (depth / 2).saturating_mul(est_job_ms).clamp(MIN_RETRY_AFTER_MS, MAX_RETRY_AFTER_MS)
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer job queue with non-blocking
/// admission and blocking consumption.
pub(crate) struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `cap` jobs (minimum one).
    #[must_use]
    pub(crate) fn new(cap: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner { queue: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    // A poisoned mutex means some thread panicked while holding it; the
    // queue's state (a VecDeque and a bool) is valid after any partial
    // operation, so we keep serving rather than propagate the poison.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admit a job or shed it. Never blocks. On admission, returns the
    /// number of jobs queued *ahead* of this one — the caller's honest
    /// estimate of how long it will wait before a worker picks it up.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Overloaded`] when the queue is at capacity, with a
    /// retry-after hint derived from `est_job_ms`;
    /// [`WcmsError::Cancelled`] when the queue has been closed for
    /// shutdown.
    pub(crate) fn try_submit(&self, job: T, est_job_ms: u64) -> Result<usize, WcmsError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(WcmsError::Cancelled { cell: "admission queue closed".into() });
        }
        if inner.queue.len() >= self.cap {
            let queue_depth = inner.queue.len();
            drop(inner);
            return Err(WcmsError::Overloaded {
                queue_depth,
                retry_after_ms: retry_after_ms(queue_depth, est_job_ms),
            });
        }
        let ahead = inner.queue.len();
        inner.queue.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(ahead)
    }

    /// Block until a job is available or the queue closes. `None` means
    /// the queue closed *and* drained — the consumer should exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.queue.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Jobs currently queued.
    #[must_use]
    pub(crate) fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Queue capacity.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Close the queue: future submissions fail, consumers drain the
    /// backlog then see `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_load_with_a_typed_rejection_when_full() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_submit(1, 100).unwrap(), 0);
        assert_eq!(q.try_submit(2, 100).unwrap(), 1);
        let err = q.try_submit(3, 100).unwrap_err();
        match err {
            WcmsError::Overloaded { queue_depth, retry_after_ms } => {
                assert_eq!(queue_depth, 2);
                assert!((MIN_RETRY_AFTER_MS..=MAX_RETRY_AFTER_MS).contains(&retry_after_ms));
            }
            other => unreachable!("expected Overloaded, got {other}"),
        }
        // Draining one slot readmits.
        assert_eq!(q.pop(), Some(1));
        q.try_submit(3, 100).unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_the_backlog_then_releases_consumers() {
        let q = AdmissionQueue::new(4);
        q.try_submit("a", 10).unwrap();
        q.try_submit("b", 10).unwrap();
        q.close();
        assert!(matches!(q.try_submit("c", 10), Err(WcmsError::Cancelled { .. })));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_submit_and_on_close() {
        let q = AdmissionQueue::new(4);
        std::thread::scope(|s| {
            let popper = s.spawn(|| q.pop());
            q.try_submit(42, 10).unwrap();
            assert_eq!(popper.join().unwrap_or(None), Some(42));
            let popper = s.spawn(|| q.pop());
            q.close();
            assert_eq!(popper.join().unwrap_or(Some(0)), None);
        });
    }

    #[test]
    fn retry_after_scales_with_backlog_but_stays_clamped() {
        assert_eq!(retry_after_ms(0, 1_000), MIN_RETRY_AFTER_MS);
        assert_eq!(retry_after_ms(4, 200), 400);
        assert_eq!(retry_after_ms(10_000, u64::MAX), MAX_RETRY_AFTER_MS);
    }
}
