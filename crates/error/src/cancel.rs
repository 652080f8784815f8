//! Cooperative cancellation for long-running work.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between a
//! supervisor (which arms deadlines and decides to stop work) and the
//! workers executing it (which poll the flag at work-unit boundaries
//! and bail out with [`WcmsError::Cancelled`]). Cancellation is
//! *cooperative*: nothing is killed, the cancelled computation unwinds
//! through its normal `Result` plumbing — which is exactly what lets a
//! timed-out sweep cell stop instead of leaking a detached thread.
//!
//! The token carries a human-readable label (usually the sweep-cell
//! name) so the resulting error names what was cancelled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::WcmsError;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    label: String,
}

/// A clonable cancellation flag with a label naming the work it guards.
///
/// All clones observe the same flag; [`CancelToken::cancel`] from any
/// clone (typically the deadline watchdog) makes every
/// [`CancelToken::check`] on every other clone fail from then on.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, uncancelled token labelled `label`.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self { inner: Arc::new(Inner { cancelled: AtomicBool::new(false), label: label.into() }) }
    }

    /// A token that is never cancelled (for plain, unsupervised runs).
    #[must_use]
    pub fn never() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
        #[cfg(feature = "model-check")]
        crate::mc::record(crate::mc::TokenOp::Cancel { label: self.inner.label.clone() });
    }

    /// Has cancellation been requested?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        let observed = self.inner.cancelled.load(Ordering::Acquire);
        #[cfg(feature = "model-check")]
        crate::mc::record(crate::mc::TokenOp::Poll { label: self.inner.label.clone(), observed });
        observed
    }

    /// Fail with [`WcmsError::Cancelled`] if cancellation was requested.
    ///
    /// # Errors
    ///
    /// Returns [`WcmsError::Cancelled`] (carrying this token's label)
    /// when [`CancelToken::cancel`] has been called on any clone.
    pub fn check(&self) -> Result<(), WcmsError> {
        if self.is_cancelled() {
            Err(WcmsError::Cancelled { cell: self.inner.label.clone() })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checks() {
        let t = CancelToken::new("cell-a");
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_is_visible_to_all_clones() {
        let t = CancelToken::new("fig4/wc/4096");
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        let err = t.check().unwrap_err();
        assert!(
            matches!(err, WcmsError::Cancelled { ref cell } if cell == "fig4/wc/4096"),
            "{err}"
        );
    }

    #[test]
    fn never_token_stays_live_until_cancelled() {
        let t = CancelToken::never();
        assert!(t.check().is_ok());
        t.cancel(); // even the "never" token is just an unlabelled token
        assert!(t.check().is_err());
    }

    #[test]
    fn cancel_crosses_threads() {
        let t = CancelToken::new("x");
        let seen = t.clone();
        let h = std::thread::spawn(move || {
            while !seen.is_cancelled() {
                std::thread::yield_now();
            }
            true
        });
        t.cancel();
        assert!(h.join().unwrap());
    }
}
