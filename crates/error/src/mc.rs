//! Model-check instrumentation (`model-check` feature only).
//!
//! The interleaving checker in `wcms-analyzer` explores bounded
//! interleavings of the supervisor's cancel/deadline/commit protocol on
//! an abstract model, then *replays* each explored schedule's token
//! operations against the real [`crate::CancelToken`] to prove the
//! model and the implementation agree observation-for-observation.
//!
//! This module is the replay side's probe: while a trace is
//! [`arm`]ed, every [`crate::CancelToken::cancel`] and
//! [`crate::CancelToken::is_cancelled`] on the *current thread* appends
//! a [`TokenOp`] to a thread-local log that [`disarm`] drains. The log
//! is thread-local and off by default, so production builds with the
//! feature enabled but no armed trace pay one thread-local flag read
//! per token operation — and builds without the feature pay nothing.

use std::cell::{Cell, RefCell};

/// One observed operation on a [`crate::CancelToken`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenOp {
    /// [`crate::CancelToken::cancel`] ran (a `store(true, Release)`).
    Cancel {
        /// The token's label.
        label: String,
    },
    /// [`crate::CancelToken::is_cancelled`] ran (a `load(Acquire)`),
    /// observing `observed`.
    Poll {
        /// The token's label.
        label: String,
        /// The flag value the load returned.
        observed: bool,
    },
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LOG: RefCell<Vec<TokenOp>> = const { RefCell::new(Vec::new()) };
}

/// Start recording token operations on this thread. Clears any
/// previous log.
pub fn arm() {
    LOG.with(|l| l.borrow_mut().clear());
    ARMED.with(|a| a.set(true));
}

/// Stop recording and return the operations observed since [`arm`].
#[must_use]
pub fn disarm() -> Vec<TokenOp> {
    ARMED.with(|a| a.set(false));
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// True while a trace is armed on this thread.
#[must_use]
fn is_armed() -> bool {
    ARMED.with(Cell::get)
}

pub(crate) fn record(op: TokenOp) {
    if is_armed() {
        LOG.with(|l| l.borrow_mut().push(op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;

    #[test]
    fn armed_trace_captures_token_ops_in_order() {
        let t = CancelToken::new("probe");
        arm();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        let ops = disarm();
        assert_eq!(
            ops,
            vec![
                TokenOp::Poll { label: "probe".into(), observed: false },
                TokenOp::Cancel { label: "probe".into() },
                TokenOp::Poll { label: "probe".into(), observed: true },
            ]
        );
    }

    #[test]
    fn disarmed_trace_records_nothing() {
        let t = CancelToken::new("quiet");
        t.cancel();
        let _ = t.is_cancelled();
        arm();
        let ops = disarm();
        assert!(ops.is_empty());
        assert!(!is_armed());
    }
}
