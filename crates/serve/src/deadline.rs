//! Socket deadlines and client deadline budgets.
//!
//! Every `TcpStream` the daemon (or its clients) touches goes through
//! [`apply_deadlines`] — the workspace lint `socket-without-deadline`
//! flags any file that uses sockets without it. A socket without
//! read/write timeouts lets one slow or stalled peer pin a worker
//! thread forever, which is how blocking servers wedge.

use std::net::TcpStream;
use std::time::Duration;

use wcms_error::WcmsError;

/// Default per-connection read deadline: a client that sends nothing
/// for this long loses its worker.
pub(crate) const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);

/// Default per-connection write deadline: a client that stops draining
/// its receive buffer for this long loses its worker.
pub(crate) const DEFAULT_WRITE_DEADLINE: Duration = Duration::from_secs(30);

/// Default compute budget applied when a request carries none.
pub(crate) const DEFAULT_BUDGET: Duration = Duration::from_secs(60);

/// Arm both socket deadlines. `None` is refused — the whole point of
/// the helper is that no wcms socket ever blocks unboundedly.
///
/// # Errors
///
/// [`WcmsError::Io`] if the socket rejects the options, or
/// [`WcmsError::WireMalformed`] for a zero duration (which std treats
/// as an error anyway).
pub(crate) fn apply_deadlines(
    stream: &TcpStream,
    read: Duration,
    write: Duration,
) -> Result<(), WcmsError> {
    if read.is_zero() || write.is_zero() {
        return Err(WcmsError::WireMalformed {
            reason: "socket deadlines must be positive".into(),
        });
    }
    stream.set_read_timeout(Some(read))?;
    stream.set_write_timeout(Some(write))?;
    // Request-response framing: a held-back small segment buys nothing
    // but a delayed-ACK stall, so disable Nagle everywhere.
    stream.set_nodelay(true)?;
    Ok(())
}

/// Clamp a client-supplied budget (milliseconds) to the server's
/// ceiling. Degenerate budgets (0) get one millisecond — enough to
/// observe the deadline machinery rather than divide by zero in it.
#[must_use]
pub(crate) fn clamp_budget(requested_ms: Option<u64>, ceiling: Duration) -> Duration {
    match requested_ms {
        None => ceiling,
        Some(0) => Duration::from_millis(1),
        Some(ms) => Duration::from_millis(ms).min(ceiling),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn deadlines_are_armed_on_both_directions() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        apply_deadlines(&stream, Duration::from_millis(50), Duration::from_millis(70)).unwrap();
        // Kernels round timeouts up to scheduler-tick granularity (e.g.
        // 50 ms -> 52 ms under HZ=250), so assert armed-and-close rather
        // than byte-exact.
        let read = stream.read_timeout().unwrap().expect("read deadline armed");
        let write = stream.write_timeout().unwrap().expect("write deadline armed");
        assert!((Duration::from_millis(50)..Duration::from_millis(70)).contains(&read), "{read:?}");
        assert!(
            write >= Duration::from_millis(70) && write < Duration::from_millis(90),
            "{write:?}"
        );
    }

    #[test]
    fn zero_deadlines_are_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let err = apply_deadlines(&stream, Duration::ZERO, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, WcmsError::WireMalformed { .. }), "{err}");
    }

    #[test]
    fn budgets_clamp_to_the_server_ceiling() {
        let ceiling = Duration::from_secs(10);
        assert_eq!(clamp_budget(None, ceiling), ceiling);
        assert_eq!(clamp_budget(Some(2_000), ceiling), Duration::from_secs(2));
        assert_eq!(clamp_budget(Some(3_600_000), ceiling), ceiling);
        assert_eq!(clamp_budget(Some(0), ceiling), Duration::from_millis(1));
    }
}
