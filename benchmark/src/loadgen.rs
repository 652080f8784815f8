//! Load from a fixed number of connections: open loop at a fixed rate,
//! or back to back for saturation.
//!
//! Request `i` of a step is *due* at `t0 + i / rate`, whether or not
//! the server has answered earlier ones. Its latency is timed from that
//! due time, so a stall shows up in every request queued behind it —
//! not only in the one call that was in flight (which is what timing
//! from the send would report). How late the generator itself sent a
//! request, when its connection was free, is reported separately as
//! the lateness, so a slow generator cannot pass for a slow server.
//! Back to back, with no schedule, a request is due when it is sent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The outcome of one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Answered with the expected result.
    Ok,
    /// Shed by admission control.
    Refused,
    /// Failed: socket error, deadline, or a typed error response.
    Failed,
    /// Answered with a result that fails its correctness check.
    Wrong,
}

/// One client connection: issues request `i` of the step and waits for
/// its reply.
pub trait Conn: Send {
    /// Send request `i` and classify the reply.
    fn call(&mut self, i: u64) -> Reply;
}

/// What one step at a fixed offered rate measured.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused.
    pub refused: u64,
    /// Requests failed.
    pub failed: u64,
    /// Requests answered incorrectly.
    pub wrong: u64,
    /// Latency of every correctly answered request, from its due time
    /// (its send, at an infinite rate), in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Largest delay between a request being sendable (due, with its
    /// connection free) and the generator sending it, milliseconds.
    pub max_lateness_ms: f64,
    /// Wall time from the first due time to the last reply, seconds.
    pub elapsed_s: f64,
}

impl StepResult {
    /// Correct replies per second of step wall time.
    #[must_use]
    pub fn achieved_rps(&self) -> f64 {
        self.latency_ms.len() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Sleep until `due`, spinning the last stretch so wake-up lateness
/// stays in the microseconds.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Offer `requests` requests at `rate` per second over `conns`, one
/// thread per connection; a free connection takes the next request in
/// due order. An infinite rate makes each connection send back to back
/// (a closed loop), each request timed from its send.
pub fn run_step<C: Conn>(conns: &mut [C], rate: f64, requests: u64) -> StepResult {
    let closed = rate.is_infinite();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let next = AtomicU64::new(0);
    let merged = Mutex::new(StepResult { rate, ..StepResult::default() });
    // A short lead so every connection thread is parked before the
    // first request is due.
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, merged) = (&next, &merged);
            s.spawn(move || {
                let mut local = StepResult::default();
                let mut free_at = t0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let due = t0 + interval.mul_f64(i as f64);
                    wait_until(due);
                    let sent = Instant::now();
                    let ready = due.max(free_at);
                    local.max_lateness_ms = local
                        .max_lateness_ms
                        .max(sent.saturating_duration_since(ready).as_secs_f64() * 1e3);
                    let reply = conn.call(i);
                    free_at = Instant::now();
                    local.attempted += 1;
                    let from = if closed { sent } else { due };
                    match reply {
                        Reply::Ok => local
                            .latency_ms
                            .push(free_at.saturating_duration_since(from).as_secs_f64() * 1e3),
                        Reply::Refused => local.refused += 1,
                        Reply::Failed => local.failed += 1,
                        Reply::Wrong => local.wrong += 1,
                    }
                }
                let mut m = merged.lock().expect("step results lock poisoned");
                m.attempted += local.attempted;
                m.refused += local.refused;
                m.failed += local.failed;
                m.wrong += local.wrong;
                m.latency_ms.extend(local.latency_ms);
                m.max_lateness_ms = m.max_lateness_ms.max(local.max_lateness_ms);
            });
        }
    });
    let mut result = merged.into_inner().expect("step results lock poisoned");
    result.elapsed_s = t0.elapsed().as_secs_f64();
    result
}
