//! The load generator against synthetic servers: latency is timed from
//! each request's due time, percentiles are order statistics, and an
//! infinite rate measures the server's saturation throughput and times
//! each request from its send.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wcms_benchmark::loadgen::{run_step, Conn, Reply};
use wcms_benchmark::stats::percentile;

/// One connection to a server that handles one request at a time in
/// 1 ms, except request `stall_at`, which takes 200 ms. Records each
/// call's latency timed from its send, for contrast.
struct StallingServer {
    server: Arc<Mutex<()>>,
    stall_at: u64,
    from_send_ms: Arc<Mutex<Vec<f64>>>,
}

impl Conn for StallingServer {
    fn call(&mut self, i: u64) -> Reply {
        let sent = Instant::now();
        {
            let _busy = self.server.lock().unwrap();
            let work = if i == self.stall_at { 200 } else { 1 };
            std::thread::sleep(Duration::from_millis(work));
        }
        self.from_send_ms.lock().unwrap().push(sent.elapsed().as_secs_f64() * 1e3);
        Reply::Ok
    }
}

#[test]
fn a_server_stall_shows_in_p99_timed_from_the_due_time() {
    let server = Arc::new(Mutex::new(()));
    let from_send_ms = Arc::new(Mutex::new(Vec::new()));
    let mut conns: Vec<StallingServer> = (0..2)
        .map(|_| StallingServer {
            server: server.clone(),
            stall_at: 100,
            from_send_ms: from_send_ms.clone(),
        })
        .collect();
    // 400 requests due every 5 ms: the 200 ms stall holds up ~40 of
    // them (10%), but only the stalled call and the one blocked behind
    // it were in flight during it.
    let step = run_step(&mut conns, 200.0, 400);
    assert_eq!((step.attempted, step.failed, step.refused, step.wrong), (400, 0, 0, 0));
    let from_due = percentile(&step.latency_ms, 0.99).unwrap();
    let from_send = percentile(&from_send_ms.lock().unwrap(), 0.99).unwrap();
    assert!(from_due > 100.0, "p99 from the due time {from_due} ms hides the stall");
    assert!(from_send < 50.0, "p99 from the send {from_send} ms should hide it");
}

#[test]
fn percentiles_are_order_statistics() {
    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), Some(500.0));
    assert_eq!(percentile(&samples, 0.99), Some(990.0));
    assert_eq!(percentile(&samples, 1.0), Some(1000.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    // Never an interpolation between two samples.
    assert_eq!(percentile(&[1.0, 10.0], 0.5), Some(1.0));
    assert_eq!(percentile(&[1.0, 10.0], 0.51), Some(10.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn an_infinite_rate_measures_saturation_throughput() {
    // Two connections to a server that serializes 1 ms requests: it
    // completes at most 1000 per second, however fast they are offered.
    let server = Arc::new(Mutex::new(()));
    let from_send_ms = Arc::new(Mutex::new(Vec::new()));
    let mut conns: Vec<StallingServer> = (0..2)
        .map(|_| StallingServer {
            server: server.clone(),
            stall_at: u64::MAX,
            from_send_ms: from_send_ms.clone(),
        })
        .collect();
    let step = run_step(&mut conns, f64::INFINITY, 200);
    assert_eq!(step.latency_ms.len(), 200);
    let rps = step.achieved_rps();
    assert!(rps > 700.0 && rps <= 1000.0, "1 ms serialized requests at {rps}/s");
    assert!(step.max_lateness_ms < 50.0, "a closed loop is never late: {}", step.max_lateness_ms);
    // Each request is timed from its send (at most one other request
    // ahead of it), not from the step's start 200 ms earlier.
    let p99 = percentile(&step.latency_ms, 0.99).unwrap();
    assert!(p99 < 50.0, "closed-loop p99 {p99} ms is not timed from the send");
}
