//! `run_load` against a fake frame server: a stalled daemon's backlog
//! must reach the reported latency tail, because every call is timed
//! from its timetable slot, not from its (late) send.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use wcms_obs::MetricsRegistry;
use wcms_serve::load::{run_load, LoadOptions};
use wcms_serve::wire::{read_frame, write_frame, Response, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME};

/// The fake daemon serves one request at a time, answers every frame
/// with the same `generate` document, and stalls once for 200 ms on
/// its 101st request. At 200 rps about 40 requests fall due during the
/// stall and half of them wait over 100 ms: 5% of the run, well above
/// the top 1%.
#[test]
fn a_stalled_daemons_backlog_reaches_the_p99() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply = Response::Generate { n: 8, fingerprint: 1, keys: None }.encode();
    let busy = Mutex::new(());
    let served = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let (listener, reply, busy, served, stop) = (&listener, &reply, &busy, &served, &stop);
    let opts = LoadOptions {
        rate_rps: 200.0,
        duration: Duration::from_secs(2),
        connections: 2,
        ..LoadOptions::default()
    };
    let report = std::thread::scope(|s| {
        s.spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                s.spawn(move || {
                    while let Ok(Some(_)) = read_frame(&mut stream, MAX_REQUEST_FRAME) {
                        let _one_at_a_time = busy.lock().unwrap();
                        if served.fetch_add(1, Ordering::SeqCst) == 100 {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        if write_frame(&mut stream, reply.as_bytes(), MAX_RESPONSE_FRAME).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let report = run_load(addr, &opts, &MetricsRegistry::new());
        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(addr)); // wake the accept loop
        report
    })
    .unwrap();
    assert_eq!((report.sent, report.errors), (400, 0), "{report:?}");
    assert!(report.latency.p99_ms > 100.0, "the stall is missing from p99: {report:?}");
}
