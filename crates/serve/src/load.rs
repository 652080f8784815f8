//! The open-loop load generator behind `wcms-load`.
//!
//! Open-loop means arrivals are scheduled on a fixed timetable
//! (`i / rate`) regardless of how fast the server answers — the honest
//! way to find a saturation point, because a closed loop slows its own
//! offered load down exactly when the server struggles (coordinated
//! omission). A worker that falls behind its timetable sends
//! immediately and the lateness shows up in the latency tail, not in a
//! silently reduced request rate.
//!
//! The generator reports sustained jobs/sec, latency percentiles and a
//! [`wcms_obs::MetricsRegistry`] histogram, plus a cold-vs-warm cache
//! probe (the `BENCH_serve.json` regression gate asserts warm hits are
//! at least one order of magnitude faster than cold computes).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use wcms_error::WcmsError;
use wcms_obs::{Clock, MetricsRegistry, LATENCY_BUCKETS_S};
use wcms_workloads::WorkloadSpec;

use crate::deadline::apply_deadlines;
use crate::wire::{
    read_frame, write_frame, Request, Response, Tuning, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
};

/// A blocking protocol client over one deadline-armed connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect and arm both socket deadlines.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] on connect or socket-option failure.
    pub fn connect(addr: SocketAddr, deadline: Duration) -> Result<Self, WcmsError> {
        let stream = TcpStream::connect(addr)?;
        apply_deadlines(&stream, deadline, deadline)?;
        Ok(Client { stream })
    }

    /// Send one request, wait for its response.
    ///
    /// # Errors
    ///
    /// [`WcmsError::Io`] on socket failure (including deadline expiry),
    /// [`WcmsError::WireMalformed`] on a protocol violation or a closed
    /// stream mid-frame.
    pub fn call(&mut self, request: &Request) -> Result<Response, WcmsError> {
        let payload = self.call_text(&request.encode())?;
        Response::decode(&payload)
    }

    /// Send a raw request document, returning the raw response payload
    /// (byte-exact — what the chaos harness compares across restarts).
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn call_text(&mut self, request: &str) -> Result<String, WcmsError> {
        write_frame(&mut self.stream, request.as_bytes(), MAX_REQUEST_FRAME)?;
        let payload = read_frame(&mut self.stream, MAX_RESPONSE_FRAME)?.ok_or_else(|| {
            WcmsError::WireMalformed { reason: "server closed the stream before replying".into() }
        })?;
        String::from_utf8(payload)
            .map_err(|_| WcmsError::WireMalformed { reason: "response is not UTF-8".into() })
    }
}

/// What to offer the server.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Offered arrival rate, jobs per second.
    pub rate_rps: f64,
    /// How long to keep offering.
    pub duration: Duration,
    /// Concurrent connections (each a worker thread).
    pub connections: usize,
    /// Distinct request keys cycled through; after the first lap the
    /// working set is fully cache-resident.
    pub distinct: u64,
    /// Sort tuning every request targets.
    pub tuning: Tuning,
    /// Input length (`bE·2^m` for the adversarial families).
    pub n: usize,
    /// Per-call socket deadline.
    pub call_deadline: Duration,
    /// Seed domain separating this run's unique (cold) keys from
    /// earlier runs against the same daemon.
    pub run_seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            rate_rps: 50.0,
            duration: Duration::from_secs(5),
            connections: 4,
            distinct: 8,
            tuning: Tuning { w: 16, e: 3, b: 32 },
            n: 16 * 3 * 32 * 2,
            call_deadline: Duration::from_secs(10),
            run_seed: u64::from(std::process::id()),
        }
    }
}

/// Latency summary over every completed call, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Mean.
    mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    max_ms: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl LatencySummary {
    fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        LatencySummary {
            mean_ms: mean * 1e3,
            p50_ms: percentile(samples, 0.50) * 1e3,
            p90_ms: percentile(samples, 0.90) * 1e3,
            p99_ms: percentile(samples, 0.99) * 1e3,
            max_ms: samples.last().copied().unwrap_or(0.0) * 1e3,
        }
    }
}

/// Everything a load run measured (the `BENCH_serve.json` document).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Arrival rate the timetable offered.
    offered_rps: f64,
    /// Completed-call rate actually sustained.
    pub achieved_rps: f64,
    /// Calls sent.
    pub sent: u64,
    /// Calls answered with a result.
    pub ok: u64,
    /// Calls shed with a typed `overloaded`.
    pub(crate) overloaded: u64,
    /// Calls that failed any other way (socket, deadline, error).
    pub errors: u64,
    /// Latency over completed calls.
    pub latency: LatencySummary,
    /// Cold-compute latency of one uncached request, milliseconds.
    pub cold_ms: f64,
    /// Cache-hit latency of the same request re-asked, milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms` — the acceptance gate wants ≥ 10.
    pub cache_speedup: f64,
}

impl LoadReport {
    /// Render as the `BENCH_serve.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":1,\"offered_rps\":{},\"achieved_rps\":{},\"sent\":{},\"ok\":{},\
             \"overloaded\":{},\"errors\":{},\"latency_ms\":{{\"mean\":{},\"p50\":{},\
             \"p90\":{},\"p99\":{},\"max\":{}}},\"cache\":{{\"cold_ms\":{},\"warm_ms\":{},\
             \"speedup\":{}}}}}",
            self.offered_rps,
            self.achieved_rps,
            self.sent,
            self.ok,
            self.overloaded,
            self.errors,
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p90_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.cold_ms,
            self.warm_ms,
            self.cache_speedup,
        )
    }
}

fn load_request(opts: &LoadOptions, i: u64) -> Request {
    Request::Generate {
        tuning: opts.tuning,
        n: opts.n,
        // Seeds cycle over a bounded working set, domain-separated per
        // run so lap one is cold and every later lap is cache-resident.
        family: WorkloadSpec::WorstCaseFamily {
            seed: (opts.run_seed << 16) | (i % opts.distinct.max(1)),
        },
        include_data: false,
        // Untraced on purpose: load documents stay byte-identical to
        // pre-trace clients, so the bench exercises the absent-context
        // fast path the overhead gate measures.
        trace: None,
    }
}

/// Ask the daemon for its Prometheus rendering (`metrics` frame).
///
/// # Errors
///
/// Client I/O errors; [`WcmsError::WireMalformed`] if the daemon
/// answers with anything but a metrics document.
pub fn scrape_metrics(addr: SocketAddr, deadline: Duration) -> Result<String, WcmsError> {
    let mut client = Client::connect(addr, deadline)?;
    match client.call(&Request::Metrics)? {
        Response::Metrics { text } => Ok(text),
        other => Err(WcmsError::WireMalformed {
            reason: format!("metrics scrape was not answered with metrics: {other:?}"),
        }),
    }
}

/// Probe the cache: ask one never-before-seen request (cold compute),
/// then re-ask it (warm hit). Returns `(cold_ms, warm_ms)`.
///
/// # Errors
///
/// Propagates client I/O errors; an `overloaded` or error response is
/// [`WcmsError::WireMalformed`] here because the probe needs a real
/// answer on both sides of the comparison.
fn probe_cache_speedup(
    addr: SocketAddr,
    opts: &LoadOptions,
    clock: &Clock,
) -> Result<(f64, f64), WcmsError> {
    let mut client = Client::connect(addr, opts.call_deadline)?;
    let probe = Request::Generate {
        tuning: opts.tuning,
        n: opts.n,
        family: WorkloadSpec::WorstCaseFamily { seed: (opts.run_seed << 16) | 0xFFFF },
        include_data: false,
        trace: None,
    };
    let timed = |client: &mut Client| -> Result<(f64, String), WcmsError> {
        let t0 = clock.now_us();
        let payload = client.call_text(&probe.encode())?;
        Ok((clock.elapsed_s(t0), payload))
    };
    let (cold_s, cold_payload) = timed(&mut client)?;
    let (warm_s, warm_payload) = timed(&mut client)?;
    if cold_payload != warm_payload {
        return Err(WcmsError::WireMalformed {
            reason: "cache hit returned different bytes than the cold compute".into(),
        });
    }
    if !cold_payload.contains("\"ok\":true") {
        return Err(WcmsError::WireMalformed {
            reason: format!("cache probe was not answered: {cold_payload}"),
        });
    }
    Ok((cold_s * 1e3, warm_s * 1e3))
}

/// Drive the daemon open-loop and report.
///
/// # Errors
///
/// [`WcmsError::Io`] when no connection can be established at all;
/// individual call failures during the run are counted, not fatal.
pub fn run_load(
    addr: SocketAddr,
    opts: &LoadOptions,
    metrics: &MetricsRegistry,
) -> Result<LoadReport, WcmsError> {
    // Fail fast (and loudly) if the daemon is unreachable.
    drop(Client::connect(addr, opts.call_deadline)?);

    let clock = Clock::wall();
    let total = (opts.rate_rps * opts.duration.as_secs_f64()).ceil().max(1.0) as u64;
    let interval_us = (1e6 / opts.rate_rps.max(0.001)) as u64;
    let next = AtomicUsize::new(0);
    let sent = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let samples: Vec<std::sync::Mutex<Vec<f64>>> =
        (0..opts.connections.max(1)).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    let histogram = metrics.histogram("load_latency_seconds", &LATENCY_BUCKETS_S);

    let t_start = clock.now_us();
    std::thread::scope(|s| {
        for lane in &samples {
            s.spawn(|| {
                let mut client = Client::connect(addr, opts.call_deadline).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as u64;
                    if i >= total {
                        break;
                    }
                    // Open loop: wait for the timetable slot; if we are
                    // late, send immediately. Latency is timed from the
                    // slot, not the send, so the lateness lands in the
                    // measured latency, never in the offered rate.
                    let due_us = t_start + i * interval_us;
                    let now = clock.now_us();
                    if due_us > now {
                        clock.sleep(Duration::from_micros(due_us - now));
                    }
                    if client.is_none() {
                        client = Client::connect(addr, opts.call_deadline).ok();
                    }
                    let Some(c) = client.as_mut() else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    sent.fetch_add(1, Ordering::Relaxed);
                    match c.call(&load_request(opts, i)) {
                        Ok(Response::Overloaded { .. }) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Response::Error { .. }) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            let dt = clock.elapsed_s(due_us);
                            histogram.observe(dt);
                            if let Ok(mut lane) = lane.lock() {
                                lane.push(dt);
                            }
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            client = None; // reconnect on the next slot
                        }
                    }
                }
            });
        }
    });
    let wall_s = clock.elapsed_s(t_start).max(1e-9);

    let mut all: Vec<f64> = Vec::new();
    for lane in &samples {
        if let Ok(lane) = lane.lock() {
            all.extend_from_slice(&lane);
        }
    }
    let ok = ok.load(Ordering::Relaxed);
    let (cold_ms, warm_ms) = probe_cache_speedup(addr, opts, &clock)?;
    Ok(LoadReport {
        offered_rps: opts.rate_rps,
        achieved_rps: ok as f64 / wall_s,
        sent: sent.load(Ordering::Relaxed),
        ok,
        overloaded: overloaded.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        latency: LatencySummary::from_samples(&mut all),
        cold_ms,
        warm_ms,
        cache_speedup: if warm_ms > 0.0 { cold_ms / warm_ms } else { f64::INFINITY },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let mut samples: Vec<f64> = (1..=100).map(|i| f64::from(i) / 1000.0).collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert!((s.p50_ms - 50.0).abs() < 2.0, "{s:?}");
        assert!((s.p99_ms - 99.0).abs() < 2.0, "{s:?}");
        assert!((s.max_ms - 100.0).abs() < 1e-9, "{s:?}");
        assert!(s.mean_ms > 49.0 && s.mean_ms < 52.0, "{s:?}");
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let report = LoadReport {
            offered_rps: 50.0,
            achieved_rps: 48.5,
            sent: 250,
            ok: 242,
            overloaded: 5,
            errors: 3,
            latency: LatencySummary {
                mean_ms: 2.0,
                p50_ms: 1.5,
                p90_ms: 3.0,
                p99_ms: 9.0,
                max_ms: 20.0,
            },
            cold_ms: 12.0,
            warm_ms: 0.4,
            cache_speedup: 30.0,
        };
        let v = wcms_obs::json::parse(&report.to_json()).unwrap();
        assert_eq!(v.get("ok").and_then(wcms_obs::json::Value::as_u64), Some(242));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("speedup").and_then(wcms_obs::json::Value::as_f64), Some(30.0));
        assert!(v.get("latency_ms").and_then(|l| l.get("p99")).is_some());
    }

    #[test]
    fn load_requests_cycle_a_bounded_working_set() {
        let opts = LoadOptions { distinct: 4, ..LoadOptions::default() };
        let keys: std::collections::BTreeSet<String> =
            (0..32).map(|i| load_request(&opts, i).canonical_key().unwrap()).collect();
        assert_eq!(keys.len(), 4);
    }
}
