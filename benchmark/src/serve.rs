//! `serve-hot` and `serve-cold`: the in-process daemon under load.
//! serve-hot is timed from two connections, open-loop at a reference
//! rate and back to back for its saturation throughput; serve-cold from
//! one client waiting on each reply, calibrated.
//!
//! `serve-hot` repeats 32 warmed keys, so every request is a cache hit
//! and the wire codec, framing, cache reads and connection handling
//! carry the load. `serve-cold` never repeats a key, so every request
//! misses and input construction, analytic replay, journal writes and
//! cache stores carry it. The two together split the serve path into
//! its read side and its write side.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcms_bench::checkpoint::CellResult;
use wcms_bench::experiment::measure_algo_on;
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{AlgorithmKind, BackendKind, SortParams};
use wcms_obs::{parse_prometheus_text, span, MetricsRegistry, Obs};
use wcms_serve::load::{scrape_metrics, Client};
use wcms_serve::server::{serve, ServerConfig};
use wcms_serve::wire::{keys_fingerprint, Request, Response, Tuning};
use wcms_workloads::WorkloadSpec;

use crate::calib::Calibration;
use crate::loadgen::{run_step, Conn, Reply, StepResult};
use crate::probe::{probe_cache_lookup, probe_cache_store_and_journal, probe_wire};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Section;
use crate::{median_setup, mix, overhead_pct};

/// The Quadro M4000 Thrust tuning every request targets.
const TUNING: Tuning = Tuning { w: 32, e: 15, b: 512 };
/// `generate` length, `bE·2³`.
const GENERATE_N: usize = 61_440;
/// `measure` length, `bE·2²`.
const MEASURE_N: usize = 30_720;
/// Distinct keys serve-hot cycles through.
const HOT_KEYS: u64 = 32;
/// Load comes from one process over at most this many connections (the
/// machine the benchmark was calibrated on has two cores).
const CONNECTIONS: usize = 2;
/// Socket deadline for every benchmark client call.
const CALL_DEADLINE: Duration = Duration::from_secs(30);
/// Rounds in a timed run; each end-to-end metric is the median over
/// them.
const ROUNDS: u64 = 15;
/// Requests in the reference step of a serve-hot round (0.5 s).
const HOT_REFERENCE: u64 = 500;
/// Requests in the saturation step of a serve-hot round (about 0.6 s).
const HOT_SATURATION: u64 = 1500;
/// Requests in one serve-cold burst (about 0.1 s).
const COLD_BURST: u64 = 10;
/// Bursts in a serve-cold round (about 1.5 s).
const COLD_BURSTS: u64 = 12;
/// Calibration samples on each side of a serve-cold burst that scale it.
const CALIBRATION_RADIUS: usize = 1;
/// Direct calls per layer probe.
const PROBE_REPS: usize = 40;
/// Key seed domains: warm-up and load keys never collide.
const WARM_DOMAIN: u64 = 1;
const LOAD_DOMAIN: u64 = 2;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request a cache hit.
    Hot,
    /// Every request a cache miss.
    Cold,
}

impl Kind {
    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve-hot",
            Kind::Cold => "serve-cold",
        }
    }

    /// Offered rate of the reference step, requests per second. For
    /// serve-hot about a third of saturation on the reference machine:
    /// busy enough that the cores rarely idle (waking an idle core of a
    /// virtual machine costs more than a cache hit) and far enough below
    /// saturation that a stall drains quickly. For serve-cold, whose
    /// reference steps run only in a traced run, low enough that a
    /// request seldom queues behind a 10 ms `measure`.
    fn reference_rps(self) -> f64 {
        match self {
            Kind::Hot => 1000.0,
            Kind::Cold => 50.0,
        }
    }

    /// Requests in each of a traced run's two reference steps.
    fn traced_requests(self) -> u64 {
        match self {
            Kind::Hot => 2500,
            Kind::Cold => 300,
        }
    }
}

/// The daemon, served from a thread of this process until stopped.
struct Daemon {
    addr: SocketAddr,
    root: PathBuf,
    ctrl: CancelToken,
    handle: Option<JoinHandle<Result<(), WcmsError>>>,
}

impl Daemon {
    /// Start on a fresh state directory `root`, with default settings.
    fn start(root: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(root);
        let cfg = ServerConfig::new(root.join("cache"), root.join("journal"));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let ctrl = CancelToken::new("benchmark-daemon");
        let token = ctrl.clone();
        let handle = std::thread::spawn(move || serve(&listener, cfg, &token));
        let daemon = Daemon { addr, root: root.to_path_buf(), ctrl, handle: Some(handle) };
        match connect(addr)?.call(&Request::Health) {
            Ok(Response::Health { .. }) => Ok(daemon),
            other => Err(format!("daemon health probe: {other:?}")),
        }
    }

    /// Stop accepting, join the server thread, remove the state.
    /// Every client connection must be closed first.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        self.ctrl.cancel();
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        let served = handle.join().map_err(|_| "the daemon thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.root);
        served.map_err(|e| e.to_string())
    }

    /// Block until the daemon reports nothing queued or in flight.
    fn wait_idle(&self) -> Result<(), String> {
        let mut client = connect(self.addr)?;
        let until = Instant::now() + CALL_DEADLINE;
        while Instant::now() < until {
            match client.call(&Request::Status) {
                Ok(Response::Status(b)) if b.inflight == 0 && b.queue_depth == 0 => return Ok(()),
                Ok(Response::Status(_)) => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("status: {other:?}")),
            }
        }
        Err("the daemon did not drain".into())
    }

    /// The daemon's metrics registry, scraped over the wire.
    fn scrape(&self) -> Result<MetricsRegistry, String> {
        let text = scrape_metrics(self.addr, CALL_DEADLINE).map_err(|e| e.to_string())?;
        parse_prometheus_text(&text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, CALL_DEADLINE).map_err(|e| e.to_string())
}

/// The reply class of a payload that is not the expected answer.
fn classify_unexpected(payload: &str) -> Reply {
    match Response::decode(payload) {
        Ok(Response::Overloaded { .. }) => Reply::Refused,
        Ok(Response::Error { .. }) => Reply::Failed,
        _ => Reply::Wrong,
    }
}

/// One benchmark connection, reconnecting after a socket failure.
struct Line {
    addr: SocketAddr,
    client: Option<Client>,
}

impl Line {
    fn call(&mut self, text: &str) -> Option<String> {
        if self.client.is_none() {
            self.client = connect(self.addr).ok();
        }
        let payload = self.client.as_mut()?.call_text(text);
        if payload.is_err() {
            self.client = None;
        }
        payload.ok()
    }
}

/// A serve-hot connection: request `i` asks warmed key `i mod 32` and
/// must get back the warm-up payload byte for byte.
struct HotConn {
    line: Line,
    warmed: Arc<Vec<(String, String)>>,
}

impl Conn for HotConn {
    fn call(&mut self, i: u64) -> Reply {
        let (request, expected) = &self.warmed[(i % HOT_KEYS) as usize];
        match self.line.call(request) {
            Some(p) if p == *expected => Reply::Ok,
            Some(p) => classify_unexpected(&p),
            None => Reply::Failed,
        }
    }
}

fn hot_request(seed: u64, k: u64) -> Request {
    Request::Generate {
        tuning: TUNING,
        n: GENERATE_N,
        family: WorkloadSpec::WorstCaseFamily { seed: mix(seed, WARM_DOMAIN, k) },
        include_data: true,
        trace: None,
    }
}

/// The `k`-th key-unique serve-cold request: three `measure` for every
/// `generate`. A `measure` computes for about 10 ms and a `generate` for
/// about 1 ms, and every miss waits on three fsyncs (0.2–1.3 ms each on
/// the reference machine's shared disk); with the median and the p90
/// inside the `measure` kind, the disk stays a small share of both.
fn cold_request(seed: u64, domain: u64, k: u64) -> Request {
    let key_seed = mix(seed, domain, k);
    if k % 4 == 3 {
        Request::Generate {
            tuning: TUNING,
            n: GENERATE_N,
            family: WorkloadSpec::WorstCaseFamily { seed: key_seed },
            include_data: false,
            trace: None,
        }
    } else {
        Request::Measure {
            tuning: TUNING,
            n: MEASURE_N,
            family: WorkloadSpec::RandomPermutation { seed: key_seed },
            runs: 1,
            backend: BackendKind::Analytic,
            algorithm: AlgorithmKind::Pairwise,
            device: "quadro_m4000".into(),
            budget_ms: None,
            trace: None,
        }
    }
}

/// Whether `response` is a well-formed success answering `request`.
fn answers(request: &Request, response: &Response) -> bool {
    match (request, response) {
        (Request::Generate { n, .. }, Response::Generate { n: got, keys: None, .. }) => n == got,
        (Request::Measure { .. }, Response::Measure { cell: CellResult::Done(m) }) => {
            m.n == MEASURE_N
        }
        _ => false,
    }
}

/// A serve-cold connection: every request takes the next unused key.
/// Keys 0 and 3 of every 32 (a `measure` and a `generate`) keep their
/// answers for re-checking by a direct call after the run.
struct ColdConn {
    line: Line,
    seed: u64,
    next: Arc<AtomicU64>,
    kept: Arc<Mutex<Vec<(Request, Response)>>>,
}

impl Conn for ColdConn {
    fn call(&mut self, _i: u64) -> Reply {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        let request = cold_request(self.seed, LOAD_DOMAIN, k);
        let Some(payload) = self.line.call(&request.encode()) else { return Reply::Failed };
        match Response::decode(&payload) {
            Ok(response) if answers(&request, &response) => {
                if matches!(k % 32, 0 | 3) {
                    if let Ok(mut kept) = self.kept.lock() {
                        kept.push((request, response));
                    }
                }
                Reply::Ok
            }
            _ => classify_unexpected(&payload),
        }
    }
}

/// Wraps a connection so every call runs inside a `client.request` span.
struct Traced<'a, C> {
    conn: C,
    obs: &'a Obs,
}

impl<C: Conn> Conn for Traced<'_, C> {
    fn call(&mut self, i: u64) -> Reply {
        let _request = span!(self.obs, "client.request");
        self.conn.call(i)
    }
}

/// A started daemon with its workload's state.
struct Setup {
    kind: Kind,
    seed: u64,
    daemon: Daemon,
    /// serve-hot: (request, payload) per warmed key.
    warmed: Arc<Vec<(String, String)>>,
    /// serve-cold: the next unused key index, shared by the connections.
    next: Arc<AtomicU64>,
    kept: Arc<Mutex<Vec<(Request, Response)>>>,
}

fn direct_fingerprint(family: &WorkloadSpec, n: usize) -> Result<u64, String> {
    let keys = family.generate(n, TUNING.w, TUNING.e, TUNING.b).map_err(|e| e.to_string())?;
    Ok(keys_fingerprint(&keys))
}

/// Start the daemon and warm it: serve-hot asks its 32 keys (each
/// answer checked against a direct construction), serve-cold sends 16
/// requests of its mix from a key domain the load never uses.
fn setup(kind: Kind, seed: u64, root: &Path) -> Result<Setup, String> {
    let daemon = Daemon::start(root)?;
    let mut client = connect(daemon.addr)?;
    let mut warmed = Vec::new();
    match kind {
        Kind::Hot => {
            for k in 0..HOT_KEYS {
                let request = hot_request(seed, k);
                let text = request.encode();
                let payload = client.call_text(&text).map_err(|e| e.to_string())?;
                let Ok(Response::Generate { n, fingerprint, keys: Some(keys) }) =
                    Response::decode(&payload)
                else {
                    return Err(format!("warm-up {k}: not a generate answer"));
                };
                let Request::Generate { family, .. } = &request else { unreachable!() };
                if n != GENERATE_N
                    || keys_fingerprint(&keys) != fingerprint
                    || direct_fingerprint(family, n)? != fingerprint
                {
                    return Err(format!("warm-up {k}: keys differ from a direct construction"));
                }
                warmed.push((text, payload));
            }
        }
        Kind::Cold => {
            for k in 0..16 {
                let request = cold_request(seed, WARM_DOMAIN, k);
                let payload = client.call_text(&request.encode()).map_err(|e| e.to_string())?;
                if !Response::decode(&payload).is_ok_and(|r| answers(&request, &r)) {
                    return Err(format!("warm-up {k}: {payload}"));
                }
            }
        }
    }
    drop(client);
    daemon.wait_idle()?;
    Ok(Setup {
        kind,
        seed,
        daemon,
        warmed: Arc::new(warmed),
        next: Arc::new(AtomicU64::new(0)),
        kept: Arc::new(Mutex::new(Vec::new())),
    })
}

/// Either connection kind, so one code path drives both workloads.
enum AnyConn {
    Hot(HotConn),
    Cold(ColdConn),
}

impl Conn for AnyConn {
    fn call(&mut self, i: u64) -> Reply {
        match self {
            AnyConn::Hot(c) => c.call(i),
            AnyConn::Cold(c) => c.call(i),
        }
    }
}

impl Setup {
    fn conns(&self) -> Vec<AnyConn> {
        (0..CONNECTIONS)
            .map(|_| {
                let line = Line { addr: self.daemon.addr, client: None };
                match self.kind {
                    Kind::Hot => AnyConn::Hot(HotConn { line, warmed: self.warmed.clone() }),
                    Kind::Cold => AnyConn::Cold(ColdConn {
                        line,
                        seed: self.seed,
                        next: self.next.clone(),
                        kept: self.kept.clone(),
                    }),
                }
            })
            .collect()
    }

    /// Re-check every kept serve-cold answer with a direct call:
    /// fingerprints against a direct construction, measurements
    /// against `measure_algo_on`.
    fn recheck(&self, out: &mut Outcome) -> Result<(), String> {
        let device = DeviceSpec::quadro_m4000();
        let params = SortParams::new(TUNING.w, TUNING.e, TUNING.b).map_err(|e| e.to_string())?;
        let kept = self.kept.lock().map_err(|_| "kept answers lock poisoned")?.clone();
        for (request, response) in &kept {
            let ok = match (request, response) {
                (Request::Generate { family, n, .. }, Response::Generate { fingerprint, .. }) => {
                    direct_fingerprint(family, *n)? == *fingerprint
                }
                (
                    Request::Measure { family, n, runs, .. },
                    Response::Measure { cell: CellResult::Done(m) },
                ) => {
                    let direct = measure_algo_on(
                        &device,
                        &params,
                        *family,
                        *n,
                        *runs,
                        AlgorithmKind::Pairwise,
                        BackendKind::Analytic,
                    )
                    .map_err(|e| e.to_string())?;
                    direct == *m
                }
                _ => false,
            };
            if !ok {
                out.problem(format!("{} answer differs from a direct call", request.op()));
            }
        }
        if kept.is_empty() {
            out.problem("no serve-cold answer was kept for re-checking");
        }
        Ok(())
    }
}

/// Fold one step's counts into the run's totals.
fn tally(out: &mut Outcome, step: &StepResult) {
    out.attempted += step.attempted;
    out.failed += step.refused + step.failed + step.wrong;
    if step.wrong > 0 {
        out.problem(format!("{} wrong answers at {} rps", step.wrong, step.rate));
    }
}

/// The timed run: [`hot_rounds`] for serve-hot, [`cold_rounds`] for
/// serve-cold, whose kept answers are then re-checked by direct calls.
/// Each metric is the median over the rounds of its value in each.
///
/// # Errors
///
/// A setup failure (nothing was measured).
pub fn run(kind: Kind, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let mut attempt = 0;
    let (setup_s, s) = median_setup(None, || {
        attempt += 1;
        setup(kind, seed, &dir.join(format!("{}-{attempt}", kind.name())))
    })?;
    let mut out = Outcome::default();
    let mut conns = s.conns();
    let rounds = match kind {
        Kind::Hot => hot_rounds(&s, &mut conns, &mut out)?,
        Kind::Cold => cold_rounds(&s, &mut conns[..1], &mut out)?,
    };
    drop(conns);
    if kind == Kind::Cold {
        s.recheck(&mut out)?;
    }
    let mut daemon = s.daemon;
    daemon.shutdown()?;

    // A host stall of a few hundred milliseconds lands in one round and
    // moves only that round's numbers.
    let over_rounds = |metric: &dyn Fn(&Round) -> Option<f64>| {
        median(&rounds.iter().filter_map(metric).collect::<Vec<_>>())
    };
    let samples = rounds.iter().map(|r| r.latency_ms.len()).sum();
    out.set("setup_s", setup_s);
    if let Some(rate) = over_rounds(&|r| Some(r.rate)) {
        out.set("throughput_per_s", rate);
    }
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        if let Some(ms) = over_rounds(&|r| percentile(&r.latency_ms, q)) {
            out.set_percentile(name, ms, samples);
        }
    }
    Ok(out)
}

/// What one round of a timed run measured.
struct Round {
    /// Latency of every correct reply, milliseconds.
    latency_ms: Vec<f64>,
    /// Correct replies per second.
    rate: f64,
}

/// serve-hot: [`ROUNDS`] rounds of a reference step at a fixed offered
/// rate followed by a saturation step, both connections sending back to
/// back; a round's latencies are its reference step's, its rate its
/// saturation step's. Spreading both measurements over the whole run
/// also spreads them over the slow stretches of the machine's disk (its
/// journal checkpoints come and go over a few thousand fsyncs).
/// Reported uncalibrated: the time goes to system calls and copies,
/// which the calibration kernel does not track.
fn hot_rounds(s: &Setup, conns: &mut [AnyConn], out: &mut Outcome) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let reference = run_step(conns, Kind::Hot.reference_rps(), HOT_REFERENCE);
        tally(out, &reference);
        s.daemon.wait_idle()?;
        let saturation = run_step(conns, f64::INFINITY, HOT_SATURATION);
        tally(out, &saturation);
        s.daemon.wait_idle()?;
        rounds.push(Round { rate: saturation.achieved_rps(), latency_ms: reference.latency_ms });
    }
    Ok(rounds)
}

/// serve-cold: [`ROUNDS`] rounds of one client waiting on each reply,
/// each round [`COLD_BURSTS`] bursts of [`COLD_BURST`] requests, each
/// burst's times scaled by the one-thread kernel around it, as
/// sort-large's sorts are. Two clients keep both cores computing, and
/// their rate then reads how much of the shared host's second core the
/// machine gets, which no kernel tracks; at a fixed offered rate the
/// cores idle between requests, and the latency reads how fast the host
/// wakes them. Records the kernel's median time.
fn cold_rounds(s: &Setup, conn: &mut [AnyConn], out: &mut Outcome) -> Result<Vec<Round>, String> {
    let mut cal = Calibration::new(1);
    let mut bursts = Vec::new();
    for _ in 0..ROUNDS * COLD_BURSTS {
        let tag = cal.sample();
        let burst = run_step(conn, f64::INFINITY, COLD_BURST);
        tally(out, &burst);
        bursts.push((tag, burst));
        s.daemon.wait_idle()?;
    }
    out.calibration_ms = Some(cal.kernel_ms());
    let rounds = bursts
        .chunks(COLD_BURSTS as usize)
        .map(|round| {
            let (mut latency_ms, mut nominal_s) = (Vec::new(), 0.0);
            for (tag, burst) in round {
                let scale = cal.scale_near(*tag, CALIBRATION_RADIUS);
                nominal_s += burst.elapsed_s * scale;
                latency_ms.extend(burst.latency_ms.iter().map(|ms| ms * scale));
            }
            Round { rate: latency_ms.len() as f64 / nominal_s, latency_ms }
        })
        .collect();
    Ok(rounds)
}

/// Daemon-side view of a window, from two scrapes.
struct Window {
    hits: u64,
    misses: u64,
    /// Cumulative `(upper bound s, count)` buckets of the dispatch
    /// latency histogram.
    buckets: Vec<(f64, u64)>,
    sum_s: f64,
}

impl Window {
    fn between(before: &MetricsRegistry, after: &MetricsRegistry) -> Self {
        let delta = |name: &str| after.counter(name).get() - before.counter(name).get();
        let h = |r: &MetricsRegistry| r.histogram("serve_request_latency_seconds", &[]);
        let (hb, ha) = (h(before), h(after));
        let buckets = ha
            .cumulative_buckets()
            .iter()
            .zip(hb.cumulative_buckets().iter().chain(std::iter::repeat(&(0.0, 0))))
            .map(|(&(le, a), &(_, b))| (le, a - b))
            .collect();
        Window {
            hits: delta("serve_cache_hits"),
            misses: delta("serve_cache_misses"),
            buckets,
            sum_s: ha.sum() - hb.sum(),
        }
    }

    fn count(&self) -> u64 {
        self.buckets.last().map_or(0, |b| b.1)
    }

    /// The `q`-quantile interpolated inside its bucket (as Prometheus'
    /// `histogram_quantile` does), milliseconds.
    fn dispatch_quantile_ms(&self, q: f64) -> f64 {
        let target = q * self.count() as f64;
        let mut prev = (0.0, 0u64);
        for &(le, cum) in &self.buckets {
            if cum as f64 >= target && cum > prev.1 {
                if le.is_infinite() {
                    return prev.0 * 1e3;
                }
                let frac = (target - prev.1 as f64) / (cum - prev.1) as f64;
                return (prev.0 + (le - prev.0) * frac) * 1e3;
            }
            prev = (le, cum);
        }
        f64::NAN
    }
}

/// The traced section: a reference step bare, another with a span
/// around every call, the daemon scraped around the traced step,
/// then direct wire, cache and journal calls on this workload's
/// traffic.
///
/// # Errors
///
/// A setup failure or an invalid journal.
pub fn traced(
    kind: Kind,
    seed: u64,
    dir: &Path,
    out_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = setup(kind, seed, &dir.join(kind.name()))?;
    let mut conns = s.conns();
    let (rate, requests) = (kind.reference_rps(), kind.traced_requests());
    let bare = run_step(&mut conns, rate, requests);
    tally(out, &bare);
    s.daemon.wait_idle()?;
    let section = Section::new(kind.name());
    let before = s.daemon.scrape()?;
    let mut traced_conns: Vec<_> =
        conns.into_iter().map(|conn| Traced { conn, obs: &section.obs }).collect();
    let traced = run_step(&mut traced_conns, rate, requests);
    drop(traced_conns);
    tally(out, &traced);
    s.daemon.wait_idle()?;
    let after = s.daemon.scrape()?;

    let (request, payload) = match kind {
        Kind::Hot => (hot_request(seed, 0), s.warmed[0].1.clone()),
        Kind::Cold => {
            let request = cold_request(seed, WARM_DOMAIN, 0);
            let payload =
                connect(s.daemon.addr)?.call_text(&request.encode()).map_err(|e| e.to_string())?;
            (request, payload)
        }
    };
    probe_wire(&section.obs, &request, &payload, PROBE_REPS)?;
    let key = request.canonical_key().ok_or("request without a cache key")?;
    probe_cache_lookup(&section.obs, &s.daemon.root.join("cache"), &key, &payload, PROBE_REPS)?;
    let probe_dir = dir.join(format!("{}-probe", kind.name()));
    probe_cache_store_and_journal(
        &section.obs,
        &probe_dir,
        &request.encode(),
        &payload,
        PROBE_REPS,
    )?;
    let _ = std::fs::remove_dir_all(&probe_dir);
    if kind == Kind::Cold {
        s.recheck(out)?;
    }
    let mut daemon = s.daemon;
    daemon.shutdown()?;
    let p = section.finish(out_dir)?;

    let w = Window::between(&before, &after);
    let name = kind.name();
    let expected_hits = if kind == Kind::Hot { w.hits + w.misses } else { 0 };
    if w.hits != expected_hits {
        out.problem(format!("{name}: {} cache hits in {} lookups", w.hits, w.hits + w.misses));
    }
    let p50 = |r: &StepResult| percentile(&r.latency_ms, 0.5).unwrap_or(f64::NAN);
    let client_mean_ms =
        traced.latency_ms.iter().sum::<f64>() / traced.latency_ms.len().max(1) as f64;
    out.set(&format!("cache.hit_ratio.{name}"), w.hits as f64 / (w.hits + w.misses).max(1) as f64);
    out.set(&format!("server.dispatch_p50_ms.{name}"), w.dispatch_quantile_ms(0.5));
    out.set(&format!("server.dispatch_p99_ms.{name}"), w.dispatch_quantile_ms(0.99));
    out.set(
        &format!("server.outside_dispatch_frac.{name}"),
        1.0 - w.sum_s * 1e3 / w.count().max(1) as f64 / client_mean_ms,
    );
    out.set(&format!("loadgen.max_lateness_ms.{name}"), traced.max_lateness_ms);
    out.set(&format!("trace.overhead_pct.{name}"), overhead_pct(p50(&bare), p50(&traced), false));
    let per_call_us = |span: &str| {
        let t = p.span(span);
        t.total_us as f64 / t.count as f64
    };
    match kind {
        Kind::Hot => {
            out.set("wire.request_encode_us", per_call_us("wire.request_encode"));
            out.set("wire.response_decode_us", per_call_us("wire.response_decode"));
            out.set("wire.response_kib", p.count("wire.bytes") as f64 / 1024.0);
            out.set("cache.lookup_us", per_call_us("cache.lookup"));
        }
        Kind::Cold => {
            out.set("cache.store_us", per_call_us("cache.store"));
            out.set("journal.cycle_us", per_call_us("journal.cycle"));
        }
    }
    Ok(())
}
