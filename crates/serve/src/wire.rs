//! The `wcms-serve` wire protocol: length-prefixed frames carrying one
//! JSON document each.
//!
//! A frame is a 4-byte big-endian payload length followed by exactly
//! that many payload bytes. The length is validated against a hard
//! ceiling *before* any allocation, so a hostile or corrupt prefix can
//! never make the daemon reserve gigabytes (the classic
//! length-prefix-DoS). Requests and responses are small hand-rolled
//! JSON documents parsed with [`wcms_obs::json`] — the workspace is
//! offline and already hand-rolls its checkpoint codec; this is the
//! same move at the network boundary.
//!
//! Every response embeds sweep-cell payloads via the *checkpoint* codec
//! ([`wcms_bench::checkpoint::encode`]), so a measurement renders
//! byte-identically whether it travels over the wire, sits in the
//! result cache, or lands in a checkpoint file — one float-formatting
//! discipline across the repo, which is what makes "byte-identical
//! after a crash" a meaningful promise.

use std::io::{Read, Write};

use wcms_bench::checkpoint::{self, CellResult};
use wcms_error::WcmsError;
use wcms_mergesort::{AlgorithmKind, BackendKind};
use wcms_obs::json::{self, Value};
use wcms_obs::TraceContext;
use wcms_workloads::WorkloadSpec;

/// Protocol version, carried in `health` responses and folded into
/// every cache fingerprint (a protocol bump must never alias an old
/// cache entry).
pub(crate) const PROTOCOL_VERSION: u64 = 1;

/// Hard ceiling for request frames read by the daemon. Requests are
/// tiny; anything larger is hostile or corrupt.
pub const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Hard ceiling for response frames read by clients (a `generate` with
/// inline keys is the largest legitimate payload).
pub const MAX_RESPONSE_FRAME: usize = 8 * 1024 * 1024;

/// Largest `n` for which `generate` will inline the keys into the
/// response (larger datasets still return their fingerprint).
pub(crate) const MAX_INLINE_KEYS: usize = 1 << 16;

fn malformed(reason: impl Into<String>) -> WcmsError {
    WcmsError::WireMalformed { reason: reason.into() }
}

// --- Framing --------------------------------------------------------------

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`WcmsError::WireMalformed`] when `payload` exceeds `max` (the
/// sender's own ceiling — never emit a frame the peer must reject), or
/// [`WcmsError::Io`] on socket errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), WcmsError> {
    if payload.len() > max {
        return Err(malformed(format!(
            "frame of {} bytes exceeds the {max} B limit",
            payload.len()
        )));
    }
    let len = u32::try_from(payload.len()).map_err(|_| malformed("frame exceeds u32::MAX"))?;
    // One write per frame: prefix-then-payload as separate writes makes
    // Nagle hold the payload until the prefix is ACKed, which on
    // loopback costs a full delayed-ACK interval (~40 ms) per frame.
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(&len.to_be_bytes());
    framed.extend_from_slice(payload);
    w.write_all(&framed)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. `Ok(None)` is a clean end-of-stream (EOF before any
/// prefix byte); everything else either yields the payload or a typed
/// error.
///
/// The declared length is checked against `max` *before* the payload
/// buffer is allocated, so an adversarial prefix cannot trigger a huge
/// allocation. A stream that dies mid-frame is
/// [`WcmsError::WireMalformed`] (truncated), not silent data loss.
///
/// # Errors
///
/// [`WcmsError::WireMalformed`] for oversized or truncated frames,
/// [`WcmsError::Io`] for socket errors (including read timeouts).
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WcmsError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(malformed(format!(
                    "stream ended inside the length prefix ({got}/4 bytes)"
                )))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        // Reject before allocating: the declared length is attacker
        // controlled and must never size a buffer unchecked.
        return Err(malformed(format!("declared frame length {len} exceeds the {max} B limit")));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(malformed(format!(
                    "stream ended inside the payload ({got}/{len} bytes)"
                )))
            }
            Ok(k) => got += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(payload))
}

// --- JSON helpers ---------------------------------------------------------

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json::escape_into(&mut out, s);
    out
}

fn get_usize(v: &Value, key: &str) -> Result<usize, WcmsError> {
    v.get(key)
        .and_then(Value::as_u64)
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| malformed(format!("missing or non-integer field `{key}`")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, WcmsError> {
    // The JSON layer parses numbers as f64, which is lossy above 2^53 —
    // so full-range u64 fields (seeds) travel as decimal strings, and
    // this accepts either form.
    match v.get(key) {
        Some(Value::Str(s)) => s.parse::<u64>().ok(),
        Some(n) => n.as_u64(),
        None => None,
    }
    .ok_or_else(|| malformed(format!("missing or non-integer field `{key}`")))
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, WcmsError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| malformed(format!("missing or non-string field `{key}`")))
}

fn get_bool(v: &Value, key: &str, default: bool) -> Result<bool, WcmsError> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(malformed(format!("field `{key}` must be a boolean"))),
    }
}

// --- Workload family codec ------------------------------------------------

/// Render a [`WorkloadSpec`] as its wire object, e.g.
/// `{"kind":"worst-family","seed":"7"}` (seeds travel as strings — see [`decode_family`]).
#[must_use]
fn encode_family(spec: &WorkloadSpec) -> String {
    match *spec {
        WorkloadSpec::Random { seed } => format!("{{\"kind\":\"random\",\"seed\":\"{seed}\"}}"),
        WorkloadSpec::RandomPermutation { seed } => {
            format!("{{\"kind\":\"random-perm\",\"seed\":\"{seed}\"}}")
        }
        WorkloadSpec::Sorted => "{\"kind\":\"sorted\"}".into(),
        WorkloadSpec::Reverse => "{\"kind\":\"reverse\"}".into(),
        WorkloadSpec::KSwaps { swaps, seed } => {
            format!("{{\"kind\":\"kswaps\",\"swaps\":{swaps},\"seed\":\"{seed}\"}}")
        }
        WorkloadSpec::FewDistinct { distinct, seed } => {
            format!("{{\"kind\":\"few-distinct\",\"distinct\":{distinct},\"seed\":\"{seed}\"}}")
        }
        WorkloadSpec::Sawtooth { teeth } => format!("{{\"kind\":\"sawtooth\",\"teeth\":{teeth}}}"),
        WorkloadSpec::WorstCase => "{\"kind\":\"worst-case\"}".into(),
        WorkloadSpec::WorstCaseFamily { seed } => {
            format!("{{\"kind\":\"worst-family\",\"seed\":\"{seed}\"}}")
        }
        WorkloadSpec::ConflictHeavy { stride } => {
            format!("{{\"kind\":\"conflict-heavy\",\"stride\":{stride}}}")
        }
    }
}

/// Parse the wire object produced by [`encode_family`].
///
/// # Errors
///
/// [`WcmsError::WireMalformed`] naming the missing field or unknown
/// kind.
fn decode_family(v: &Value) -> Result<WorkloadSpec, WcmsError> {
    Ok(match get_str(v, "kind")? {
        "random" => WorkloadSpec::Random { seed: get_u64(v, "seed")? },
        "random-perm" => WorkloadSpec::RandomPermutation { seed: get_u64(v, "seed")? },
        "sorted" => WorkloadSpec::Sorted,
        "reverse" => WorkloadSpec::Reverse,
        "kswaps" => {
            WorkloadSpec::KSwaps { swaps: get_usize(v, "swaps")?, seed: get_u64(v, "seed")? }
        }
        "few-distinct" => WorkloadSpec::FewDistinct {
            distinct: u32::try_from(get_u64(v, "distinct")?)
                .map_err(|_| malformed("`distinct` exceeds u32"))?,
            seed: get_u64(v, "seed")?,
        },
        "sawtooth" => WorkloadSpec::Sawtooth { teeth: get_usize(v, "teeth")? },
        "worst-case" => WorkloadSpec::WorstCase,
        "worst-family" => WorkloadSpec::WorstCaseFamily { seed: get_u64(v, "seed")? },
        "conflict-heavy" => WorkloadSpec::ConflictHeavy { stride: get_usize(v, "stride")? },
        other => return Err(malformed(format!("unknown workload kind `{other}`"))),
    })
}

/// The canonical (fingerprint-stable) text of a family. Unlike
/// [`WorkloadSpec::label`] this includes every seed/parameter, so two
/// distinct workloads can never share a cache key.
#[must_use]
fn canonical_family(spec: &WorkloadSpec) -> String {
    match *spec {
        WorkloadSpec::Random { seed } => format!("random:seed={seed}"),
        WorkloadSpec::RandomPermutation { seed } => format!("random-perm:seed={seed}"),
        WorkloadSpec::Sorted => "sorted".into(),
        WorkloadSpec::Reverse => "reverse".into(),
        WorkloadSpec::KSwaps { swaps, seed } => format!("kswaps:swaps={swaps}:seed={seed}"),
        WorkloadSpec::FewDistinct { distinct, seed } => {
            format!("few-distinct:distinct={distinct}:seed={seed}")
        }
        WorkloadSpec::Sawtooth { teeth } => format!("sawtooth:teeth={teeth}"),
        WorkloadSpec::WorstCase => "worst-case".into(),
        WorkloadSpec::WorstCaseFamily { seed } => format!("worst-family:seed={seed}"),
        WorkloadSpec::ConflictHeavy { stride } => format!("conflict-heavy:stride={stride}"),
    }
}

// --- Requests -------------------------------------------------------------

/// The sort tuning a compute request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Warp width / bank count.
    pub w: usize,
    /// Elements per thread.
    pub e: usize,
    /// Threads per block.
    pub b: usize,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Construct a worst-case (or any other family) input.
    Generate {
        /// Sort tuning the construction targets.
        tuning: Tuning,
        /// Input length (`bE·2^m` for adversarial families).
        n: usize,
        /// The input family to construct.
        family: WorkloadSpec,
        /// Inline the keys into the response (capped at
        /// `MAX_INLINE_KEYS`); the fingerprint is always returned.
        include_data: bool,
        /// Root trace identity for the work this request causes; absent
        /// means the daemon starts a fresh root. Never part of the
        /// cache key — tracing identifies causality, not results.
        trace: Option<TraceContext>,
    },
    /// Measure one cell on a chosen backend.
    Measure {
        /// Sort tuning.
        tuning: Tuning,
        /// Input length.
        n: usize,
        /// Input family.
        family: WorkloadSpec,
        /// Runs averaged for seeded families.
        runs: u64,
        /// Execution backend for the primary attempt.
        backend: BackendKind,
        /// Sort algorithm; absent on the wire means pairwise, so
        /// pre-algorithm clients keep working unchanged.
        algorithm: AlgorithmKind,
        /// Device preset name (`quadro_m4000`, `rtx_2080_ti`,
        /// `gtx_770`, `test`).
        device: String,
        /// Client deadline budget; `None` accepts the server default.
        budget_ms: Option<u64>,
        /// Root trace identity; absent means a fresh root (see
        /// [`Request::Generate`]).
        trace: Option<TraceContext>,
    },
    /// A size sweep batched through the sweep supervisor.
    Grid {
        /// Sort tuning.
        tuning: Tuning,
        /// Input family.
        family: WorkloadSpec,
        /// Smallest size exponent (`n = bE·2^m`).
        min_doublings: u32,
        /// Largest size exponent.
        max_doublings: u32,
        /// Runs averaged for seeded families.
        runs: u64,
        /// Execution backend.
        backend: BackendKind,
        /// Sort algorithm; absent on the wire means pairwise.
        algorithm: AlgorithmKind,
        /// Device preset name.
        device: String,
        /// Per-cell deadline budget; `None` accepts the server default.
        budget_ms: Option<u64>,
        /// Root trace identity; absent means a fresh root (see
        /// [`Request::Generate`]).
        trace: Option<TraceContext>,
    },
    /// Daemon status snapshot (queue depth, counters, recovery counts).
    Status,
    /// Liveness probe.
    Health,
    /// Prometheus text rendering of the daemon's metrics registry (the
    /// operational scrape surface).
    Metrics,
}

fn encode_backend(b: BackendKind) -> &'static str {
    b.name()
}

fn decode_backend(name: &str) -> Result<BackendKind, WcmsError> {
    BackendKind::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| malformed(format!("unknown backend `{name}`")))
}

/// Render the algorithm as an optional wire suffix: pairwise emits
/// nothing, so pre-algorithm request documents stay byte-identical.
fn encode_algorithm(a: AlgorithmKind) -> String {
    if a == AlgorithmKind::Pairwise {
        String::new()
    } else {
        format!(",\"algorithm\":\"{}\"", a.name())
    }
}

/// An absent `algorithm` field means pairwise — the only algorithm
/// that existed before the field did.
fn decode_algorithm(v: &Value) -> Result<AlgorithmKind, WcmsError> {
    match v.get("algorithm") {
        None => Ok(AlgorithmKind::Pairwise),
        Some(Value::Str(s)) => AlgorithmKind::ALL
            .into_iter()
            .find(|a| a.name() == s.as_str())
            .ok_or_else(|| malformed(format!("unknown algorithm `{s}`"))),
        Some(_) => Err(malformed("field `algorithm` must be a string")),
    }
}

/// Render the trace context as an optional wire suffix: an untraced
/// request emits nothing, so pre-trace request documents stay
/// byte-identical (the same back-compat discipline as `algorithm`).
fn encode_trace(t: Option<&TraceContext>) -> String {
    t.map_or(String::new(), |ctx| format!(",\"trace\":\"{}\"", ctx.encode()))
}

/// An absent `trace` field means the daemon starts a fresh root. The
/// value is validated by [`TraceContext::decode`], whose length gate
/// rejects hostile/oversized ids before any further work.
fn decode_trace(v: &Value) -> Result<Option<TraceContext>, WcmsError> {
    match v.get("trace") {
        None => Ok(None),
        Some(Value::Str(s)) => TraceContext::decode(s).map(Some).map_err(malformed),
        Some(_) => Err(malformed("field `trace` must be a string")),
    }
}

impl Request {
    /// The operation name (used in logs, metrics and journal records).
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Request::Generate { .. } => "generate",
            Request::Measure { .. } => "measure",
            Request::Grid { .. } => "grid",
            Request::Status => "status",
            Request::Health => "health",
            Request::Metrics => "metrics",
        }
    }

    /// The trace identity this request propagates, if any.
    #[must_use]
    pub(crate) fn trace(&self) -> Option<TraceContext> {
        match self {
            Request::Generate { trace, .. }
            | Request::Measure { trace, .. }
            | Request::Grid { trace, .. } => *trace,
            Request::Status | Request::Health | Request::Metrics => None,
        }
    }

    /// Render as the wire JSON document.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Request::Generate { tuning, n, family, include_data, trace } => format!(
                "{{\"op\":\"generate\",\"w\":{},\"e\":{},\"b\":{},\"n\":{n},\"family\":{},\
                 \"include_data\":{include_data}{}}}",
                tuning.w,
                tuning.e,
                tuning.b,
                encode_family(family),
                encode_trace(trace.as_ref()),
            ),
            Request::Measure {
                tuning,
                n,
                family,
                runs,
                backend,
                algorithm,
                device,
                budget_ms,
                trace,
            } => {
                let budget = budget_ms.map_or(String::new(), |ms| format!(",\"budget_ms\":{ms}"));
                format!(
                    "{{\"op\":\"measure\",\"w\":{},\"e\":{},\"b\":{},\"n\":{n},\"family\":{},\
                     \"runs\":{runs},\"backend\":\"{}\"{},\"device\":{}{budget}{}}}",
                    tuning.w,
                    tuning.e,
                    tuning.b,
                    encode_family(family),
                    encode_backend(*backend),
                    encode_algorithm(*algorithm),
                    jstr(device),
                    encode_trace(trace.as_ref()),
                )
            }
            Request::Grid {
                tuning,
                family,
                min_doublings,
                max_doublings,
                runs,
                backend,
                algorithm,
                device,
                budget_ms,
                trace,
            } => {
                let budget = budget_ms.map_or(String::new(), |ms| format!(",\"budget_ms\":{ms}"));
                format!(
                    "{{\"op\":\"grid\",\"w\":{},\"e\":{},\"b\":{},\"family\":{},\
                     \"min_doublings\":{min_doublings},\"max_doublings\":{max_doublings},\
                     \"runs\":{runs},\"backend\":\"{}\"{},\"device\":{}{budget}{}}}",
                    tuning.w,
                    tuning.e,
                    tuning.b,
                    encode_family(family),
                    encode_backend(*backend),
                    encode_algorithm(*algorithm),
                    jstr(device),
                    encode_trace(trace.as_ref()),
                )
            }
            Request::Status => "{\"op\":\"status\"}".into(),
            Request::Health => "{\"op\":\"health\"}".into(),
            Request::Metrics => "{\"op\":\"metrics\"}".into(),
        }
    }

    /// Parse a request document.
    ///
    /// # Errors
    ///
    /// [`WcmsError::WireMalformed`] for anything that is not a
    /// well-formed request (bad JSON, unknown op, missing fields) —
    /// hostile bytes must map to a typed rejection, never a panic.
    pub fn decode(text: &str) -> Result<Request, WcmsError> {
        let v = json::parse(text).map_err(|e| malformed(format!("bad request JSON: {e}")))?;
        let tuning = |v: &Value| -> Result<Tuning, WcmsError> {
            Ok(Tuning { w: get_usize(v, "w")?, e: get_usize(v, "e")?, b: get_usize(v, "b")? })
        };
        let family = |v: &Value| -> Result<WorkloadSpec, WcmsError> {
            decode_family(v.get("family").ok_or_else(|| malformed("missing field `family`"))?)
        };
        let budget = |v: &Value| -> Result<Option<u64>, WcmsError> {
            v.get("budget_ms")
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| malformed("`budget_ms` must be a non-negative integer"))
                })
                .transpose()
        };
        Ok(match get_str(&v, "op")? {
            "generate" => Request::Generate {
                tuning: tuning(&v)?,
                n: get_usize(&v, "n")?,
                family: family(&v)?,
                include_data: get_bool(&v, "include_data", false)?,
                trace: decode_trace(&v)?,
            },
            "measure" => Request::Measure {
                tuning: tuning(&v)?,
                n: get_usize(&v, "n")?,
                family: family(&v)?,
                runs: get_u64(&v, "runs")?,
                backend: decode_backend(get_str(&v, "backend")?)?,
                algorithm: decode_algorithm(&v)?,
                device: get_str(&v, "device")?.to_string(),
                budget_ms: budget(&v)?,
                trace: decode_trace(&v)?,
            },
            "grid" => Request::Grid {
                tuning: tuning(&v)?,
                family: family(&v)?,
                min_doublings: u32::try_from(get_u64(&v, "min_doublings")?)
                    .map_err(|_| malformed("`min_doublings` exceeds u32"))?,
                max_doublings: u32::try_from(get_u64(&v, "max_doublings")?)
                    .map_err(|_| malformed("`max_doublings` exceeds u32"))?,
                runs: get_u64(&v, "runs")?,
                backend: decode_backend(get_str(&v, "backend")?)?,
                algorithm: decode_algorithm(&v)?,
                device: get_str(&v, "device")?.to_string(),
                budget_ms: budget(&v)?,
                trace: decode_trace(&v)?,
            },
            "status" => Request::Status,
            "health" => Request::Health,
            "metrics" => Request::Metrics,
            other => return Err(malformed(format!("unknown op `{other}`"))),
        })
    }

    /// The canonical cache key of a compute request — a pure function
    /// of everything that determines the result (the paper's
    /// constructions are pure in `(E, b, w, N, family, seed)`;
    /// measurements additionally depend on backend, runs, device and
    /// the codec schema). `None` for `status`/`health`.
    ///
    /// The deadline budget is deliberately *excluded*: it bounds how
    /// long we wait, not what the answer is. The trace context is
    /// excluded for the same reason — it names who asked, not what the
    /// answer is, and a traced request must hit the same cache entry as
    /// an untraced one. The algorithm is included only when it is not
    /// pairwise, so every cache entry written before the field existed
    /// keeps its key.
    #[must_use]
    pub fn canonical_key(&self) -> Option<String> {
        let schema = crate::cache::CACHE_SCHEMA;
        let algo_tag = |a: &AlgorithmKind| {
            if *a == AlgorithmKind::Pairwise {
                String::new()
            } else {
                format!(" algorithm={}", a.name())
            }
        };
        match self {
            Request::Generate { tuning, n, family, include_data, .. } => Some(format!(
                "wcms/v{PROTOCOL_VERSION}/s{schema} generate w={} e={} b={} n={n} family={} data={}",
                tuning.w,
                tuning.e,
                tuning.b,
                canonical_family(family),
                u8::from(*include_data),
            )),
            Request::Measure { tuning, n, family, runs, backend, algorithm, device, .. } => {
                Some(format!(
                    "wcms/v{PROTOCOL_VERSION}/s{schema} measure w={} e={} b={} n={n} family={} \
                     runs={runs} backend={} device={device}{}",
                    tuning.w,
                    tuning.e,
                    tuning.b,
                    canonical_family(family),
                    backend.name(),
                    algo_tag(algorithm),
                ))
            }
            Request::Grid {
                tuning,
                family,
                min_doublings,
                max_doublings,
                runs,
                backend,
                algorithm,
                device,
                ..
            } => Some(format!(
                "wcms/v{PROTOCOL_VERSION}/s{schema} grid w={} e={} b={} family={} \
                 doublings={min_doublings}..{max_doublings} runs={runs} backend={} device={device}{}",
                tuning.w,
                tuning.e,
                tuning.b,
                canonical_family(family),
                backend.name(),
                algo_tag(algorithm),
            )),
            Request::Status | Request::Health | Request::Metrics => None,
        }
    }
}

// --- Responses ------------------------------------------------------------

/// The daemon status snapshot carried by a `status` response.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusBody {
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Admission queue capacity.
    pub(crate) queue_cap: u64,
    /// Jobs currently executing.
    pub inflight: u64,
    /// Requests handled (all ops).
    pub(crate) requests_total: u64,
    /// Requests answered with a result.
    pub(crate) ok_total: u64,
    /// Requests answered with a typed error.
    pub(crate) error_total: u64,
    /// Requests shed with `overloaded`.
    pub(crate) overloaded_total: u64,
    /// Compute jobs that ran out of deadline budget.
    pub(crate) deadline_total: u64,
    /// Result-cache hits.
    pub(crate) cache_hits: u64,
    /// Result-cache misses (computed fresh).
    pub(crate) cache_misses: u64,
    /// Corrupt cache entries quarantined.
    pub(crate) cache_quarantined: u64,
    /// Journaled jobs re-executed after a crash.
    pub(crate) jobs_recovered: u64,
    /// Journaled jobs tombstoned after a crash (were mid-run).
    pub(crate) jobs_tombstoned: u64,
    /// Corrupt journal records quarantined.
    pub(crate) journal_quarantined: u64,
    /// Seconds since the daemon started.
    pub(crate) uptime_s: f64,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A constructed input: its length, FNV-1a fingerprint over the
    /// little-endian key bytes, and (optionally) the keys themselves.
    Generate {
        /// Number of keys.
        n: usize,
        /// FNV-1a 64 over the keys' little-endian bytes.
        fingerprint: u64,
        /// The keys, when requested and under `MAX_INLINE_KEYS`.
        keys: Option<Vec<u32>>,
    },
    /// One measured cell (done, demoted, or skipped with reason).
    Measure {
        /// The cell outcome, in the checkpoint codec.
        cell: CellResult,
    },
    /// A measured grid: `(n, outcome)` per cell in size order.
    Grid {
        /// Cells in submission (size) order.
        cells: Vec<(usize, CellResult)>,
    },
    /// Daemon status.
    Status(StatusBody),
    /// Liveness.
    Health {
        /// Protocol version.
        version: u64,
    },
    /// Prometheus text rendering of the daemon's metrics registry.
    Metrics {
        /// The registry in Prometheus exposition format.
        text: String,
    },
    /// Load shed: the admission queue (or connection backlog) is full.
    Overloaded {
        /// Client should wait roughly this long before retrying.
        retry_after_ms: u64,
        /// Queue depth observed at rejection.
        queue_depth: u64,
    },
    /// A typed failure (bad request, generation error, deadline, …).
    Error {
        /// Stable machine-readable kind (`bad-request`, `deadline`,
        /// `compute`, `shutting-down`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Render as the wire JSON document.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Response::Generate { n, fingerprint, keys } => {
                let mut s = format!(
                    "{{\"ok\":true,\"op\":\"generate\",\"n\":{n},\"fingerprint\":\"{fingerprint:016x}\""
                );
                if let Some(keys) = keys {
                    s.push_str(",\"keys\":[");
                    for (i, k) in keys.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        s.push_str(&k.to_string());
                    }
                    s.push(']');
                }
                s.push('}');
                s
            }
            Response::Measure { cell } => format!(
                "{{\"ok\":true,\"op\":\"measure\",\"cell\":{}}}",
                jstr(&checkpoint::encode(cell))
            ),
            Response::Grid { cells } => {
                let mut s = String::from("{\"ok\":true,\"op\":\"grid\",\"cells\":[");
                for (i, (n, cell)) in cells.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"n\":{n},\"cell\":{}}}",
                        jstr(&checkpoint::encode(cell))
                    ));
                }
                s.push_str("]}");
                s
            }
            Response::Status(b) => format!(
                "{{\"ok\":true,\"op\":\"status\",\"queue_depth\":{},\"queue_cap\":{},\
                 \"inflight\":{},\"requests_total\":{},\"ok_total\":{},\"error_total\":{},\
                 \"overloaded_total\":{},\"deadline_total\":{},\"cache_hits\":{},\
                 \"cache_misses\":{},\"cache_quarantined\":{},\"jobs_recovered\":{},\
                 \"jobs_tombstoned\":{},\"journal_quarantined\":{},\"uptime_s\":{}}}",
                b.queue_depth,
                b.queue_cap,
                b.inflight,
                b.requests_total,
                b.ok_total,
                b.error_total,
                b.overloaded_total,
                b.deadline_total,
                b.cache_hits,
                b.cache_misses,
                b.cache_quarantined,
                b.jobs_recovered,
                b.jobs_tombstoned,
                b.journal_quarantined,
                b.uptime_s,
            ),
            Response::Health { version } => {
                format!("{{\"ok\":true,\"op\":\"health\",\"version\":{version}}}")
            }
            Response::Metrics { text } => {
                format!("{{\"ok\":true,\"op\":\"metrics\",\"text\":{}}}", jstr(text))
            }
            Response::Overloaded { retry_after_ms, queue_depth } => format!(
                "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\
                 \"queue_depth\":{queue_depth}}}"
            ),
            Response::Error { kind, message } => {
                format!("{{\"ok\":false,\"error\":{},\"message\":{}}}", jstr(kind), jstr(message))
            }
        }
    }

    /// Parse a response document.
    ///
    /// # Errors
    ///
    /// [`WcmsError::WireMalformed`] for anything that does not parse as
    /// a response.
    pub fn decode(text: &str) -> Result<Response, WcmsError> {
        let v = json::parse(text).map_err(|e| malformed(format!("bad response JSON: {e}")))?;
        let ok = match v.get("ok") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(malformed("missing boolean field `ok`")),
        };
        if !ok {
            let kind = get_str(&v, "error")?.to_string();
            if kind == "overloaded" {
                return Ok(Response::Overloaded {
                    retry_after_ms: get_u64(&v, "retry_after_ms")?,
                    queue_depth: get_u64(&v, "queue_depth")?,
                });
            }
            return Ok(Response::Error {
                kind,
                message: get_str(&v, "message").unwrap_or("").to_string(),
            });
        }
        let cell = |v: &Value| -> Result<CellResult, WcmsError> {
            let text = get_str(v, "cell")?;
            checkpoint::decode(text)
                .ok_or_else(|| malformed("embedded cell payload failed to parse"))
        };
        Ok(match get_str(&v, "op")? {
            "generate" => Response::Generate {
                n: get_usize(&v, "n")?,
                fingerprint: u64::from_str_radix(get_str(&v, "fingerprint")?, 16)
                    .map_err(|_| malformed("`fingerprint` is not hex"))?,
                keys: match v.get("keys") {
                    None => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or_else(|| malformed("`keys` must be an array"))?
                            .iter()
                            .map(|x| {
                                x.as_u64()
                                    .and_then(|k| u32::try_from(k).ok())
                                    .ok_or_else(|| malformed("non-u32 key in `keys`"))
                            })
                            .collect::<Result<Vec<u32>, WcmsError>>()?,
                    ),
                },
            },
            "measure" => Response::Measure { cell: cell(&v)? },
            "grid" => {
                let items = v
                    .get("cells")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| malformed("missing array field `cells`"))?;
                let mut cells = Vec::with_capacity(items.len());
                for item in items {
                    cells.push((get_usize(item, "n")?, cell(item)?));
                }
                Response::Grid { cells }
            }
            "status" => Response::Status(StatusBody {
                queue_depth: get_u64(&v, "queue_depth")?,
                queue_cap: get_u64(&v, "queue_cap")?,
                inflight: get_u64(&v, "inflight")?,
                requests_total: get_u64(&v, "requests_total")?,
                ok_total: get_u64(&v, "ok_total")?,
                error_total: get_u64(&v, "error_total")?,
                overloaded_total: get_u64(&v, "overloaded_total")?,
                deadline_total: get_u64(&v, "deadline_total")?,
                cache_hits: get_u64(&v, "cache_hits")?,
                cache_misses: get_u64(&v, "cache_misses")?,
                cache_quarantined: get_u64(&v, "cache_quarantined")?,
                jobs_recovered: get_u64(&v, "jobs_recovered")?,
                jobs_tombstoned: get_u64(&v, "jobs_tombstoned")?,
                journal_quarantined: get_u64(&v, "journal_quarantined")?,
                uptime_s: v
                    .get("uptime_s")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| malformed("missing number field `uptime_s`"))?,
            }),
            "health" => Response::Health { version: get_u64(&v, "version")? },
            "metrics" => Response::Metrics { text: get_str(&v, "text")?.to_string() },
            other => return Err(malformed(format!("unknown response op `{other}`"))),
        })
    }
}

/// FNV-1a 64 fingerprint over keys (little-endian byte order) — the
/// hash family the dataset format and checkpoint store already use.
#[must_use]
pub fn keys_fingerprint(keys: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcms_bench::experiment::Measurement;
    use wcms_dmm::stats::Summary;

    fn tuning() -> Tuning {
        Tuning { w: 32, e: 7, b: 64 }
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Generate {
                tuning: tuning(),
                n: 3584,
                family: WorkloadSpec::WorstCase,
                include_data: true,
                trace: None,
            },
            Request::Generate {
                tuning: tuning(),
                n: 3584,
                family: WorkloadSpec::WorstCase,
                include_data: false,
                trace: Some(TraceContext::root(7, "load/gen")),
            },
            Request::Measure {
                tuning: tuning(),
                n: 3584,
                family: WorkloadSpec::WorstCaseFamily { seed: 9 },
                runs: 2,
                backend: BackendKind::Analytic,
                algorithm: AlgorithmKind::Pairwise,
                device: "test".into(),
                budget_ms: Some(750),
                trace: None,
            },
            Request::Measure {
                tuning: tuning(),
                n: 3584,
                family: WorkloadSpec::WorstCase,
                runs: 1,
                backend: BackendKind::Sim,
                algorithm: AlgorithmKind::Multiway,
                device: "test".into(),
                budget_ms: None,
                trace: Some(TraceContext::root(0xC0FFEE, "load/measure")),
            },
            Request::Grid {
                tuning: tuning(),
                family: WorkloadSpec::Random { seed: 3 },
                min_doublings: 1,
                max_doublings: 4,
                runs: 2,
                backend: BackendKind::Sim,
                algorithm: AlgorithmKind::Multiway,
                device: "rtx_2080_ti".into(),
                budget_ms: None,
                trace: Some(TraceContext::root(1, "fleet")),
            },
            Request::Status,
            Request::Health,
            Request::Metrics,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for r in all_requests() {
            let text = r.encode();
            assert_eq!(Request::decode(&text).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn families_round_trip() {
        let specs = [
            WorkloadSpec::Random { seed: 1 },
            WorkloadSpec::RandomPermutation { seed: 2 },
            WorkloadSpec::Sorted,
            WorkloadSpec::Reverse,
            WorkloadSpec::KSwaps { swaps: 5, seed: 6 },
            WorkloadSpec::FewDistinct { distinct: 7, seed: 8 },
            WorkloadSpec::Sawtooth { teeth: 3 },
            WorkloadSpec::WorstCase,
            WorkloadSpec::WorstCaseFamily { seed: 11 },
            WorkloadSpec::ConflictHeavy { stride: 4 },
        ];
        for spec in specs {
            let v = json::parse(&encode_family(&spec)).unwrap();
            assert_eq!(decode_family(&v).unwrap(), spec);
        }
    }

    #[test]
    fn responses_round_trip() {
        let m = Measurement {
            n: 3584,
            throughput: 1.25e8,
            ms: 0.024576,
            throughput_spread: Summary { n: 2, mean: 1.25e8, min: 1.2e8, max: 1.3e8, stddev: 7e6 },
            beta1: 3.0999999999999996,
            beta2: 15.0,
            conflicts_per_element: 0.875,
            ms_per_element: 8e-6,
        };
        let responses = vec![
            Response::Generate { n: 4, fingerprint: 0xDEAD_BEEF, keys: Some(vec![3, 1, 2, 0]) },
            Response::Generate { n: 1 << 20, fingerprint: 7, keys: None },
            Response::Measure { cell: CellResult::Done(m.clone()) },
            Response::Grid {
                cells: vec![
                    (128, CellResult::Done(m.clone())),
                    (256, CellResult::Demoted { m, on: "analytic".into(), attempts: 3 }),
                    (
                        512,
                        CellResult::Skipped { reason: "cell \"x\" timed out".into(), attempts: 2 },
                    ),
                ],
            },
            Response::Status(StatusBody {
                queue_depth: 3,
                queue_cap: 64,
                uptime_s: 1.5,
                ..StatusBody::default()
            }),
            Response::Health { version: PROTOCOL_VERSION },
            Response::Overloaded { retry_after_ms: 120, queue_depth: 64 },
            Response::Error {
                kind: "bad-request".into(),
                message: "unknown op `x`\nline 2".into(),
            },
        ];
        for r in responses {
            let text = r.encode();
            assert_eq!(Response::decode(&text).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", MAX_REQUEST_FRAME).unwrap();
        write_frame(&mut buf, b"", MAX_REQUEST_FRAME).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_REQUEST_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, MAX_REQUEST_FRAME).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Declares 3 GiB; the buffer must never be allocated.
        let mut bytes = Vec::from(0xC000_0000u32.to_be_bytes());
        bytes.extend_from_slice(b"xx");
        let err = read_frame(&mut std::io::Cursor::new(bytes), MAX_REQUEST_FRAME).unwrap_err();
        assert!(matches!(err, WcmsError::WireMalformed { .. }), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"payload", MAX_REQUEST_FRAME).unwrap();
        for cut in 1..framed.len() {
            let err = read_frame(&mut std::io::Cursor::new(&framed[..cut]), MAX_REQUEST_FRAME)
                .unwrap_err();
            assert!(matches!(err, WcmsError::WireMalformed { .. }), "cut={cut}: {err}");
        }
    }

    #[test]
    fn canonical_keys_distinguish_every_parameter() {
        let base = Request::Measure {
            tuning: tuning(),
            n: 3584,
            family: WorkloadSpec::WorstCase,
            runs: 2,
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            device: "test".into(),
            budget_ms: None,
            trace: None,
        };
        let key = base.canonical_key().unwrap();
        let tweak = |f: &dyn Fn(&mut Request)| {
            let mut r = base.clone();
            f(&mut r);
            r.canonical_key().unwrap()
        };
        let variants: Vec<&dyn Fn(&mut Request)> = vec![
            &|r| {
                if let Request::Measure { n, .. } = r {
                    *n = 7168;
                }
            },
            &|r| {
                if let Request::Measure { runs, .. } = r {
                    *runs = 3;
                }
            },
            &|r| {
                if let Request::Measure { backend, .. } = r {
                    *backend = BackendKind::Analytic;
                }
            },
            &|r| {
                if let Request::Measure { device, .. } = r {
                    *device = "rtx_2080_ti".into();
                }
            },
            &|r| {
                if let Request::Measure { family, .. } = r {
                    *family = WorkloadSpec::WorstCaseFamily { seed: 0 };
                }
            },
            &|r| {
                if let Request::Measure { algorithm, .. } = r {
                    *algorithm = AlgorithmKind::Multiway;
                }
            },
        ];
        for f in variants {
            assert_ne!(tweak(f), key);
        }
        // The budget is a wait bound, not part of the answer.
        let budgeted = tweak(&|r| {
            if let Request::Measure { budget_ms, .. } = r {
                *budget_ms = Some(5);
            }
        });
        assert_eq!(budgeted, key);
        // The trace context names who asked, not what the answer is.
        let traced = tweak(&|r| {
            if let Request::Measure { trace, .. } = r {
                *trace = Some(TraceContext::root(1, "x"));
            }
        });
        assert_eq!(traced, key);
        assert_eq!(Request::Status.canonical_key(), None);
        assert_eq!(Request::Health.canonical_key(), None);
        assert_eq!(Request::Metrics.canonical_key(), None);
    }

    #[test]
    fn pairwise_requests_predate_the_algorithm_field() {
        // A pairwise measure must encode WITHOUT an `algorithm` field
        // and keep the exact cache key it had before the field existed
        // — otherwise every cache entry on disk silently misses.
        let pairwise = Request::Measure {
            tuning: tuning(),
            n: 3584,
            family: WorkloadSpec::WorstCase,
            runs: 2,
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            device: "test".into(),
            budget_ms: None,
            trace: None,
        };
        let doc = pairwise.encode();
        assert!(!doc.contains("algorithm"), "{doc}");
        assert_eq!(
            pairwise.canonical_key().unwrap(),
            format!(
                "wcms/v{PROTOCOL_VERSION}/s{} measure w=32 e=7 b=64 n=3584 \
                 family=worst-case runs=2 backend=sim device=test",
                crate::cache::CACHE_SCHEMA
            )
        );
        // A pre-algorithm client document (no `algorithm` key) decodes
        // as pairwise.
        assert_eq!(Request::decode(&doc).unwrap(), pairwise);
        // Multiway is a new key (and a rejected value is a typed error).
        let mut multiway = pairwise.clone();
        if let Request::Measure { algorithm, .. } = &mut multiway {
            *algorithm = AlgorithmKind::Multiway;
        }
        assert!(multiway.canonical_key().unwrap().ends_with(" algorithm=multiway"));
        assert_eq!(Request::decode(&multiway.encode()).unwrap(), multiway);
        let hostile =
            doc.replace("\"op\":\"measure\"", "\"op\":\"measure\",\"algorithm\":\"bitonic\"");
        let err = Request::decode(&hostile).unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn untraced_requests_predate_the_trace_field() {
        // An untraced request must encode WITHOUT a `trace` field and
        // keep the exact pre-trace document and cache key — a traced
        // request must hit the same cache entry as an untraced one.
        let untraced = Request::Measure {
            tuning: tuning(),
            n: 3584,
            family: WorkloadSpec::WorstCase,
            runs: 2,
            backend: BackendKind::Sim,
            algorithm: AlgorithmKind::Pairwise,
            device: "test".into(),
            budget_ms: None,
            trace: None,
        };
        let doc = untraced.encode();
        assert!(!doc.contains("trace"), "{doc}");
        let mut traced = untraced.clone();
        let ctx = TraceContext::root(0xC0FFEE, "fleet-obs");
        if let Request::Measure { trace, .. } = &mut traced {
            *trace = Some(ctx);
        }
        // Byte-identical cache keys with and without `trace`.
        assert_eq!(traced.canonical_key(), untraced.canonical_key());
        let traced_doc = traced.encode();
        assert!(traced_doc.contains(&format!("\"trace\":\"{}\"", ctx.encode())), "{traced_doc}");
        assert_eq!(Request::decode(&traced_doc).unwrap(), traced);
        // A pre-trace client document (no `trace` key) decodes as None.
        assert_eq!(Request::decode(&doc).unwrap(), untraced);
        assert_eq!(Request::decode(&doc).unwrap().trace(), None);
    }

    #[test]
    fn hostile_trace_values_are_typed_rejections() {
        let doc = Request::Metrics.encode();
        assert_eq!(Request::decode(&doc).unwrap(), Request::Metrics);
        let base = all_requests()[0].encode();
        for bad in [
            "\"trace\":\"junk\"",
            "\"trace\":\"0000000000000000/0000000000000000\"",
            "\"trace\":42",
            &format!("\"trace\":\"{}\"", "f".repeat(4096)),
        ] {
            let hostile =
                base.replacen("\"op\":\"generate\"", &format!("\"op\":\"generate\",{bad}"), 1);
            let err = Request::decode(&hostile).unwrap_err();
            assert!(matches!(err, WcmsError::WireMalformed { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn metrics_response_round_trips() {
        let text = "# TYPE serve_ok_total counter\nserve_ok_total 3\n";
        let r = Response::Metrics { text: text.into() };
        let doc = r.encode();
        assert_eq!(Response::decode(&doc).unwrap(), r, "{doc}");
    }

    #[test]
    fn keys_fingerprint_matches_known_vector() {
        // FNV-1a over the bytes 01 00 00 00 02 00 00 00.
        let got = keys_fingerprint(&[1, 2]);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in [1u8, 0, 0, 0, 2, 0, 0, 0] {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(got, h);
    }
}
