//! Propagated trace context: `TraceId`/`SpanId` parent links that
//! follow a job across every process boundary the workspace has.
//!
//! A fleet run fans one admitted job out into supervisor cells executed
//! by whichever shard worker steals them; without a propagated context
//! no journal can say which request caused which cell. A
//! [`TraceContext`] names the current span (`trace` + `span`) and its
//! causal parent, and is *derived, never sampled*: ids come from the
//! splitmix64 finalizer over a seed and a label stream — the same
//! deterministic idiom as the shard layer's retry jitter — so replays
//! produce identical ids and no protocol path ever reads a clock or an
//! entropy source.
//!
//! The wire form is fixed-width (`<16 hex>/<16 hex>`), which lets
//! [`TraceContext::decode`] reject hostile or oversized inputs on a
//! length check *before* touching the bytes — the same
//! validate-before-allocate posture as the serve frame reader.

use crate::recorder::Field;

/// Default seed for fresh roots when a caller has no sweep seed of its
/// own (the obs layer's seeded RNG domain).
pub const TRACE_SEED: u64 = 0x0B5E_55ED_7124_CE00;

/// Byte length of the wire encoding: 16 hex + `/` + 16 hex.
pub const TRACE_WIRE_LEN: usize = 33;

/// A 64-bit trace identifier shared by every span of one causal tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// A 64-bit span identifier, unique within its trace by construction
/// (derived from the parent chain and the span's label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// The current position in a causal tree: which trace, which span, and
/// which span caused it (`None` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace every descendant span shares.
    pub trace: TraceId,
    /// This span's own id.
    pub span: SpanId,
    /// The causal parent's span id (`None` for a root span).
    pub parent: Option<SpanId>,
}

/// The splitmix64 finalizer: the workspace's sanctioned deterministic
/// bit mixer (trace ids here, the shard layer's retry jitter).
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// FNV-1a 64 over `bytes`: trace-stream labels here, the cell-name,
/// cache-key, lease and manifest fingerprints of the checkpoint, shard
/// and serve layers, and the `fnv1a:` checksum footer of checkpoint
/// frames (serve cache entries carry an XXH64 footer instead).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Ids are never zero: zero is the traditional "absent" sentinel in
/// trace propagation formats, and keeping it unrepresentable means a
/// zeroed buffer can never masquerade as a valid context.
fn nonzero(x: u64) -> u64 {
    if x == 0 {
        1
    } else {
        x
    }
}

impl TraceContext {
    /// A fresh root: trace and span derived from `(seed, stream)`, no
    /// parent. Pure — the same seed and stream always name the same
    /// root, so a replayed run reproduces its trace ids exactly.
    #[must_use]
    pub fn root(seed: u64, stream: &str) -> Self {
        let trace = nonzero(mix(seed ^ fnv1a64(stream.as_bytes())));
        let span = nonzero(mix(trace ^ 0x9E37_79B9_7F4A_7C15));
        TraceContext { trace: TraceId(trace), span: SpanId(span), parent: None }
    }

    /// A child span of this context labelled `label`: same trace, a new
    /// span id derived from the parent chain and the label, parent set
    /// to this span. Distinct labels (or distinct parents) give
    /// distinct span ids.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        let span =
            nonzero(mix(self.trace.0 ^ self.span.0.rotate_left(17) ^ fnv1a64(label.as_bytes())));
        TraceContext { trace: self.trace, span: SpanId(span), parent: Some(self.span) }
    }

    /// The fixed-width wire encoding `"<trace:016x>/<span:016x>"`. The
    /// parent is deliberately not on the wire: a receiver adopting this
    /// context as its root identity *is* the parent link.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("{:016x}/{:016x}", self.trace.0, self.span.0)
    }

    /// Decode the wire form. The length gate runs before anything else,
    /// so an oversized (hostile) input is rejected without allocating
    /// or scanning it.
    ///
    /// # Errors
    ///
    /// A description for wrong length, a missing separator, non-hex
    /// digits, or a zero id.
    pub fn decode(s: &str) -> Result<Self, String> {
        if s.len() != TRACE_WIRE_LEN {
            return Err(format!(
                "trace context must be exactly {TRACE_WIRE_LEN} bytes (<16 hex>/<16 hex>), \
                 got {} bytes",
                s.len()
            ));
        }
        let bytes = s.as_bytes();
        if bytes[16] != b'/' {
            return Err("trace context separator must be '/' at byte 16".to_string());
        }
        let parse = |part: &str, what: &str| -> Result<u64, String> {
            let v = u64::from_str_radix(part, 16)
                .map_err(|_| format!("trace context {what} is not 16 hex digits: {part:?}"))?;
            if v == 0 {
                return Err(format!("trace context {what} must be nonzero"));
            }
            Ok(v)
        };
        let trace = parse(&s[..16], "trace id")?;
        let span = parse(&s[17..], "span id")?;
        Ok(TraceContext { trace: TraceId(trace), span: SpanId(span), parent: None })
    }

    /// Hex form of one id, as stamped into record fields and lease
    /// files.
    #[must_use]
    pub fn hex(id: u64) -> String {
        format!("{id:016x}")
    }

    /// Append this context's `trace`/`span`(/`parent`) fields to a span
    /// or event's field list — the stamping format the join engine and
    /// causality validator read back.
    pub fn stamp(&self, fields: &mut Vec<Field>) {
        fields.push(Field::new("trace", Self::hex(self.trace.0)));
        fields.push(Field::new("span", Self::hex(self.span.0)));
        if let Some(parent) = self.parent {
            fields.push(Field::new("parent", Self::hex(parent.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_are_deterministic_and_stream_separated() {
        let a = TraceContext::root(7, "serve/job-1");
        let b = TraceContext::root(7, "serve/job-1");
        assert_eq!(a, b, "same seed+stream must replay the same root");
        assert!(a.parent.is_none());
        let c = TraceContext::root(7, "serve/job-2");
        assert_ne!(a.trace, c.trace, "distinct streams get distinct traces");
        let d = TraceContext::root(8, "serve/job-1");
        assert_ne!(a.trace, d.trace, "distinct seeds get distinct traces");
    }

    #[test]
    fn children_share_the_trace_and_link_to_their_parent() {
        let root = TraceContext::root(1, "sweep");
        let cell = root.child("cell/w32 b64 E3 n4096");
        assert_eq!(cell.trace, root.trace);
        assert_eq!(cell.parent, Some(root.span));
        assert_ne!(cell.span, root.span);
        // Distinct labels and distinct parents both separate span ids.
        assert_ne!(cell.span, root.child("cell/other").span);
        let other_parent = TraceContext::root(1, "other").child("cell/w32 b64 E3 n4096");
        assert_ne!(cell.span, other_parent.span);
    }

    /// Property sweep: encode/decode round-trips over a seeded id walk,
    /// and every id stays nonzero.
    #[test]
    fn codec_round_trips_over_a_seeded_walk() {
        let mut ctx = TraceContext::root(0xC0FFEE, "walk");
        for i in 0..500 {
            assert_ne!(ctx.trace.0, 0);
            assert_ne!(ctx.span.0, 0);
            let decoded = TraceContext::decode(&ctx.encode()).unwrap();
            assert_eq!(decoded.trace, ctx.trace);
            assert_eq!(decoded.span, ctx.span);
            assert_eq!(decoded.parent, None, "the wire deliberately drops the parent");
            ctx = ctx.child(&format!("step-{i}"));
        }
    }

    #[test]
    fn hostile_and_oversized_inputs_are_rejected_on_the_length_gate() {
        // Oversized: rejected by length alone, before any scan.
        let huge = "f".repeat(1 << 20);
        assert!(TraceContext::decode(&huge).unwrap_err().contains("33 bytes"));
        for bad in [
            "",
            "0123456789abcdef",                         // too short
            "0123456789abcdef-0123456789abcdef",        // wrong separator
            "0123456789abcdeg/0123456789abcdef",        // non-hex
            "0123456789abcdef/0123456789abcdeg",        // non-hex span
            "0000000000000000/0123456789abcdef",        // zero trace id
            "0123456789abcdef/0000000000000000",        // zero span id
            " 123456789abcdef/0123456789abcdef",        // whitespace digit
            "0x23456789abcdef/0123456789abcdef",        // radix prefix
            "0123456789abcdef/0123456789abcde\u{00e9}", // multibyte tail
        ] {
            assert!(TraceContext::decode(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn stamp_writes_the_join_engine_field_triplet() {
        let root = TraceContext::root(1, "r");
        let mut fields = Vec::new();
        root.stamp(&mut fields);
        assert_eq!(fields.len(), 2, "a root has no parent field: {fields:?}");
        assert_eq!(fields[0].key, "trace");
        assert_eq!(fields[1].key, "span");

        let child = root.child("c");
        let mut fields = Vec::new();
        child.stamp(&mut fields);
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[2].key, "parent");
    }

    #[test]
    fn encode_is_fixed_width() {
        let ctx = TraceContext::root(1, "x");
        assert_eq!(ctx.encode().len(), TRACE_WIRE_LEN);
        assert_eq!(TraceContext::decode(&ctx.encode()).unwrap().trace, ctx.trace);
    }
}
