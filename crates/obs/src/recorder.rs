//! The record model and the [`Recorder`] sink trait.
//!
//! A [`Record`] is one timestamped observation: a span boundary
//! (`Begin`/`End`, mirroring the Chrome trace-event `B`/`E` phases so
//! export is a projection, not a translation), an instant [`Phase::Event`],
//! or a [`Phase::Meta`] record the exporter itself emits (e.g. the
//! ring's drop counter). Records carry typed key=value [`Field`]s, not
//! preformatted strings, so exporters can render them losslessly.
//!
//! The sink is a trait so the disabled path costs nothing: when no
//! recorder is installed the macros never build their field vectors,
//! and [`NullRecorder`] (for tests that want a sink-shaped hole)
//! compiles to an empty inline body.

use std::sync::atomic::{AtomicU32, Ordering};

/// What kind of observation a [`Record`] is. The `char` values match
/// the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// An instant event (`ph: "I"`).
    Event,
    /// Exporter metadata, e.g. dropped-record counts (`ph: "M"`).
    Meta,
}

impl Phase {
    /// The single-character journal/Chrome encoding.
    #[must_use]
    pub(crate) fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Event => 'I',
            Phase::Meta => 'M',
        }
    }

    /// Parse the single-character encoding back.
    #[must_use]
    pub(crate) fn from_code(c: char) -> Option<Self> {
        match c {
            'B' => Some(Phase::Begin),
            'E' => Some(Phase::End),
            'I' => Some(Phase::Event),
            'M' => Some(Phase::Meta),
            _ => None,
        }
    }
}

/// A typed field value. Integers stay integers all the way into the
/// exported JSON (no float round-trip for counters).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, seeds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (latencies, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (cell names, backend names, reasons).
    Str(String),
}

macro_rules! impl_into_field_value {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        })*
    };
}
impl_into_field_value!(
    u64 => U64 as u64,
    u32 => U64 as u64,
    usize => U64 as u64,
    i64 => I64 as i64,
    i32 => I64 as i64,
    f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One `key = value` attachment of a record. Keys are `'static` by
/// construction (the `span!`/`event!` macros stringify identifiers), so
/// field cardinality is bounded by the source code, not the data.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub key: &'static str,
    /// Typed value.
    pub value: FieldValue,
}

impl Field {
    /// Build a field from anything convertible to a [`FieldValue`].
    pub fn new(key: &'static str, value: impl Into<FieldValue>) -> Self {
        Field { key, value: value.into() }
    }
}

/// One timestamped observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Timestamp in microseconds from the emitting [`crate::Obs`]'s clock.
    pub ts_us: u64,
    /// Stable small id of the emitting thread (see [`current_tid`]).
    pub tid: u32,
    /// Span boundary, instant event, or exporter metadata.
    pub phase: Phase,
    /// Record name — a source-code literal, so name cardinality is
    /// bounded (dynamic data goes in fields).
    pub name: &'static str,
    /// Typed attachments.
    pub fields: Vec<Field>,
}

/// A sink for records. Implementations must be cheap and non-blocking
/// enough to sit inside merge loops; the shipped collector
/// ([`crate::ring::RingCollector`]) is a bounded mutex-guarded ring.
pub trait Recorder: Send + Sync {
    /// Accept one record.
    fn record(&self, record: Record);
}

/// The sink that drops everything — the explicit no-op [`Recorder`].
/// (The *default* disabled path is cheaper still: no recorder installed
/// means the record is never even constructed.)
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&self, _record: Record) {}
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique id for the calling thread, assigned on first
/// use. Unlike `std::thread::ThreadId` it is a plain `u32` that
/// serializes naturally into journals and Chrome's `tid` field.
/// Assignment order depends on thread creation order, so journal
/// validation treats tids as opaque labels, never as expected values.
#[must_use]
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_round_trip() {
        for ph in [Phase::Begin, Phase::End, Phase::Event, Phase::Meta] {
            assert_eq!(Phase::from_code(ph.code()), Some(ph));
        }
        assert_eq!(Phase::from_code('x'), None);
    }

    #[test]
    fn field_values_convert_from_primitives() {
        assert_eq!(Field::new("n", 5usize).value, FieldValue::U64(5));
        assert_eq!(Field::new("d", -2i64).value, FieldValue::I64(-2));
        assert_eq!(Field::new("r", 0.5f64).value, FieldValue::F64(0.5));
        assert_eq!(Field::new("ok", true).value, FieldValue::Bool(true));
        assert_eq!(Field::new("s", "x").value, FieldValue::Str("x".into()));
    }

    #[test]
    fn tids_are_stable_within_a_thread_and_distinct_across() {
        let mine = current_tid();
        assert_eq!(current_tid(), mine);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(mine, other);
    }
}
