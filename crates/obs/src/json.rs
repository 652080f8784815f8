//! The workspace's one JSON reader (and string escaper).
//!
//! The workspace is offline — no serde_json. Journals, wire frames,
//! checkpoint cells, manifests and lease files are all read back through
//! [`parse`]. The value model is deliberately small: numbers are `f64`
//! (journal timestamps are microseconds, far inside the 2^53
//! exact-integer range) and objects preserve insertion order. Parsing
//! is linear in the document: each run of unescaped string bytes is
//! copied as one slice. Nesting is bounded (64 levels), so a hostile
//! document of brackets is refused instead of overflowing the stack.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match), else `None`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as an exact `u64` if this is a non-negative integral
    /// number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// documents the workspace writes nest at most 4 levels (the Chrome
/// trace export); the parser recurses once per level.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A `String` naming the byte offset and what was expected there, or
/// the first bracket nested deeper than 64 levels.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("byte {pos}: trailing characters after the document"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays and
/// objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("byte {pos}: nesting deeper than {MAX_DEPTH} levels"))
        }
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(format!("byte {pos}: unexpected end of input")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("byte {pos}: expected '{lit}'"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if let Some(b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8".to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("byte {start}: '{text}' is not a number"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("byte {pos}: unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("byte {pos}: truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("byte {pos}: bad \\u escape '{hex}'"))?;
                        // Surrogates (journals never emit them) degrade
                        // to the replacement character rather than fail.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("byte {pos}: bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // One run of unescaped bytes, copied as a slice. It ends
                // at an ASCII '"' or '\\', never inside a multi-byte
                // character, so the slice stays on char boundaries.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return Err(format!("byte {pos}: expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("byte {pos}: expected a string key"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("byte {pos}: expected ':'"));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return Err(format!("byte {pos}: expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse(r#""é""#).unwrap(), Value::Str("é".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Obj(members) => {
                assert_eq!(members[0].0, "z");
                assert_eq!(members[1].0, "a");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", r#"{"a" 1}"#, "tru", "1 2", r#""unterminated"#] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let hostile = "a\"b\\c\nd\te\u{1}f é";
        let mut doc = String::new();
        escape_into(&mut doc, hostile);
        assert_eq!(parse(&doc).unwrap(), Value::Str(hostile.into()));
    }

    /// Each unescaped character once re-validated the rest of the
    /// document, so a 1 MiB string took about 20 s to parse.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let ascii = "a".repeat(1 << 20);
        let multi_byte = "é€😀".repeat((64 << 10) / 9);
        for s in [ascii, multi_byte] {
            let doc = format!("{{\"s\":\"{s}\\n\"}}");
            let started = std::time::Instant::now();
            let v = parse(&doc).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(v.get("s"), Some(&Value::Str(format!("{s}\n"))));
            assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
        }
    }

    /// A deep document is refused with a typed error, on a thread whose
    /// stack a recursion of 1 MiB of brackets would overflow many times
    /// over; the deepest accepted nesting still parses.
    #[test]
    fn deep_nesting_is_refused_not_a_stack_overflow() {
        let verdicts = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let arrays = "[".repeat(1 << 20);
                let objects = "{\"a\":".repeat((1 << 20) / 5);
                [parse(&arrays), parse(&objects)]
            })
            .unwrap()
            .join()
            .unwrap();
        for verdict in verdicts {
            let err = verdict.unwrap_err();
            assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let one_more = format!("[{deepest}]");
        assert!(parse(&one_more).unwrap_err().starts_with(&format!("byte {MAX_DEPTH}:")));
    }

    #[test]
    fn timestamps_survive_as_exact_integers() {
        let v = parse("1234567890123").unwrap();
        assert_eq!(v.as_u64(), Some(1_234_567_890_123));
    }
}
