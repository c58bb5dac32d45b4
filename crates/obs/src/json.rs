//! Minimal JSON support for the telemetry sink: string escaping for the
//! writer side and a small recursive-descent parser for every reader of
//! telemetry and ledger lines, without external crates.
//!
//! The parser reads external bytes, so it fails closed: malformed input,
//! and nesting deeper than [`MAX_DEPTH`], give an `Err`, never a panic or
//! a stack overflow. It runs in time linear in the input length.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (including the quotes).
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Returns `s` as a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Formats an `f64` so the parser round-trips it (finite values only; the
/// telemetry layer maps non-finite values to `null`).
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value at `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Telemetry and
/// ledger lines nest at most three deep; the bound keeps recursion far
/// from the stack limit of any thread.
pub const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document.
///
/// # Errors
/// Returns a description of the first syntax error (with byte offset),
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`; `depth` counts the enclosing containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        // Surrogate pairs are not needed for telemetry output.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run of plain characters up to the next
                // quote or backslash. Both are ASCII, so the run ends on a
                // char boundary and validates as UTF-8 in one pass.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f→";
        let lit = escape(nasty);
        let parsed = parse(&lit).unwrap();
        assert_eq!(parsed, Value::String(nasty.to_string()));
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"event":"span_close","dur_ns":1234,"ok":true,"tags":["a","b"],"nested":{"x":-1.5e3},"none":null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("span_close"));
        assert_eq!(v.get("dur_ns").and_then(Value::as_u64), Some(1234));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("x"))
                .and_then(Value::as_f64),
            Some(-1500.0)
        );
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert!(matches!(v.get("tags"), Some(Value::Array(items)) if items.len() == 2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "12x", "{} extra"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.5, -2.25e-9, 1e12, 0.1] {
            let mut s = String::new();
            number_into(&mut s, v);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(v));
        }
        let mut s = String::new();
        number_into(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }
}
