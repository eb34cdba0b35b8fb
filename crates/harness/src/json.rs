//! Minimal JSON emission and validation for the harness artifacts.
//!
//! The workspace is offline (no serde), but the `scenarios` and
//! `spanner-fuzz` binaries emit machine-readable JSON artifacts and CI
//! must be able to prove they parse. This module provides the two
//! halves:
//!
//! * [`JsonValue`] with a deterministic writer (object keys keep
//!   insertion order, floats render with enough precision to round-trip
//!   the measurements);
//! * [`parse`], a strict recursive-descent reader used by every
//!   `--check` — it accepts exactly the JSON grammar (RFC 8259, minus
//!   the laxities: no trailing commas, no comments, no NaN).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as f64, as JavaScript would).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved for stable output.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// Convenience: the array items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: the float value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// Convenience: the string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn write_indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        f.write_str("  ")?;
    }
    Ok(())
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &JsonValue, depth: usize) -> fmt::Result {
    match value {
        JsonValue::Null => f.write_str("null"),
        JsonValue::Bool(b) => write!(f, "{b}"),
        JsonValue::Number(x) => {
            // JSON has no NaN/Infinity. `num` rejects them at
            // construction; a directly built `Number(inf)` degrades to
            // `null` here so Display stays total and the output stays
            // valid JSON either way.
            if !x.is_finite() {
                return f.write_str("null");
            }
            if x.fract() == 0.0 && x.abs() < 1e15 {
                write!(f, "{}", *x as i64)
            } else {
                write!(f, "{x}")
            }
        }
        JsonValue::String(s) => write_escaped(f, s),
        JsonValue::Array(items) => {
            if items.is_empty() {
                return f.write_str("[]");
            }
            f.write_str("[\n")?;
            for (i, item) in items.iter().enumerate() {
                write_indent(f, depth + 1)?;
                write_value(f, item, depth + 1)?;
                f.write_str(if i + 1 == items.len() { "\n" } else { ",\n" })?;
            }
            write_indent(f, depth)?;
            f.write_str("]")
        }
        JsonValue::Object(members) => {
            if members.is_empty() {
                return f.write_str("{}");
            }
            f.write_str("{\n")?;
            for (i, (key, item)) in members.iter().enumerate() {
                write_indent(f, depth + 1)?;
                write_escaped(f, key)?;
                f.write_str(": ")?;
                write_value(f, item, depth + 1)?;
                f.write_str(if i + 1 == members.len() { "\n" } else { ",\n" })?;
            }
            write_indent(f, depth)?;
            f.write_str("}")
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

/// Builder sugar: `obj([("k", v), …])`.
pub fn obj<I: IntoIterator<Item = (&'static str, JsonValue)>>(members: I) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builder sugar for strings.
pub fn s(value: impl Into<String>) -> JsonValue {
    JsonValue::String(value.into())
}

/// Builder sugar for numbers.
///
/// # Panics
///
/// Panics on non-finite values — JSON has no NaN/Infinity, and a
/// measurement that produced one is a bug worth failing loudly on.
pub fn num(value: f64) -> JsonValue {
    assert!(value.is_finite(), "non-finite number has no JSON encoding");
    JsonValue::Number(value)
}

/// A parse failure, with byte offset for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.parse_number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.bytes.get(p.pos), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        let int_start = self.pos;
        if !digits(self) {
            return self.err("expected digits");
        }
        // RFC 8259: the integer part is `0` or starts with 1-9 — no
        // leading zeros.
        if self.pos - int_start > 1 && self.bytes[int_start] == b'0' {
            return self.err("leading zero in number");
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return self.err("expected exponent digits");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(x) => Ok(JsonValue::Number(x)),
            Err(_) => self.err("number out of range"),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex =
                                self.bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or(JsonError {
                                        offset: self.pos,
                                        message: "truncated \\u escape".into(),
                                    })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                                offset: self.pos,
                                message: "non-ascii \\u escape".into(),
                            })?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                                offset: self.pos,
                                message: "bad \\u escape".into(),
                            })?;
                            // Surrogates are rejected rather than paired:
                            // the perf artifacts never emit them.
                            out.push(char::from_u32(code).ok_or(JsonError {
                                offset: self.pos,
                                message: "invalid code point".into(),
                            })?);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unvalidated byte-wise;
                    // re-validate at the end via from_utf8 on the slice.
                    let start = self.pos;
                    while matches!(self.bytes.get(self.pos), Some(c) if *c != b'"' && *c != b'\\') {
                        self.pos += 1;
                    }
                    let chunk =
                        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                            JsonError {
                                offset: start,
                                message: "invalid utf-8 in string".into(),
                            }
                        })?;
                    if let Some(c) = chunk.chars().find(|c| (*c as u32) < 0x20) {
                        return Err(JsonError {
                            offset: start,
                            message: format!("raw control character {:#x} in string", c as u32),
                        });
                    }
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return self.err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing garbage after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_bench_record() {
        let doc = obj([
            ("schema", s("vft-spanner/bench-2")),
            ("wall_ms", num(12.75)),
            ("n", num(48.0)),
            (
                "records",
                JsonValue::Array(vec![obj([
                    ("family", s("complete")),
                    ("speedup", num(2.5)),
                    ("exact", JsonValue::Bool(true)),
                    ("note", JsonValue::Null),
                ])]),
            ),
        ]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("vft-spanner/bench-2")
        );
        assert_eq!(back.get("wall_ms").unwrap().as_f64(), Some(12.75));
        assert_eq!(back.get("records").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn escapes_and_whitespace() {
        let doc = obj([("weird", s("a\"b\\c\nd\te"))]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(
            parse("  [1, 2.5, -3e2, \"\\u0041\"]  ").unwrap(),
            JsonValue::Array(vec![num(1.0), num(2.5), num(-300.0), s("A"),])
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "nul",
            "01x",
            "\"unterminated",
            "{\"a\":1}{",
            "{\"a\":1,\"a\":2}",
            "01",
            "-007.5",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(num(3.0).to_string(), "3");
        assert_eq!(num(3.5).to_string(), "3.5");
        // Leading-zero-free but zero itself is fine both ways.
        assert_eq!(parse("0").unwrap(), num(0.0));
        assert_eq!(parse("0.5").unwrap(), num(0.5));
    }

    #[test]
    #[should_panic(expected = "no JSON encoding")]
    fn non_finite_numbers_rejected_at_construction() {
        let _ = num(f64::INFINITY);
    }

    #[test]
    fn directly_built_non_finite_degrades_to_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }
}
