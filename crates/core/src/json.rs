//! Dependency-free JSON reading and writing for report types.
//!
//! The build environment pins external dependencies to offline stand-ins
//! (see `vendor/`), so reports serialize through this small hand-rolled
//! JSON layer instead of `serde_json`. It supports exactly the JSON subset
//! the report types need: objects, arrays, strings, IEEE-754 numbers,
//! booleans and null, with shortest-round-trip float formatting. The parser
//! rejects arrays and objects nested deeper than 128 levels.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Keys are kept sorted for deterministic output.
    Object(BTreeMap<String, JsonValue>),
}

/// An error produced while parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`JsonValue::parse`] accepts.
/// The parser recurses once per level, so without a bound one line of
/// `[` (the daemon reads lines of up to 64 KiB) overflows a thread's
/// stack; the deepest document the workspace writes nests 7 levels.
const MAX_DEPTH: usize = 128;

impl JsonValue {
    /// Parse JSON text into a value. Arrays and objects nested more than
    /// 128 levels deep are an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Append this value's compact JSON encoding to a caller-owned buffer.
    ///
    /// The buffer is *not* cleared: callers that recycle one `String`
    /// across messages (`buf.clear()` then `write_to`) serialize with zero
    /// per-message allocations once the buffer reaches steady-state
    /// capacity — the daemon's per-connection reply loop does exactly
    /// this. [`fmt::Display`] (`to_string()`) remains the convenient
    /// one-shot form.
    pub fn write_to(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => write_number(*x, out),
            JsonValue::String(s) => write_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                let mut object = ObjectWriter::new(out);
                for (key, value) in fields {
                    value.write(object.field(key));
                }
                object.finish();
            }
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a count, if it is one: a non-negative integer no
    /// larger than 2^53, past which an `f64` stops holding every integer.
    /// Decoders read every step, hour and index count through this, so a
    /// negative, fractional or huge value is an error, not a cast.
    pub fn as_count(&self) -> Option<u64> {
        self.as_f64()
            .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0)
            .map(|x| x as u64)
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A field of the value, if it is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.get(key),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    /// Formats as compact JSON text (so `to_string()` serializes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Build a [`JsonValue::Object`] from `(key, value)` pairs.
pub fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    object_iter(fields)
}

/// Build a [`JsonValue::Object`] from a dynamically sized collection of
/// fields (the fixed-arity [`object`] covers the common literal case).
pub fn object_iter<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Build a [`JsonValue::Array`] of numbers from a slice of floats.
pub fn number_array(xs: &[f64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|&x| JsonValue::Number(x)).collect())
}

/// Writes one JSON object field by field straight into a buffer: the
/// streaming form of [`JsonValue::Object`]'s encoding, for text that costs
/// less to write in place than to build as a tree first. Fields must come
/// in ascending key order, the order an object keeps them in, so that the
/// two forms write the same bytes.
pub(crate) struct ObjectWriter<'o, 'k> {
    out: &'o mut String,
    last_key: Option<&'k str>,
}

impl<'o, 'k> ObjectWriter<'o, 'k> {
    /// Open an object at the end of `out`.
    pub(crate) fn new(out: &'o mut String) -> Self {
        out.push('{');
        Self { out, last_key: None }
    }

    /// Write the field name `key`, and lend the buffer its value is
    /// written to next.
    pub(crate) fn field(&mut self, key: &'k str) -> &mut String {
        if let Some(last) = self.last_key {
            debug_assert!(last < key, "field '{key}' written after '{last}'");
            self.out.push(',');
        }
        self.last_key = Some(key);
        write_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// Close the object.
    pub(crate) fn finish(self) {
        self.out.push('}');
    }
}

pub(crate) fn write_number(x: f64, out: &mut String) {
    if x.is_finite() {
        // Rust's float Display is shortest-round-trip, which is exactly
        // what a lossless JSON encoding needs.
        use fmt::Write as _;
        let _ = write!(out, "{x}");
    } else {
        // JSON has no NaN/Infinity; encode as null like serde_json does.
        out.push_str("null");
    }
}

pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Parse one value enclosed by `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs are not needed by report data;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character. `pos` only ever advances
                    // by whole characters, so slicing the source text here
                    // is on a char boundary and costs O(1).
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError { offset: start, message: format!("bad number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "42", "-3.25", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn write_to_appends_and_matches_display() {
        let v = object([
            ("cmd", JsonValue::String("stats".into())),
            ("weights", number_array(&[1.0, 2.5])),
        ]);
        let mut buf = String::from("reply: ");
        v.write_to(&mut buf);
        assert_eq!(buf, format!("reply: {v}"), "write_to appends without clearing");
        buf.clear();
        v.write_to(&mut buf);
        assert_eq!(buf, v.to_string(), "recycled buffer serializes identically");
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = object([
            ("name", JsonValue::String("nine \"clusters\"".into())),
            ("weights", number_array(&[1.0, 2.5, 1e-9])),
            ("ok", JsonValue::Bool(true)),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1, 1.0 / 3.0, 1e300, -2.2250738585072014e-308, 12345.6789] {
            let text = JsonValue::Number(x).to_string();
            assert_eq!(JsonValue::parse(&text).unwrap().as_f64().unwrap(), x);
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\\n\" : [ 1 , 2 ] , \"b\" : \"\\u0041\" } ").unwrap();
        assert_eq!(v.get("a\n").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "A");
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["", "{", "[1,", "tru", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(JsonValue::parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn nesting_deeper_than_the_bound_is_an_error() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        // Alternating levels: `[{"k":` opens two.
        let mixed =
            |depth: usize| format!("{}0{}", "[{\"k\":".repeat(depth / 2), "}]".repeat(depth / 2));
        for text in [arrays(MAX_DEPTH), objects(MAX_DEPTH), mixed(MAX_DEPTH)] {
            assert!(JsonValue::parse(&text).is_ok(), "{MAX_DEPTH} levels parse");
        }
        for text in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1), mixed(MAX_DEPTH + 2)] {
            let err = JsonValue::parse(&text).unwrap_err();
            assert_eq!(err.message, format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        // The error points at the first bracket past the bound.
        assert_eq!(JsonValue::parse(&arrays(MAX_DEPTH + 1)).unwrap_err().offset, MAX_DEPTH);
        // A line of nothing but `[` fails the same way, however long.
        assert!(JsonValue::parse(&"[".repeat(65_535)).is_err());
    }

    #[test]
    fn counts_are_non_negative_integers_up_to_two_to_the_53() {
        for (x, count) in [
            (0.0, Some(0)),
            (-0.0, Some(0)),
            (7.0, Some(7)),
            (9.007_199_254_740_992e15, Some(1 << 53)),
        ] {
            assert_eq!(JsonValue::Number(x).as_count(), count, "{x}");
        }
        for x in [-3.0, 2.5, -0.5, 1e300, 9.007_199_254_740_994e15, f64::INFINITY, f64::NAN] {
            assert_eq!(JsonValue::Number(x).as_count(), None, "{x}");
        }
        assert_eq!(JsonValue::String("3".into()).as_count(), None);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string(), "null");
    }
}
