//! The workspace's one JSON codec: every wire format serscale reads or
//! writes goes through it — the run journal, the logbook trace, the
//! checkpoint scheme, the telemetry streams, the HTTP control plane and
//! platform spec files.
//!
//! The vendored `serde` is a no-op marker-trait stand-in, so records are
//! written by hand with [`escape`] and [`number`] and read back by
//! [`parse`], a small RFC 8259 parser. Numbers parse through
//! `str::parse::<f64>`, the exact inverse of [`number`] for every finite
//! value, so a journal decodes to the bits it was written from. Nesting is
//! capped at [`MAX_DEPTH`] so a hostile document (an HTTP body, a
//! corrupted journal line) is an error rather than a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts. serscale's own
/// documents nest at most a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order discarded; duplicate keys keep the last).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object's field, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is a finite integral
    /// number in `[0, 2^53]` (the range where `f64` is exact).
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..=EXACT).contains(n))
            .map(|n| n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// What kind of value this is, for error messages ("a number",
    /// "an object", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "a boolean",
            JsonValue::Number(_) => "a number",
            JsonValue::String(_) => "a string",
            JsonValue::Array(_) => "an array",
            JsonValue::Object(_) => "an object",
        }
    }
}

/// Escapes a string into a JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a valid JSON number: the shortest representation
/// that round-trips, with integral values keeping a `.0` so the token stays
/// float-typed downstream.
pub fn number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; telemetry values that overflow render null.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Parses one JSON document. Errors carry a byte offset and reason;
/// nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

/// Parses a JSONL stream: one document per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<JsonValue>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte '{}' at {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ASCII \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex}"))?;
                            self.pos += 4;
                            // Surrogates (paired or lone) are out of scope
                            // for the telemetry schema; reject them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", char::from(other)));
                        }
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unharmed: the
                    // input is &str, so byte-wise copy of non-ASCII is safe
                    // as long as we only split at ASCII delimiters.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 run".to_string())?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_event_objects() {
        let v = parse(r#"{"event":"edac","t_s":12.5,"domain":"PMD","ok":true,"x":null}"#)
            .expect("parse");
        assert_eq!(v.get("event").and_then(JsonValue::as_str), Some("edac"));
        assert_eq!(v.get("t_s").and_then(JsonValue::as_f64), Some(12.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn parses_nesting_and_arrays() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).expect("parse");
        match v.get("a") {
            Some(JsonValue::Array(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b").and_then(JsonValue::as_str), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_escapes_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t unit\u{1} π";
        let doc = format!("{{\"k\":{}}}", escape(nasty));
        let v = parse(&doc).expect("parse");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn number_formatting_round_trips() {
        for x in [0.0, 1.0, -3.5, 1.5e-9, 6.022e23, 1e15, 123456.789] {
            let doc = format!("{{\"x\":{}}}", number(x));
            let v = parse(&doc).expect("parse");
            assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(x), "{x}");
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "{\"s\":\"\\q\"}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        let exact = (1u64 << 53) as f64;
        for (x, want) in [
            (0.0, Some(0)),
            (42.0, Some(42)),
            (exact, Some(1u64 << 53)),
            (exact * 2.0, None),
            (-1.0, None),
            (1.5, None),
            (f64::INFINITY, None),
            (f64::NAN, None),
        ] {
            assert_eq!(JsonValue::Number(x).as_u64(), want, "{x}");
        }
        assert_eq!(parse("7").expect("parse").as_u64(), Some(7));
        assert_eq!(JsonValue::String("7".into()).as_u64(), None);
    }

    #[test]
    fn kind_names_every_variant() {
        let v = parse(r#"[null,true,1,"s",[],{}]"#).expect("parse");
        let kinds: Vec<_> = v
            .as_array()
            .expect("array")
            .iter()
            .map(JsonValue::kind)
            .collect();
        assert_eq!(
            kinds,
            [
                "null",
                "a boolean",
                "a number",
                "a string",
                "an array",
                "an object"
            ]
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).expect_err("too deep").contains("nesting"));
        // Far past any stack: an error, not an overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_lines_reports_the_failing_line() {
        let good = "{\"a\":1}\n\n{\"b\":2}\n";
        assert_eq!(parse_lines(good).expect("jsonl").len(), 2);
        let bad = "{\"a\":1}\nnot json\n";
        let err = parse_lines(bad).expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
