//! JSON parsing and serialization for [`Value`].
//!
//! Two parsers are provided:
//!
//! * [`parse`] — a strict, spec-conforming recursive-descent parser, used for
//!   materialized DocSets and query-plan files.
//! * [`parse_lenient`] — a forgiving parser used to recover structured output
//!   from LLM responses. The paper notes that "Sycamore handles retries and
//!   model-specific details like parsing the output as JSON" (§5.2); real
//!   models wrap JSON in prose, markdown fences, single quotes, and trailing
//!   commas, and the lenient parser repairs all of those.

use crate::error::{ArynError, Result};
use crate::serialize::MAX_DEPTH;
use crate::value::Value;
use std::collections::BTreeMap;

/// Serializes a value to compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::with_capacity(64);
    write_value(v, &mut out, None, 0);
    out
}

/// Serializes a value to pretty-printed JSON with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::with_capacity(128);
    write_value(v, &mut out, Some(2), 0);
    out
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; serialize as null like most implementations.
        out.push_str("null");
    } else {
        let s = format!("{f}");
        out.push_str(&s);
        // Keep a float marker so the value round-trips as a float.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses strict JSON.
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser::new(input, false);
    let v = p.value()?;
    p.skip_ws();
    if !p.eof() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Parses JSON leniently, repairing common LLM output defects:
///
/// * leading/trailing prose — scans for the first `{` or `[` and parses from
///   there, retrying later candidates if the first fails;
/// * markdown code fences;
/// * single-quoted strings and unquoted object keys;
/// * trailing commas;
/// * Python-style `True`/`False`/`None`.
///
/// Returns an error only if no parseable JSON value is found anywhere.
pub fn parse_lenient(input: &str) -> Result<Value> {
    let cleaned = strip_fences(input);
    // Fast path: the whole thing is valid strict JSON.
    if let Ok(v) = parse(cleaned) {
        return Ok(v);
    }
    let bytes = cleaned.as_bytes();
    let mut next = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if i >= next && (b == b'{' || b == b'[') {
            let mut p = Parser::new(&cleaned[i..], true);
            match p.value() {
                Ok(v) => return Ok(v),
                // A candidate inside a too-deep one is a fragment of the
                // same too-deep value: resume at the container refused.
                Err(_) if p.too_deep => next = i + p.pos,
                Err(_) => {}
            }
        }
    }
    // Last resort: a bare lenient scalar ("true", "42", "'yes'").
    let mut p = Parser::new(cleaned.trim(), true);
    if let Ok(v) = p.value() {
        p.skip_ws();
        if p.eof() {
            return Ok(v);
        }
    }
    Err(ArynError::Json {
        pos: 0,
        msg: "no JSON value found in text".into(),
    })
}

fn strip_fences(s: &str) -> &str {
    let t = s.trim();
    if let Some(rest) = t.strip_prefix("```") {
        // Drop an optional language tag on the fence line.
        let rest = match rest.find('\n') {
            Some(i) => &rest[i + 1..],
            None => rest,
        };
        if let Some(end) = rest.rfind("```") {
            return rest[..end].trim();
        }
        return rest.trim();
    }
    t
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    lenient: bool,
    /// Open arrays and objects; past [`MAX_DEPTH`] the input is refused
    /// instead of recursing further.
    depth: usize,
    /// Set when that happened.
    too_deep: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, lenient: bool) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            lenient,
            depth: 0,
            too_deep: false,
        }
    }

    fn err(&self, msg: &str) -> ArynError {
        ArynError::Json {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end of input"))? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string(b'"')?)),
            b'\'' if self.lenient => Ok(Value::Str(self.string(b'\'')?)),
            b't' | b'f' | b'n' => self.keyword(),
            b'T' | b'F' | b'N' if self.lenient => self.keyword(),
            b'-' | b'0'..=b'9' => self.number(),
            b'+' if self.lenient => self.number(),
            _ => Err(self.err("unexpected character")),
        }
    }

    /// Parses one container a level deeper, refusing nesting past
    /// [`MAX_DEPTH`] (the binary codec's bound) before the stack runs out.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth >= MAX_DEPTH {
            self.too_deep = true;
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value> {
        self.bump(); // '{'
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = match self.peek() {
                Some(b'"') => self.string(b'"')?,
                Some(b'\'') if self.lenient => self.string(b'\'')?,
                Some(b) if self.lenient && (b.is_ascii_alphabetic() || b == b'_') => {
                    self.bare_word()
                }
                Some(b'}') if self.lenient => {
                    // Trailing comma before '}'.
                    self.bump();
                    return Ok(Value::Object(m));
                }
                _ => return Err(self.err("expected object key")),
            };
            self.skip_ws();
            if self.bump() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(m)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.bump(); // '['
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(a));
        }
        loop {
            self.skip_ws();
            if self.lenient && self.peek() == Some(b']') {
                self.bump();
                return Ok(Value::Array(a));
            }
            a.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(a)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn bare_word(&mut self) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn keyword(&mut self) -> Result<Value> {
        let w = self.bare_word();
        match w.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "null" => Ok(Value::Null),
            "True" | "TRUE" if self.lenient => Ok(Value::Bool(true)),
            "False" | "FALSE" if self.lenient => Ok(Value::Bool(false)),
            "None" | "NULL" | "nan" | "NaN" if self.lenient => Ok(Value::Null),
            _ => Err(self.err("unknown keyword")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'-' | b'+' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Integers that overflow i64 fall back to f64, as in most parsers.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| self.err("invalid number"))
            })
        }
    }

    fn string(&mut self, quote: u8) -> Result<String> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                b if b == quote => return Ok(s),
                b'\\' => {
                    match self.bump().ok_or_else(|| self.err("unterminated escape"))? {
                        b'"' => s.push('"'),
                        b'\'' => s.push('\''),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: expect a \u low surrogate.
                                if self.bump() == Some(b'\\') && self.bump() == Some(b'u') {
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid surrogate pair"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    s.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                    );
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid unicode escape"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                b if b < 0x80 => s.push(b as char),
                b => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8 byte")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8 sequence"));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 sequence"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arr, obj};

    fn roundtrip(v: &Value) {
        let s = to_string(v);
        let back = parse(&s).unwrap_or_else(|e| panic!("reparse {s}: {e}"));
        assert_eq!(&back, v, "compact roundtrip of {s}");
        let p = to_string_pretty(v);
        assert_eq!(&parse(&p).unwrap(), v, "pretty roundtrip of {p}");
    }

    #[test]
    fn roundtrips_scalars_and_containers() {
        roundtrip(&Value::Null);
        roundtrip(&Value::from(true));
        roundtrip(&Value::from(-42i64));
        roundtrip(&Value::from(3.25));
        roundtrip(&Value::from("hello \"world\"\n"));
        roundtrip(&arr![1i64, "two", 3.0, false]);
        roundtrip(&obj! { "a" => arr![Value::Null], "b" => obj!{ "c" => 1i64 } });
    }

    #[test]
    fn float_roundtrips_stay_float() {
        let v = parse("2.0").unwrap();
        assert_eq!(v, Value::Float(2.0));
        assert_eq!(to_string(&v), "2.0");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""aébA 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aébA 😀"));
        let raw = parse("\"caf\u{00e9}\"").unwrap();
        assert_eq!(raw.as_str(), Some("café"));
    }

    #[test]
    fn rejects_malformed_strict() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"abc", "{} {}", "{'a':1}"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::from("\u{1F600}"));
        for bad in [r#""\ud800\u0041""#, r#""\ud800\ud800""#, r#""\ud800x""#] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn integer_overflow_falls_back_to_float() {
        let v = parse("99999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn lenient_extracts_json_from_prose() {
        let text = r#"Sure! Here is the extraction you asked for:

```json
{"us_state_abbrev": "AK", "weather_related": True, 'fatal': 0,}
```

Let me know if you need anything else."#;
        let v = parse_lenient(text).unwrap();
        assert_eq!(v.get("us_state_abbrev").unwrap().as_str(), Some("AK"));
        assert_eq!(v.get("weather_related").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("fatal").unwrap().as_int(), Some(0));
    }

    #[test]
    fn lenient_handles_unquoted_keys_and_single_quotes() {
        let v = parse_lenient("{state: 'WA', count: 3}").unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("WA"));
        assert_eq!(v.get("count").unwrap().as_int(), Some(3));
    }

    #[test]
    fn lenient_skips_broken_candidate_then_finds_valid() {
        let v = parse_lenient("nope { not json } but then {\"ok\": 1}").unwrap();
        assert_eq!(v.get("ok").unwrap().as_int(), Some(1));
    }

    #[test]
    fn lenient_bare_scalars() {
        assert_eq!(parse_lenient("  True ").unwrap(), Value::Bool(true));
        assert_eq!(parse_lenient("42").unwrap(), Value::Int(42));
    }

    #[test]
    fn lenient_rejects_pure_prose() {
        assert!(parse_lenient("I could not determine the answer.").is_err());
    }

    #[test]
    fn nan_serializes_as_null() {
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn pretty_print_shape() {
        let v = obj! { "a" => 1i64 };
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": 1\n}");
    }
}
