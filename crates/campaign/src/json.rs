//! A from-scratch JSON codec — parser and serializer, zero dependencies.
//!
//! The workspace is hermetic (no registry access), so campaign specs and
//! results get their own codec. It is deliberately strict where strictness
//! buys reproducibility:
//!
//! * **Duplicate object keys are errors**, not last-wins — a spec that
//!   says `"cycles"` twice is ambiguous and must not hash two ways.
//! * **Nesting is depth-limited** (128), so adversarial input like
//!   `[[[[…` fails with an error instead of a stack overflow.
//! * **Numbers are kept exact**: integer literals that fit `i128` parse
//!   as [`Json::Int`] (covering the full `u64` seed space), everything
//!   else as finite `f64`. `NaN`/`Infinity` are rejected in both
//!   directions.
//! * Parsing **never panics** on malformed input — every failure mode is
//!   a [`JsonError`] with a byte offset.
//!
//! Serialization is deterministic: objects keep insertion order, floats
//! print with Rust's shortest round-trip formatting. That makes the
//! serialized form usable as a content-address preimage (see
//! [`crate::hash`]).

use std::fmt;

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (fits `i128`; covers all of `u64` and `i64`).
    Int(i128),
    /// A non-integer (or oversized) finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order. Keys are unique by construction
    /// (the parser rejects duplicates).
    Obj(Vec<(String, Json)>),
}

/// A parse or serialize failure, with the byte offset where it happened
/// (offset 0 for serializer-side failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(at: usize, msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { at, msg: msg.into() })
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen; may round beyond 2⁵³).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    ///
    /// # Errors
    ///
    /// Fails on non-finite floats — there is no JSON spelling for them.
    pub fn to_string_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        write_value(self, None, 0, &mut out)?;
        Ok(out)
    }

    /// Serializes with two-space indentation (for on-disk specs humans
    /// read and edit).
    ///
    /// # Errors
    ///
    /// Fails on non-finite floats.
    pub fn to_string_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        write_value(self, Some(0), 0, &mut out)?;
        out.push('\n');
        Ok(out)
    }
}

fn write_value(
    v: &Json,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), JsonError> {
    if depth > MAX_DEPTH {
        return err(0, format!("serialization exceeds max depth {MAX_DEPTH}"));
    }
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(n) => {
            if !n.is_finite() {
                return err(0, format!("cannot serialize non-finite number {n}"));
            }
            // `{:?}` is Rust's shortest round-trip float formatting; it
            // always includes a '.' or exponent, so the value re-parses
            // as Num, never Int.
            out.push_str(&format!("{n:?}"));
        }
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            if !items.is_empty() {
                newline(indent, depth, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, depth + 1, out)?;
            }
            if !fields.is_empty() {
                newline(indent, depth, out);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline(indent: Option<usize>, depth: usize, out: &mut String) {
    if indent.is_some() {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document. Trailing content (other than
/// whitespace) is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on any malformed input;
/// never panics.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(p.pos, "trailing characters after JSON value");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(self.pos, format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return err(self.pos, format!("nesting exceeds max depth {MAX_DEPTH}"));
        }
        match self.peek() {
            None => err(self.pos, "unexpected end of input"),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => err(self.pos, format!("unexpected character {:?}", c as char)),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(self.pos, format!("invalid literal (expected `{word}`)"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(self.pos, "expected ',' or ']' in array"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            if self.peek() != Some(b'"') {
                return err(self.pos, "expected string key in object");
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return err(key_at, format!("duplicate object key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(self.pos, "expected ',' or '}' in object"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let at = self.pos;
            match self.peek() {
                None => return err(at, "unterminated string"),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape(at)?;
                            out.push(c);
                            continue;
                        }
                        Some(c) => {
                            return err(at, format!("invalid escape \\{}", c as char));
                        }
                        None => return err(at, "unterminated escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return err(at, "unescaped control character in string");
                }
                Some(_) => {
                    // Advance one whole UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError { at, msg: "invalid UTF-8".into() })?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the `u`),
    /// pairing surrogates. Returns the decoded scalar; the cursor ends
    /// after the final hex digit.
    fn unicode_escape(&mut self, at: usize) -> Result<char, JsonError> {
        let hi = self.hex4(at)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a low surrogate escape right after.
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return err(at, "unpaired high surrogate");
            }
            self.pos += 2;
            let lo = self.hex4(at)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return err(at, "invalid low surrogate");
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or(JsonError { at, msg: "invalid surrogate pair".into() })
        } else if (0xDC00..0xE000).contains(&hi) {
            err(at, "unpaired low surrogate")
        } else {
            char::from_u32(hi).ok_or(JsonError { at, msg: "invalid \\u escape".into() })
        }
    }

    fn hex4(&mut self, at: usize) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return err(at, "invalid \\u escape (need 4 hex digits)"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one leading zero, or a nonzero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return err(start, "invalid number"),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return err(start, "invalid number (digits required after '.')");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return err(start, "invalid number (digits required in exponent)");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII by construction");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
            // Fall through: magnitudes beyond i128 become floats if finite.
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => err(start, format!("number out of range: {text}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Int(u64::MAX as i128));
        assert_eq!(parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Json::Null);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\n\u{1}".into())),
            ("n", Json::Num(0.45)),
            ("i", Json::Int(-3)),
            ("l", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("e", Json::Obj(Vec::new())),
        ]);
        for text in [v.to_string_compact().unwrap(), v.to_string_pretty().unwrap()] {
            assert_eq!(parse(&text).unwrap(), v, "through {text}");
        }
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            "",
            "nul",
            "tru",
            "[1,",
            "[1 2]",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{'a':1}",
            "1.",
            "1e",
            "--1",
            "+1",
            "01",
            "\"",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "[1]]",
            "{}{}",
            "nan",
            "NaN",
            "Infinity",
            "1e999",
            "\u{7}",
            "\"a\u{0}b\"",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
        // Same key at different nesting levels is fine.
        assert!(parse(r#"{"a":{"a":1}}"#).is_ok());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("depth"), "{e}");
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
    }

    #[test]
    fn nesting_just_under_the_limit_parses() {
        let depth = MAX_DEPTH - 1;
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for bits in
            [0x3FE0000000000000u64, 0x3FDCCCCCCCCCCCCD, 0x0000000000000001, 0x8000000000000000]
        {
            let f = f64::from_bits(bits);
            let text = Json::Num(f).to_string_compact().unwrap();
            match parse(&text).unwrap() {
                Json::Num(g) => assert_eq!(g.to_bits(), bits, "through {text}"),
                other => panic!("expected Num back, got {other:?} from {text}"),
            }
        }
    }

    #[test]
    fn non_finite_floats_refuse_to_serialize() {
        assert!(Json::Num(f64::NAN).to_string_compact().is_err());
        assert!(Json::Num(f64::INFINITY).to_string_pretty().is_err());
    }
}
