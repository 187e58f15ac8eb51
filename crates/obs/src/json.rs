//! Minimal JSON tree, renderer and parser.
//!
//! The workspace has no network route to crates.io, so the telemetry
//! exporters cannot lean on `serde_json`. This module implements the
//! small JSON subset the observability artifacts need — objects,
//! arrays, strings, booleans, null and numbers — with one deliberate
//! extension over a naive `f64`-only model: unsigned integers are kept
//! exact in a dedicated [`JsonValue::UInt`] variant so counter values
//! survive a render/parse round trip bit-for-bit (an `f64` mantissa
//! silently corrupts counters above 2⁵³).
//!
//! The same tree is used on both sides of the pipeline: the exporters
//! in [`crate::export`] render it, and the schema checkers in
//! `crates/xtask` parse emitted artifacts back into it.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact (counters, nanosecond
    /// totals). Renders without a decimal point.
    UInt(u64),
    /// Any other finite number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` pairs. Key order
    /// is preserved exactly as constructed or parsed; the exporters
    /// emit keys in sorted order so output is stable.
    Obj(Vec<(String, JsonValue)>),
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly up to 2⁵³).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The value as an object slice, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs.as_slice()),
            _ => None,
        }
    }

    /// Whether the value is any kind of number.
    #[must_use]
    pub fn is_number(&self) -> bool {
        matches!(self, JsonValue::UInt(_) | JsonValue::Num(_))
    }

    /// Renders the tree as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(u) => {
                out.push_str(&u.to_string());
            }
            JsonValue::Num(n) => {
                if n.is_finite() {
                    out.push_str(&n.to_string());
                } else {
                    // JSON has no representation for NaN/infinity.
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses `text` as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a character offset when `text` is
    /// not well-formed JSON, has trailing non-whitespace, or nests
    /// arrays and objects deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser {
            chars,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error with the character offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 0-indexed character offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so without a limit a body of
/// nothing but `[` overflows the stack and aborts the process. Every
/// document the workspace writes, profiles included, nests far less.
pub const MAX_DEPTH: usize = 128;

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for want in word.chars() {
            if self.bump() != Some(want) {
                return Err(self.err(&format!("invalid literal (expected `{word}`)")));
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => self.string().map(JsonValue::Str),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(JsonValue::Obj(pairs)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let first = self.hex4()?;
                        let code = if (0xD800..=0xDBFF).contains(&first) {
                            // High surrogate: consume the paired low
                            // surrogate escape.
                            if self.bump() != Some('\\') || self.bump() != Some('u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let second = self.hex4()?;
                            if !(0xDC00..=0xDFFF).contains(&second) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else {
                            first
                        };
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits in \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(JsonValue::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("invalid number"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_with_exact_integers() {
        let v = JsonValue::Obj(vec![
            ("bench".to_string(), JsonValue::Str("table4".to_string())),
            ("wall_ns".to_string(), JsonValue::UInt(u64::MAX)),
            ("ratio".to_string(), JsonValue::Num(0.5)),
            (
                "flags".to_string(),
                JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        assert_eq!(
            v.render(),
            "{\"bench\":\"table4\",\"wall_ns\":18446744073709551615,\
             \"ratio\":0.5,\"flags\":[true,null]}"
        );
    }

    #[test]
    fn round_trips_through_parse() {
        let v = JsonValue::Obj(vec![
            (
                "counters".to_string(),
                JsonValue::Obj(vec![("dp.states".to_string(), JsonValue::UInt(12345))]),
            ),
            (
                "name".to_string(),
                JsonValue::Str("a \"b\"\n\tc\\".to_string()),
            ),
            ("neg".to_string(), JsonValue::Num(-2.75)),
        ]);
        let parsed = JsonValue::parse(&v.render()).expect("round trip parses");
        assert_eq!(parsed, v);
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("dp.states"))
                .and_then(JsonValue::as_u64),
            Some(12345)
        );
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let parsed = JsonValue::parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : { } } ")
            .expect("valid document");
        assert_eq!(
            parsed
                .get("a")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(3)
        );
        assert_eq!(parsed.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogate_pairs() {
        let parsed = JsonValue::parse("\"\\u00e9\\ud83d\\ude00\"").expect("valid escapes");
        assert_eq!(parsed.as_str(), Some("\u{e9}\u{1f600}"));
    }

    #[test]
    fn integers_that_fit_u64_stay_exact() {
        let parsed = JsonValue::parse("9007199254740993").expect("valid integer");
        // 2^53 + 1 is not representable in f64; UInt keeps it exact.
        assert_eq!(parsed.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\q\"", "nan", "--1",
        ] {
            let result = JsonValue::parse(bad);
            assert!(result.is_err(), "{bad:?} must not parse: {result:?}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = JsonValue::parse("[1, }").expect_err("malformed");
        assert!(err.offset >= 4, "offset points at the bad token: {err}");
        assert!(err.to_string().contains("offset"));
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Far past the limit the parser stops at the limit: no stack
        // overflow, on arrays and objects alike.
        let err = JsonValue::parse(&"[".repeat(60_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = format!("{}1", "{\"a\":".repeat(1_000_000));
        assert_eq!(
            JsonValue::parse(&objects).expect_err("too deep").offset,
            5 * MAX_DEPTH
        );
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let rendered = JsonValue::Str("say \"hi\" \\ done".to_owned()).render();
        assert_eq!(rendered, "\"say \\\"hi\\\" \\\\ done\"");
    }

    #[test]
    fn escapes_named_control_characters() {
        let rendered = JsonValue::Str("a\nb\rc\td".to_owned()).render();
        assert_eq!(rendered, "\"a\\nb\\rc\\td\"");
    }

    #[test]
    fn escapes_other_control_characters_as_u_sequences() {
        let rendered = JsonValue::Str("\u{0}\u{1}\u{1f}".to_owned()).render();
        assert_eq!(rendered, "\"\\u0000\\u0001\\u001f\"");
    }

    #[test]
    fn non_ascii_passes_through_unescaped() {
        // é (2-byte UTF-8), 漢 (3-byte), 😀 (4-byte, outside the BMP).
        let s = "caf\u{e9} \u{6f22} \u{1f600}";
        let rendered = JsonValue::Str(s.to_owned()).render();
        assert_eq!(rendered, format!("\"{s}\""));
    }

    #[test]
    fn escaping_round_trips_through_parse() {
        let s = "quote \" back \\ nl \n tab \t nul \u{0} bell \u{7} caf\u{e9} \u{1f600}";
        let rendered = JsonValue::Str(s.to_owned()).render();
        let parsed = JsonValue::parse(&rendered).expect("rendered strings re-parse");
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn escaped_strings_round_trip_as_object_keys() {
        let doc = JsonValue::Obj(vec![(
            "key \"with\"\nweirdness\\".to_owned(),
            JsonValue::UInt(1),
        )]);
        let parsed = JsonValue::parse(&doc.render()).expect("object round-trips");
        assert_eq!(
            parsed
                .get("key \"with\"\nweirdness\\")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }
}
