//! A minimal JSON reader/writer used by the trace and manifest code.
//!
//! The workspace has no serde, so observability artifacts are rendered
//! by hand and validated with this small recursive-descent parser. It
//! accepts exactly the JSON this crate emits (objects, arrays, strings
//! with `\uXXXX` escapes, finite numbers, booleans, null) and rejects
//! everything else with a byte-offset error message.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The artifacts this
/// workspace writes nest at most four levels; the cap keeps hostile
/// input from exhausting the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted (duplicates rejected).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Fetch `key` from an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Parse a complete JSON document (one value, surrounded only by
/// whitespace).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!(
                "expected '{}' at byte {}, found end of input",
                b as char, self.pos
            )),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object with `parse_container`, one level
    /// deeper, refusing to go past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse_container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse_container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        // Surrogate pairs are not emitted by our writer;
                        // reject them rather than mis-decode.
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid \\u escape {code:#06x}")),
                        }
                    }
                    _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                },
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control byte {b:#04x} in string"));
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(format!("invalid UTF-8 byte at {start}")),
                    };
                    let end = start + len;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| format!("truncated UTF-8 sequence at byte {start}"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| format!("invalid UTF-8 sequence at byte {start}"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or("truncated \\u escape")?;
            let digit = (b as char).to_digit(16).ok_or("invalid \\u escape digit")?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
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
            .map_err(|_| "non-UTF-8 number".to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Value::Num(n))
    }
}

/// Append `text` to `out` as a JSON string literal (with quotes),
/// escaping as needed.
pub fn push_str_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// Render `text` as a JSON string literal.
pub fn escaped(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_str_escaped(&mut out, text);
    out
}

/// Render an `f64` the way the trace writer does: finite values via
/// Rust's shortest-roundtrip `{}` (always valid JSON), non-finite as
/// `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\n\"y\""}"#)
            .expect("parse");
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(Value::as_arr)
                .and_then(|a| a[2].as_num()),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x\n\"y\""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"{"a":1,"a":2}"#).is_err());
        assert!(parse("01a").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let original = "tab\there \"quoted\" back\\slash\nnewline \u{0001} ünïcode";
        let rendered = escaped(original);
        let back = parse(&rendered).expect("parse escaped");
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn num_renders_valid_json() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(f64::NAN), "null");
        let v = parse(&num(123.456)).expect("parse num");
        assert_eq!(v.as_num(), Some(123.456));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (opener, width) in [("[", 1), ("{\"a\":", 5)] {
            let text = opener.repeat(100_000);
            let err = parse(&text).expect_err("hostile nesting rejected");
            let at = (MAX_DEPTH * width).to_string();
            assert!(err.contains("nesting deeper than"), "{err}");
            assert!(err.ends_with(&format!("at byte {at}")), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "MAX_DEPTH levels still parse");
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn parse_never_panics_on_mangled_json(
            cut in any::<usize>(),
            pos in any::<usize>(),
            byte in prop_oneof![Just(b'['), Just(b'{'), Just(b'"'), Just(b'\\'), Just(b','),
                                Just(b':'), Just(b'-'), Just(b'e'), Just(0xc3u8), any::<u8>()],
        ) {
            let doc = r#"{"a": [1, -2.5e3, {"b": null}], "c": "x\u00e9\"y", "d": true}"#;
            let mut bytes = doc.as_bytes()[..cut % (doc.len() + 1)].to_vec();
            if !bytes.is_empty() {
                let at = pos % bytes.len();
                bytes[at] = byte;
            }
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn escaped_strings_round_trip(
            codes in prop::collection::vec(any::<u32>(), 0..64),
        ) {
            // The top two bits pick a range, so ASCII (controls
            // included), the BMP and the higher planes all occur;
            // surrogates are not scalar values and drop out.
            let s: String = codes
                .iter()
                .filter_map(|&c| match c >> 30 {
                    0 => char::from_u32(c & 0x7f),
                    1 => char::from_u32(c & 0xffff),
                    _ => char::from_u32(c % 0x11_0000),
                })
                .collect();
            prop_assert_eq!(parse(&escaped(&s)), Ok(Value::Str(s.clone())));
        }
    }
}
