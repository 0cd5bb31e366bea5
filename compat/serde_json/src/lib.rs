//! Offline stand-in for the `serde_json` crate.
//!
//! Writes JSON text by streaming the vendored serde shim's
//! [`Serialize::write_json`] and parses JSON text back into its
//! [`Value`] tree, covering the workspace's usage: `to_string`,
//! `to_string_pretty`, `from_str`, and indexable [`Value`] documents.
//! Floats use Rust's shortest round-trippable formatting (`{:?}`), so
//! serialize → parse round-trips are bit-exact for finite values;
//! non-finite floats render as `null` like the real crate.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Number, Value};

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Convert any serializable type to a [`Value`] tree by parsing its
/// serialized text. A convenience for cold paths and tests: it costs a
/// full serialize plus a parse. Non-finite floats come back as
/// [`Value::Null`], as they would from the text.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    from_str(&to_string(value)?)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize to a pretty-printed JSON string (two-space indent, one
/// member per line, empty arrays and objects kept as `[]` / `{}`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(indent(&to_string(value)?))
}

/// Deserialize any supported type from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

/// Re-indent compact JSON, as [`Serialize::write_json`] writes it (no
/// whitespace outside strings), in one pass over the text: a newline
/// and two spaces per level after every `[`, `{` and `,`, a newline
/// before every `]` and `}`, and a space after every `:`. Bytes inside
/// string literals are copied untouched.
fn indent(compact: &str) -> String {
    fn newline(out: &mut String, level: usize) {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut level = 0usize;
    // Start of the verbatim run not yet copied. Structural bytes are
    // ASCII, so every cut lands on a char boundary.
    let mut run = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        i += 1;
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                let close = if b == b'[' { b']' } else { b'}' };
                if bytes.get(i) == Some(&close) {
                    // Empty containers stay on one line.
                    i += 1;
                    continue;
                }
                out.push_str(&compact[run..i]);
                run = i;
                level += 1;
                newline(&mut out, level);
            }
            b']' | b'}' => {
                out.push_str(&compact[run..i - 1]);
                run = i - 1;
                level = level.saturating_sub(1);
                newline(&mut out, level);
            }
            b',' => {
                out.push_str(&compact[run..i]);
                run = i;
                newline(&mut out, level);
            }
            b':' => {
                out.push_str(&compact[run..i]);
                run = i;
                out.push(' ');
            }
            _ => {}
        }
    }
    out.push_str(&compact[run..]);
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        let bad = |pos: usize| Error::custom(format!("unexpected character at offset {pos}"));
        match self.peek() {
            Some(b'n') => self
                .eat_keyword("null")
                .then_some(Value::Null)
                .ok_or_else(|| bad(self.pos)),
            Some(b't') => self
                .eat_keyword("true")
                .then_some(Value::Bool(true))
                .ok_or_else(|| bad(self.pos)),
            Some(b'f') => self
                .eat_keyword("false")
                .then_some(Value::Bool(false))
                .ok_or_else(|| bad(self.pos)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(bad(self.pos)),
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        let number = if float {
            Number::F(
                text.parse::<f64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        } else if text.starts_with('-') {
            Number::I(
                text.parse::<i64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        } else {
            Number::U(
                text.parse::<u64>()
                    .map_err(|_| Error::custom(format!("invalid number `{text}`")))?,
            )
        };
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Value::Object(vec![
            ("a".to_string(), Value::Number(Number::U(7))),
            ("b".to_string(), Value::Number(Number::F(0.1))),
            ("c".to_string(), Value::String("x\"y\\z\n".to_string())),
            (
                "d".to_string(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("e".to_string(), Value::Number(Number::I(-3))),
        ]);
        for render in [to_string(&doc).unwrap(), to_string_pretty(&doc).unwrap()] {
            let back: Value = from_str(&render).expect("parses");
            assert_eq!(back, doc, "render: {render}");
        }
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123_456.789, f64::MIN_POSITIVE] {
            let s = to_string(&v).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn indexing_and_comparisons() {
        let v: Value = from_str(r#"{"m":{"n":50},"arr":[1,"two"]}"#).unwrap();
        assert_eq!(v["m"]["n"], 50);
        assert_eq!(v["arr"][1], "two");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{invalid").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
