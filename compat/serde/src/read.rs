//! The pull parser that [`Deserialize`](crate::Deserialize) impls read
//! from: one forward pass over JSON bytes, no intermediate tree.

use crate::{Error, Number};
use std::borrow::Cow;

/// Arrays and objects nest at most this deep (real `serde_json`'s
/// default limit), so a hostile document is an error rather than a
/// stack overflow in the recursive reads.
const MAX_DEPTH: usize = 128;

/// A JSON pull parser over a byte slice.
///
/// Every read skips leading whitespace, then consumes exactly one value
/// (or one structural token) and advances past it. Scalars come back
/// typed, strings as [`Cow`] (borrowed from the input unless they hold
/// escapes), and arrays and objects through the [`Seq`] and [`Map`]
/// cursors, nested at most 128 deep. Bytes outside strings must be
/// ASCII JSON; inside strings they must be UTF-8, so a slice the reader
/// accepts is valid UTF-8.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects opened and not yet closed.
    depth: usize,
}

/// Cursor over the elements of an array opened by [`Reader::seq`].
#[derive(Debug)]
pub struct Seq {
    first: bool,
}

/// Cursor over the members of an object opened by [`Reader::map`].
#[derive(Debug)]
pub struct Map {
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Require that nothing but whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(Error::custom(format!(
                "trailing characters at offset {}",
                self.pos
            )))
        }
    }

    /// The kind of the next value, by its first byte: `"null"`,
    /// `"bool"`, `"number"`, `"string"`, `"array"` or `"object"`;
    /// `None` at the end of the input or at a byte no value starts
    /// with. Consumes only whitespace.
    pub fn kind(&mut self) -> Option<&'static str> {
        self.skip_ws();
        match self.peek()? {
            b'n' => Some("null"),
            b't' | b'f' => Some("bool"),
            b'"' => Some("string"),
            b'[' => Some("array"),
            b'{' => Some("object"),
            b'-' | b'0'..=b'9' => Some("number"),
            _ => None,
        }
    }

    /// Consume a `null` if one comes next; `false` leaves any other
    /// value unread.
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.kind() != Some("null") {
            return Ok(false);
        }
        self.keyword("null")?;
        Ok(true)
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.kind() {
            Some("bool") if self.peek() == Some(b't') => self.keyword("true").map(|()| true),
            Some("bool") => self.keyword("false").map(|()| false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// Read a number, kept as written: [`Number::U`] for a
    /// non-negative integer, [`Number::I`] for one with a minus sign
    /// (`-0` included), [`Number::F`] for anything with a fraction or
    /// an exponent. The text must follow RFC 8259's grammar: no leading
    /// zero (`01`), and at least one digit after a decimal point (`1.`,
    /// `1.e5`) or an exponent mark.
    pub fn number(&mut self) -> Result<Number, Error> {
        if self.kind() != Some("number") {
            return Err(self.mismatch("number"));
        }
        let start = self.pos;
        let well_formed = self.number_text();
        // Extend over the rest of a malformed run, for the message.
        let mut end = self.pos;
        while matches!(
            self.bytes.get(end),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            end += 1;
        }
        // Every byte of the run is ASCII.
        let text = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| Error::custom("invalid number"))?;
        let invalid = || Error::custom(format!("invalid number `{text}`"));
        let Some(float) = well_formed.filter(|_| end == self.pos) else {
            return Err(invalid());
        };
        Ok(if float {
            Number::F(text.parse().map_err(|_| invalid())?)
        } else if text.starts_with('-') {
            Number::I(text.parse().map_err(|_| invalid())?)
        } else {
            Number::U(text.parse().map_err(|_| invalid())?)
        })
    }

    /// Consume one number by RFC 8259's grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: whether
    /// it has a fraction or an exponent, or `None` if the grammar fails.
    fn number_text(&mut self) -> Option<bool> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return None,
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return None;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return None;
            }
        }
        Some(float)
    }

    /// Consume a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Read a non-negative integer (`-0` included).
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.integer("unsigned integer", Number::as_u64)
    }

    /// Read an integer that fits an `i64`.
    pub fn i64(&mut self) -> Result<i64, Error> {
        self.integer("integer", Number::as_i64)
    }

    fn integer<T>(&mut self, expected: &str, cast: fn(&Number) -> Option<T>) -> Result<T, Error> {
        if self.kind() != Some("number") {
            return Err(self.mismatch(expected));
        }
        cast(&self.number()?)
            .ok_or_else(|| Error::custom(format!("expected {expected}, got number")))
    }

    /// Read a string, borrowed from the input when it holds no escape.
    /// An escaped UTF-16 surrogate pair decodes to its one character;
    /// a lone surrogate decodes to U+FFFD.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.kind() != Some("string") {
            return Err(self.mismatch("string"));
        }
        self.pos += 1;
        let first = self.run()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::from(first);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
            out.push_str(self.run()?);
        }
    }

    /// Open an array: read its `[` and return the cursor over its
    /// elements.
    pub fn seq(&mut self) -> Result<Seq, Error> {
        self.open("array")?;
        Ok(Seq { first: true })
    }

    /// Open an object: read its `{` and return the cursor over its
    /// members.
    pub fn map(&mut self) -> Result<Map, Error> {
        self.open("object")?;
        Ok(Map { first: true })
    }

    /// Read the opening bracket of an `expected` container (`"array"`
    /// or `"object"`), at most [`MAX_DEPTH`] deep.
    fn open(&mut self, expected: &str) -> Result<(), Error> {
        if self.kind() != Some(expected) {
            return Err(self.mismatch(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nested deeper than {MAX_DEPTH} at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Read the closing bracket of the innermost open container.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Read and discard one value of any kind. It is checked exactly as
    /// if it were read: syntax, escapes, UTF-8 and number ranges.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.kind() {
            Some("null") => self.null().map(drop),
            Some("bool") => self.bool().map(drop),
            Some("number") => self.number().map(drop),
            Some("string") => self.str().map(drop),
            Some("array") => {
                let mut seq = self.seq()?;
                while seq.next(self)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some("object") => {
                let mut map = self.map()?;
                while map.next_key(self)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => Err(self.unexpected()),
        }
    }

    /// The error for a value that is not the `expected` kind.
    fn mismatch(&mut self, expected: &str) -> Error {
        match self.kind() {
            Some(kind) => Error::custom(format!("expected {expected}, got {kind}")),
            None => self.unexpected(),
        }
    }

    pub(crate) fn unexpected(&self) -> Error {
        Error::custom(format!("unexpected character at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                char::from(b),
                self.pos
            )))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    /// The unescaped bytes from here to the next `"` or `\`, checked
    /// as UTF-8. A multi-byte character never spans the cut, because
    /// both delimiters are ASCII.
    fn run(&mut self) -> Result<&'a str, Error> {
        let (bytes, start) = (self.bytes, self.pos);
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid UTF-8 in string"))
    }

    /// Decode the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 1;
        out.push(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'u' => {
                let code = self.hex4()?;
                let pair = if (0xD800..0xDC00).contains(&code) {
                    self.low_surrogate()
                } else {
                    None
                };
                let code = pair.map_or(code, |low| {
                    0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                });
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => {
                return Err(Error::custom(format!(
                    "unknown escape `\\{}`",
                    char::from(other)
                )))
            }
        });
        Ok(())
    }

    /// The four hex digits of a `\u` escape (digits only: no sign).
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| Error::custom("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consume a `\uDC00`–`\uDFFF` escape if one comes next; anything
    /// else is left for the string loop.
    fn low_surrogate(&mut self) -> Option<u32> {
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return None;
        }
        let start = self.pos;
        self.pos += 2;
        match self.hex4() {
            Ok(low) if (0xDC00..0xE000).contains(&low) => Some(low),
            _ => {
                self.pos = start;
                None
            }
        }
    }
}

impl Seq {
    /// Step to the next element: `true` if one follows, which the
    /// caller must then read; `false` once the closing `]` is read.
    pub fn next(&mut self, r: &mut Reader<'_>) -> Result<bool, Error> {
        r.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match r.peek() {
            Some(b']') => {
                r.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                r.pos += 1;
                Ok(true)
            }
            _ => Err(Error::custom(format!(
                "expected `,` or `]` at offset {}",
                r.pos
            ))),
        }
    }
}

impl Map {
    /// Step to the next member: its key, with the `:` after it read, or
    /// `None` once the closing `}` is read. The caller must read the
    /// member's value before stepping again.
    pub fn next_key<'a>(&mut self, r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, Error> {
        r.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match r.peek() {
            Some(b'}') => {
                r.close();
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => r.pos += 1,
            _ => {
                return Err(Error::custom(format!(
                    "expected `,` or `}}` at offset {}",
                    r.pos
                )))
            }
        }
        r.skip_ws();
        if r.peek() != Some(b'"') {
            return Err(Error::custom(format!("expected `\"` at offset {}", r.pos)));
        }
        let key = r.str()?;
        r.skip_ws();
        r.expect(b':')?;
        Ok(Some(key))
    }
}
