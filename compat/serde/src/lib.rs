//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this vendored
//! shim provides the small slice of serde that DReAMSim actually uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums (with
//! `#[serde(skip)]`/`#[serde(default)]` on fields).
//!
//! Both directions stream, with no intermediate tree:
//! * **Serialization.** [`Serialize::write_json`] appends compact JSON
//!   straight to an output `String`, with no per-field allocation.
//! * **Deserialization.** [`Deserialize::read_json`] reads the type
//!   straight from a [`Reader`], a pull parser over the JSON bytes: a
//!   struct walks its object's keys in any order and reads each value
//!   into its field, and a string field borrows from the input until
//!   it is stored. A checkpoint then decodes in about its own size,
//!   where a parsed [`Value`] tree took about twelve times its payload.
//!
//! [`Value`] remains as one more `Deserialize` type, for documents
//! whose shape is not a Rust type (tests, benchmark reports).
//!
//! Supported shapes (everything the workspace derives):
//! * structs with named fields,
//! * newtype and tuple structs,
//! * enums with unit, newtype, tuple, and struct variants
//!   (externally tagged, like real serde's default representation).

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod value;
pub use read::{Map, Reader, Seq};
pub use value::{Number, Value};

/// Serialization/deserialization error (message-only, like
/// `serde_json::Error` for the purposes of this workspace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error carrying a human-readable message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself as JSON.
pub trait Serialize {
    /// Append this value as compact JSON (no whitespace outside
    /// strings) to `out`.
    fn write_json(&self, out: &mut String);
}

/// A type that can read itself from JSON.
pub trait Deserialize: Sized {
    /// Read one value of this type from `r`, leaving `r` just past it.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Append `items` to `out` as a JSON array.
pub fn write_seq<I>(out: &mut String, items: I)
where
    I: IntoIterator,
    I::Item: Serialize,
{
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Append `s` to `out` as a JSON string literal. Quote, backslash and
/// control characters are escaped; everything else, non-ASCII included,
/// is copied verbatim.
fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append the decimal digits of `v` to `out`.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        // `v % 10` is a single digit, so the narrowing is exact.
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.u64()?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.i64()?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

/// Floats use Rust's shortest round-trippable formatting (`{:?}`), so a
/// serialize → parse round trip is bit-exact; non-finite values render
/// as `null`, like real `serde_json`.
impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            use std::fmt::Write as _;
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null");
        }
    }
}

impl Deserialize for f64 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        // Real serde_json writes non-finite floats as `null`.
        if r.null()? {
            return Ok(f64::NAN);
        }
        r.number().map(|n| n.as_f64())
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl Deserialize for f32 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        f64::read_json(r).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Deserialize for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        let mut seq = r.seq()?;
        while seq.next(r)? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Vec::read_json(r).map(Self::from)
    }
}

/// Tuples serialize as fixed-length arrays, like real serde.
macro_rules! impl_tuple {
    ($first:ident . $fi:tt $(, $name:ident . $idx:tt)*) => {
        impl<$first: Serialize $(, $name: Serialize)*> Serialize for ($first, $($name,)*) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.$fi.write_json(out);
                $(
                    out.push(',');
                    self.$idx.write_json(out);
                )*
                out.push(']');
            }
        }
    };
}
impl_tuple!(A.0, B.1);
impl_tuple!(A.0, B.1, C.2);

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(Number::U(v)) => write_u64(out, *v),
            Value::Number(Number::I(v)) => write_i64(out, *v),
            Value::Number(Number::F(v)) => v.write_json(out),
            Value::String(s) => write_str(out, s),
            Value::Array(items) => write_seq(out, items),
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}
