//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this vendored
//! shim provides the small slice of serde that DReAMSim actually uses:
//! `#[derive(Serialize, Deserialize)]` on plain structs and enums (with
//! `#[serde(skip)]`/`#[serde(default)]` on fields).
//!
//! The two directions are deliberately asymmetric:
//! * **Serialization streams.** [`Serialize::write_json`] appends compact
//!   JSON straight to an output `String` — no intermediate tree, no
//!   per-field allocation — because checkpoints serialize megabytes on
//!   the hot path.
//! * **Deserialization goes through a tree.** The companion
//!   `serde_json` shim parses text into an owned [`Value`], and
//!   [`Deserialize::from_value`] rebuilds the type from it. Loading is
//!   cold (once per resume), and the tree keeps the generated code and
//!   the hand-written legacy-format fallbacks simple.
//!
//! Supported shapes (everything the workspace derives):
//! * structs with named fields,
//! * newtype and tuple structs,
//! * enums with unit, newtype, tuple, and struct variants
//!   (externally tagged, like real serde's default representation).

pub use serde_derive::{Deserialize, Serialize};

mod value;
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

/// A type that can rebuild itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from the intermediate value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Field lookup helper used by the generated `Deserialize` impls.
#[doc(hidden)]
pub fn __find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_u64().ok_or_else(|| {
                    Error::custom(format!(
                        "expected unsigned integer, got {}",
                        value.kind()
                    ))
                })?;
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value.as_i64().ok_or_else(|| {
                    Error::custom(format!("expected integer, got {}", value.kind()))
                })?;
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(n) => Ok(n.as_f64()),
            // Real serde_json writes non-finite floats as `null`.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::custom(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        f64::from(*self).write_json(out);
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        f64::from_value(value).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::custom(format!("expected bool, got {}", value.kind())))
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom(format!("expected string, got {}", value.kind())))
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
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

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}
