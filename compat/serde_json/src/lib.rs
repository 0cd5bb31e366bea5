//! Offline stand-in for the `serde_json` crate.
//!
//! Both directions stream through the vendored serde shim, covering the
//! workspace's usage: `to_string` and `to_string_pretty` append compact
//! JSON through [`Serialize::write_json`]; `from_str` and `from_slice`
//! drive a [`serde::Reader`] over the text, from which
//! [`Deserialize::read_json`] reads the target type with no
//! intermediate tree. [`Value`] is one more target type, indexable for
//! documents whose shape is not a Rust type. Floats use Rust's shortest
//! round-trippable formatting (`{:?}`), so serialize → parse
//! round-trips are bit-exact for finite values; non-finite floats
//! render as `null` like the real crate.

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
    from_slice(s.as_bytes())
}

/// Deserialize any supported type from JSON bytes, in one pass. Bytes
/// that are not UTF-8 are an error: inside a string they fail the
/// string's check, and anywhere else no JSON token starts with them.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut r = serde::Reader::new(bytes);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
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
