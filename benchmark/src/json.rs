//! JSON helpers over the vendored `serde_json` value tree.

use serde_json::{Number, Value};
use std::fmt::Write as _;

/// An object from ordered fields.
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A float, written with every digit (`{:?}` round-trips exactly).
#[must_use]
pub fn num(v: f64) -> Value {
    Value::Number(Number::F(v))
}

/// An unsigned integer.
#[must_use]
pub fn int(v: u64) -> Value {
    Value::Number(Number::U(v))
}

/// A string.
#[must_use]
pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Pretty-print with two-space indents, keeping arrays of scalars on one
/// line so span lists stay readable.
#[must_use]
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v, 0);
    out.push('\n');
    out
}

fn compact(v: &Value) -> String {
    // INVARIANT: the vendored serializer cannot fail on a value tree.
    serde_json::to_string(v).expect("a value tree serializes")
}

fn write(out: &mut String, v: &Value, level: usize) {
    let pad = |out: &mut String, level: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    };
    match v {
        Value::Array(items)
            if items
                .iter()
                .any(|i| matches!(i, Value::Array(_) | Value::Object(_))) =>
        {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, level + 1);
                write(out, item, level + 1);
            }
            pad(out, level);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, level + 1);
                let _ = write!(out, "{}: ", compact(&Value::String(k.clone())));
                write(out, item, level + 1);
            }
            pad(out, level);
            out.push('}');
        }
        _ => out.push_str(&compact(v)),
    }
}
