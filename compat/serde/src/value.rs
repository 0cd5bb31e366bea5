//! The owned JSON-like value tree shared by the `serde` and
//! `serde_json` shims: a `Deserialize` type for documents whose shape is
//! not a Rust type.

use crate::{Deserialize, Error, Reader};

/// A JSON number, kept in its original width so integer round-trips are
/// bit-exact (floats use Rust's shortest round-trippable formatting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Number {
    /// This number as an `f64` (lossy for very large integers).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    /// This number as `u64`, if it is a non-negative integer (`-0`
    /// included).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(_) => None,
        }
    }

    /// This number as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(_) => None,
        }
    }
}

/// An owned JSON document tree. Object fields keep insertion order so
/// serialized output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// `true` if this is `Value::Null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `f64`, if it is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.kind() {
            Some("null") => {
                r.null()?;
                Value::Null
            }
            Some("bool") => Value::Bool(r.bool()?),
            Some("number") => Value::Number(r.number()?),
            Some("string") => Value::String(r.str()?.into_owned()),
            Some("array") => Value::Array(Deserialize::read_json(r)?),
            Some("object") => {
                let mut fields = Vec::new();
                let mut map = r.map()?;
                while let Some(key) = map.next_key(r)? {
                    fields.push((key.into_owned(), Value::read_json(r)?));
                }
                Value::Object(fields)
            }
            _ => return Err(r.unexpected()),
        })
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                if *other >= 0 {
                    self.as_u64() == Some(*other as u64)
                } else {
                    self.as_i64() == Some(*other as i64)
                }
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
eq_int!(i8, i16, i32, i64, isize);

macro_rules! eq_uint {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_u64() == Some(*other as u64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}
eq_uint!(u8, u16, u32, u64, usize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
