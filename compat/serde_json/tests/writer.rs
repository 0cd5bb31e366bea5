//! Edge cases of the streaming writer. Each case pins the compact text,
//! and checks that both the compact and the pretty rendering parse back
//! to the original value.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, Number, Value};
use std::fmt::Debug;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(i64, String),
    Struct {
        a: u8,
        #[serde(skip)]
        hidden: u32,
        b: Option<bool>,
    },
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct AllSkipped {
    #[serde(skip)]
    a: u32,
    #[serde(skip)]
    b: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(i8, Vec<u16>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Record {
    name: String,
    shapes: Vec<Shape>,
    empty: Vec<u32>,
    skipped: AllSkipped,
    missing: Option<u64>,
}

/// `value` renders as `compact`, and both renderings parse back to it.
fn check<T>(value: &T, compact: &str)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    assert_eq!(to_string(value).unwrap(), compact);
    let pretty = to_string_pretty(value).unwrap();
    for text in [compact, pretty.as_str()] {
        let back: T = from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
    }
    // The pretty text is the same document as the compact one.
    let a: Value = from_str(compact).unwrap();
    let b: Value = from_str(&pretty).unwrap();
    assert_eq!(a, b);
}

#[test]
fn string_escapes() {
    check(
        &"quote\" back\\slash".to_string(),
        r#""quote\" back\\slash""#,
    );
    check(&"nl\ncr\rtab\t".to_string(), r#""nl\ncr\rtab\t""#);
    check(
        &"\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}".to_string(),
        r#""\u0000\u0001\u0008\u000b\u000c\u001f""#,
    );
    // DEL and everything past ASCII are copied verbatim.
    check(&"\u{7f} é 漢 🦀".to_string(), "\"\u{7f} é 漢 🦀\"");
    check(&String::new(), r#""""#);
    // Every control character round-trips.
    let all: String = (0u8..0x20).map(char::from).collect();
    let back: String = from_str(&to_string(&all).unwrap()).unwrap();
    assert_eq!(back, all);
}

#[test]
fn structural_characters_inside_strings_do_not_indent() {
    let v = vec!["{[,:]}\"".to_string(), "\\".to_string()];
    check(&v, r#"["{[,:]}\"","\\"]"#);
    assert_eq!(
        to_string_pretty(&v).unwrap(),
        "[\n  \"{[,:]}\\\"\",\n  \"\\\\\"\n]"
    );
}

#[test]
fn integer_extremes() {
    check(&i64::MIN, "-9223372036854775808");
    check(&i64::MAX, "9223372036854775807");
    check(&u64::MAX, "18446744073709551615");
    check(&0u64, "0");
    check(&-1i32, "-1");
    check(&i8::MIN, "-128");
    check(&u8::MAX, "255");
    check(&usize::MAX, &usize::MAX.to_string());
}

#[test]
fn floats() {
    check(&0.1f64, "0.1");
    check(&1e-7f64, "1e-7");
    check(&1e21f64, "1e21");
    check(&1.0f64, "1.0");
    // -0.0 keeps its sign bit through a round trip.
    assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
    let back: f64 = from_str("-0.0").unwrap();
    assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    // Non-finite values render as `null`, which reads back as NaN.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(to_string(&v).unwrap(), "null");
        assert_eq!(to_string_pretty(&v).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }
    assert_eq!(to_string(&f32::INFINITY).unwrap(), "null");
    check(&0.5f32, "0.5");
}

#[test]
fn empties() {
    check(&Vec::<u32>::new(), "[]");
    assert_eq!(to_string_pretty(&Vec::<u32>::new()).unwrap(), "[]");
    check(&None::<u32>, "null");
    check(&AllSkipped::default(), "{}");
    assert_eq!(to_string_pretty(&AllSkipped::default()).unwrap(), "{}");
    check(&vec![Vec::<u8>::new()], "[[]]");
    assert_eq!(
        to_string_pretty(&vec![Vec::<u8>::new()]).unwrap(),
        "[\n  []\n]"
    );
}

#[test]
fn enum_variants() {
    check(&Shape::Unit, r#""Unit""#);
    check(&Shape::Newtype(7), r#"{"Newtype":7}"#);
    check(&Shape::Tuple(-1, "x".into()), r#"{"Tuple":[-1,"x"]}"#);
    check(
        &Shape::Struct {
            a: 1,
            hidden: 0,
            b: None,
        },
        r#"{"Struct":{"a":1,"b":null}}"#,
    );
    // A skipped field is neither written nor read back.
    let written = Shape::Struct {
        a: 2,
        hidden: 9,
        b: Some(true),
    };
    assert_eq!(
        to_string(&written).unwrap(),
        r#"{"Struct":{"a":2,"b":true}}"#
    );
}

#[test]
fn struct_shapes() {
    check(&Newtype(5), "5");
    check(&Pair(-3, vec![1, 2]), "[-3,[1,2]]");
    check(&Unit, "null");
}

#[test]
fn nested_record_pretty_layout() {
    let r = Record {
        name: "r".into(),
        shapes: vec![Shape::Unit, Shape::Tuple(4, String::new())],
        empty: Vec::new(),
        skipped: AllSkipped::default(),
        missing: None,
    };
    check(
        &r,
        r#"{"name":"r","shapes":["Unit",{"Tuple":[4,""]}],"empty":[],"skipped":{},"missing":null}"#,
    );
    let expected = r#"{
  "name": "r",
  "shapes": [
    "Unit",
    {
      "Tuple": [
        4,
        ""
      ]
    }
  ],
  "empty": [],
  "skipped": {},
  "missing": null
}"#;
    assert_eq!(to_string_pretty(&r).unwrap(), expected);
}

#[test]
fn to_value_parses_the_streamed_text() {
    let v = serde_json::to_value(&Shape::Tuple(-2, "y".into())).unwrap();
    let expected = Value::Object(vec![(
        "Tuple".to_string(),
        Value::Array(vec![
            Value::Number(Number::I(-2)),
            Value::String("y".to_string()),
        ]),
    )]);
    assert_eq!(v, expected);
    // A value tree writes itself back to the same text.
    assert_eq!(to_string(&v).unwrap(), r#"{"Tuple":[-2,"y"]}"#);
}
