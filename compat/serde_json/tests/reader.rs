//! The streaming reader: what the derived and primitive `Deserialize`
//! impls accept and reject, read straight from the text.

use serde::Deserialize;
use serde_json::{from_slice, from_str, Value};
use std::borrow::Cow;

#[derive(Debug, PartialEq, Deserialize)]
struct Fields {
    a: u8,
    #[serde(default)]
    d: Vec<u32>,
    #[serde(skip)]
    s: u32,
    o: Option<u64>,
}

#[derive(Debug, PartialEq, Deserialize)]
enum Tag {
    Unit,
    One(u8),
    Two(u8, bool),
    Named { x: i32 },
}

#[derive(Debug, PartialEq, Deserialize)]
struct Pair(u8, String);

fn err<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
    from_str::<T>(text).unwrap_err().to_string()
}

#[test]
fn named_fields_read_in_any_order_and_the_first_key_wins() {
    let want = Fields {
        a: 1,
        d: vec![2],
        s: 0,
        o: None,
    };
    for text in [
        r#"{"a":1,"d":[2],"o":null}"#,
        r#"{"o":null,"d":[2],"a":1}"#,
        " {\n \"a\" : 1 ,\t\"x\" : {\"y\":[true,\"\\u00e9\",-2.5e3]} , \"d\":[2], \"o\":null }\r\n",
        r#"{"a":1,"d":[2],"o":null,"a":"a repeat is only syntax-checked"}"#,
        r#"{"a":1,"d":[2],"o":null,"s":7}"#,
    ] {
        assert_eq!(from_str::<Fields>(text).unwrap(), want, "{text}");
    }
    // A missing `default` or `skip` field defaults; no other does, an
    // `Option` included.
    assert_eq!(
        from_str::<Fields>(r#"{"a":1,"o":5}"#).unwrap(),
        Fields {
            a: 1,
            d: Vec::new(),
            s: 0,
            o: Some(5)
        }
    );
    assert_eq!(
        err::<Fields>(r#"{"a":1,"d":[]}"#),
        "Fields: missing field o"
    );
    assert_eq!(err::<Fields>(r#"{"o":1}"#), "Fields: missing field a");
    assert_eq!(err::<Fields>("[1]"), "Fields: expected object");
    // Repeats and unknown fields are still syntax-checked.
    for bad in [
        r#"{"a":1,"o":null,"a":[1,]}"#,
        r#"{"a":1,"o":null,"z":tru}"#,
        r#"{"a":1,"o":null,"z":"\q"}"#,
        r#"{"a":1,"o":null,"z":99999999999999999999}"#,
        r#"{"a":1,"o":null,"z":{"k" 1}}"#,
        r#"{"a":1,"o":null,}"#,
        r#"{"a":1 "o":null}"#,
    ] {
        assert!(from_str::<Fields>(bad).is_err(), "{bad}");
    }
}

#[test]
fn enums_are_externally_tagged() {
    assert_eq!(from_str::<Tag>(r#""Unit""#).unwrap(), Tag::Unit);
    assert_eq!(from_str::<Tag>(r#"{"One":3}"#).unwrap(), Tag::One(3));
    assert_eq!(
        from_str::<Tag>(r#"{ "Two" : [3, true] }"#).unwrap(),
        Tag::Two(3, true)
    );
    assert_eq!(
        from_str::<Tag>(r#"{"Named":{"x":-4}}"#).unwrap(),
        Tag::Named { x: -4 }
    );
    assert_eq!(err::<Tag>(r#""Other""#), "Tag: unknown variant Other");
    assert_eq!(err::<Tag>(r#"{"Unit":null}"#), "Tag: unknown variant Unit");
    assert_eq!(
        err::<Tag>(r#"{"Two":[3]}"#),
        "Tag::Two: expected 2 elements"
    );
    assert_eq!(err::<Tag>("{}"), "Tag: expected variant");
    for bad in [
        r#""One""#,
        r#"{"One":3,"Two":[1,true]}"#,
        r#"{"Two":[3,true,1]}"#,
        r#"{"Named":{}}"#,
        "3",
        "[]",
    ] {
        assert!(from_str::<Tag>(bad).is_err(), "{bad}");
    }
    assert_eq!(from_str::<Pair>(r#"[7,"x"]"#).unwrap(), Pair(7, "x".into()));
    assert_eq!(err::<Pair>("[7]"), "Pair: expected 2 elements");
    assert_eq!(err::<Pair>(r#"{"0":7}"#), "Pair: expected array");
}

#[test]
fn numbers_keep_their_grammar() {
    assert_eq!(from_str::<u64>("-0").unwrap(), 0);
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
    assert_eq!(from_str::<f64>("-2.5E-1").unwrap(), -0.25);
    assert!(from_str::<f64>("null").unwrap().is_nan());
    assert_eq!(
        err::<u64>("18446744073709551616"),
        "invalid number `18446744073709551616`"
    );
    assert_eq!(err::<u64>("1.0"), "expected unsigned integer, got number");
    assert_eq!(err::<u64>("-1"), "expected unsigned integer, got number");
    assert_eq!(
        err::<u64>(r#""5""#),
        "expected unsigned integer, got string"
    );
    assert_eq!(err::<u8>("256"), "integer 256 out of range for u8");
    assert_eq!(err::<i64>("1e3"), "expected integer, got number");
    assert_eq!(err::<u64>("+1"), "unexpected character at offset 0");
    assert_eq!(err::<u64>("12 34"), "trailing characters at offset 3");
    for bad in ["-", "1.2.3", "--1", "1-"] {
        assert!(from_str::<Value>(bad).is_err(), "{bad}");
    }
    // RFC 8259: no leading zero, and digits after a decimal point or an
    // exponent mark.
    for bad in ["007", "01", "-01", "1.", "1.e5", "-.5", "1e", "1e+"] {
        assert_eq!(err::<Value>(bad), format!("invalid number `{bad}`"));
    }
    assert_eq!(from_str::<f64>("0.5e+1").unwrap(), 5.0);
    assert_eq!(from_str::<u64>("0").unwrap(), 0);
}

#[test]
fn strings_decode_escapes_and_surrogate_pairs() {
    let read = |text: &str| from_str::<String>(text).unwrap();
    assert_eq!(
        read(r#""a\"b\\c\/\b\f\n\r\t\u00e9""#),
        "a\"b\\c/\u{8}\u{c}\n\r\té"
    );
    assert_eq!(read(r#""\ud83d\ude00""#), "\u{1F600}");
    assert_eq!(read(r#""x\uD83D\uDE00y""#), "x\u{1F600}y");
    // A lone surrogate is U+FFFD, and what follows it is read as usual.
    assert_eq!(read(r#""\ud83d""#), "\u{FFFD}");
    assert_eq!(read(r#""\ude00\ud83d""#), "\u{FFFD}\u{FFFD}");
    assert_eq!(read(r#""\ud83dx""#), "\u{FFFD}x");
    assert_eq!(read(r#""\ud83d\u0041""#), "\u{FFFD}A");
    assert_eq!(read(r#""\ud83d\n""#), "\u{FFFD}\n");
    for bad in [
        r#""\ud83d\uzzzz""#,
        r#""\u12""#,
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\x""#,
        r#""open"#,
        "\"\\",
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn strings_borrow_unless_escaped() {
    let mut r = serde::Reader::new(br#"["plain", "tab\t"]"#);
    let mut seq = r.seq().unwrap();
    assert!(seq.next(&mut r).unwrap());
    assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
    assert!(seq.next(&mut r).unwrap());
    assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "tab\t"));
    assert!(!seq.next(&mut r).unwrap());
    r.finish().unwrap();
}

#[test]
fn bytes_must_be_utf8() {
    assert_eq!(from_slice::<String>("\"é\"".as_bytes()).unwrap(), "é");
    assert_eq!(
        from_slice::<String>(b"\"\xff\"").unwrap_err().to_string(),
        "invalid UTF-8 in string"
    );
    assert_eq!(
        from_slice::<Value>(b"[1,\xc3]").unwrap_err().to_string(),
        "unexpected character at offset 3"
    );
}

#[test]
fn nesting_is_bounded_instead_of_overflowing_the_stack() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(from_str::<Value>(&nested(128)).is_ok());
    assert_eq!(
        from_str::<Value>(&nested(129)).unwrap_err().to_string(),
        "nested deeper than 128 at offset 128"
    );
    let deep = format!("{{\"a\":1,\"o\":null,\"z\":{}}}", nested(1_000_000));
    assert_eq!(err::<Fields>(&deep), "nested deeper than 128 at offset 147");
    // Closing brackets give the depth back.
    let wide = format!("[{}]", vec![nested(127); 3].join(","));
    assert!(from_str::<Value>(&wide).is_ok());
}
