//! `#[derive(Serialize, Deserialize)]` for the vendored `serde` shim.
//!
//! crates.io is unreachable in this build environment, so instead of
//! `syn`/`quote` this crate walks the raw [`proc_macro::TokenStream`] of
//! the deriving item and emits the shim's impls as formatted source
//! text: a `Serialize::write_json` that appends compact JSON straight to
//! the output buffer, and a `Deserialize::read_json` that reads the type
//! straight from the shim's pull parser. A named-field body keeps one
//! `Option` slot per field and fills it while walking the object's keys
//! in any order: the first occurrence of a key wins (a repeat is still
//! syntax-checked), unknown keys are skipped, and at the closing `}` a
//! missing `skip` or `default` field takes `Default::default()` while
//! any other missing field is an error. Supported shapes: structs
//! (named, tuple, unit) and enums (unit, newtype, tuple, struct variants)
//! with optional `#[serde(skip)]` / `#[serde(default)]` field
//! attributes, none of them generic — exactly the surface the DReAMSim
//! workspace uses.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

/// One field of a named-field struct or struct variant.
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// `#[serde(skip)]`: omitted on serialize, defaulted on deserialize.
    skip: bool,
    /// `#[serde(default)]`: defaulted when missing on deserialize.
    default: bool,
}

/// Shape of a struct body or enum-variant payload.
enum Body {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    body: Body,
}

enum Item {
    Struct {
        name: String,
        body: Body,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn ident_of(tok: &TokenTree) -> Option<String> {
    match tok {
        TokenTree::Ident(id) => Some(id.to_string()),
        _ => None,
    }
}

fn is_punct(tok: &TokenTree, ch: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == ch)
}

/// Inspect one `#[...]` attribute body; record `serde(...)` options.
fn scan_attr(attr: &TokenTree, skip: &mut bool, default: &mut bool) {
    let TokenTree::Group(g) = attr else { return };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    if toks.first().and_then(ident_of).as_deref() != Some("serde") {
        return;
    }
    let Some(TokenTree::Group(inner)) = toks.get(1) else {
        return;
    };
    for opt in inner.stream() {
        match ident_of(&opt).as_deref() {
            Some("skip") => *skip = true,
            Some("default") => *default = true,
            Some(other) => panic!("serde shim: unsupported attribute `serde({other})`"),
            None => {} // separating commas
        }
    }
}

/// Parse the fields of a `{ ... }` body.
fn parse_named(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (mut skip, mut default) = (false, false);
        while is_punct(&toks[i], '#') {
            scan_attr(&toks[i + 1], &mut skip, &mut default);
            i += 2;
        }
        if ident_of(&toks[i]).as_deref() == Some("pub") {
            i += 1;
            if matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
                i += 1;
            }
        }
        let name = ident_of(&toks[i]).expect("field name");
        // The type: everything after `name:` up to a comma outside
        // angle brackets.
        i += 2;
        let start = i;
        let mut depth = 0i32;
        while i < toks.len() {
            if is_punct(&toks[i], '<') {
                depth += 1;
            } else if is_punct(&toks[i], '>') {
                depth -= 1;
            } else if is_punct(&toks[i], ',') && depth == 0 {
                break;
            }
            i += 1;
        }
        let ty = toks[start..i]
            .iter()
            .cloned()
            .collect::<TokenStream>()
            .to_string();
        i += 1; // ','
        fields.push(Field {
            name,
            ty,
            skip,
            default,
        });
    }
    fields
}

/// Count the fields of a `( ... )` tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut count = 0usize;
    let mut any = false;
    for tok in stream {
        if is_punct(&tok, '<') {
            depth += 1;
        } else if is_punct(&tok, '>') {
            depth -= 1;
        } else if is_punct(&tok, ',') && depth == 0 {
            count += 1;
            any = false;
            continue;
        }
        any = true;
    }
    count + usize::from(any)
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while is_punct(&toks[i], '#') {
            i += 2; // variant attributes (docs, #[default]) carry no serde options
        }
        let name = ident_of(&toks[i]).expect("variant name");
        i += 1;
        let body = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Body::Named(parse_named(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Body::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Body::Unit,
        };
        if i < toks.len() {
            assert!(
                is_punct(&toks[i], ','),
                "serde shim: unsupported token after enum variant {name}"
            );
            i += 1;
        }
        variants.push(Variant { name, body });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    loop {
        if is_punct(&toks[i], '#') {
            i += 2;
        } else if ident_of(&toks[i]).as_deref() == Some("pub") {
            i += 1;
            if matches!(&toks[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
                i += 1;
            }
        } else {
            break;
        }
    }
    let kind = ident_of(&toks[i]).expect("struct or enum keyword");
    let name = ident_of(&toks[i + 1]).expect("item name");
    i += 2;
    assert!(
        !toks.get(i).is_some_and(|t| is_punct(t, '<')),
        "serde shim: generic type {name} is not supported"
    );
    match kind.as_str() {
        "struct" => {
            let body = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Named(parse_named(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Tuple(count_tuple_fields(g.stream()))
                }
                _ => Body::Unit,
            };
            Item::Struct { name, body }
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = toks.get(i) else {
                panic!("serde shim: malformed enum {name}");
            };
            Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            }
        }
        other => panic!("serde shim: cannot derive for `{other}` items"),
    }
}

/// Statement appending the fixed JSON text `json` to `__out`. The text is
/// embedded as a Rust string literal via `{:?}`.
fn push_text(json: &str) -> String {
    format!("__out.push_str({json:?}); ")
}

/// Statements writing a JSON array or object: `open`, the comma-separated
/// `(label, expr)` parts, then `close`. `label` is a part's fixed key
/// text (`"name":`), empty for array items. Adjacent fixed text goes out
/// in one `push_str`, so a body costs one call per part plus one.
fn write_body(open: &str, close: &str, parts: &[(String, String)]) -> String {
    let mut out = String::new();
    let mut text = open.to_string();
    for (i, (label, expr)) in parts.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(label);
        out.push_str(&push_text(&text));
        text.clear();
        let _ = write!(out, "::serde::Serialize::write_json({expr}, __out); ");
    }
    text.push_str(close);
    out.push_str(&push_text(&text));
    out
}

/// Statements writing a named-field body as a JSON object wrapped in
/// `open` / `close` (`open` ends in `{`), reading each field through
/// `accessor` (`&self.name` for structs, the bound name for variants).
/// Skipped fields are left out; a body with none left renders `{}`.
fn write_named(
    fields: &[Field],
    open: &str,
    close: &str,
    accessor: impl Fn(&str) -> String,
) -> String {
    let parts: Vec<(String, String)> = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| (format!("\"{}\":", f.name), accessor(&f.name)))
        .collect();
    write_body(open, close, &parts)
}

/// Statements writing `items` as a JSON array wrapped in `open` / `close`
/// (`open` ends in `[`).
fn write_tuple(items: &[String], open: &str, close: &str) -> String {
    let parts: Vec<(String, String)> = items.iter().map(|e| (String::new(), e.clone())).collect();
    write_body(open, close, &parts)
}

/// The `Serialize` impl: one `write_json` per type that appends compact
/// JSON to the output buffer. Field names and variant tags are fixed at
/// expansion time, so they are written as literal text (Rust identifiers
/// never need JSON escaping).
fn gen_serialize(item: &Item) -> String {
    let body = match item {
        Item::Struct { body, .. } => match body {
            Body::Unit => push_text("null"),
            Body::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
            Body::Tuple(n) => {
                let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                write_tuple(&items, "[", "]")
            }
            Body::Named(fields) => write_named(fields, "{", "}", |f| format!("&self.{f}")),
        },
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, write) = match &v.body {
                    Body::Unit => (String::new(), push_text(&format!("\"{vn}\""))),
                    Body::Tuple(1) => (
                        "(__f0)".to_string(),
                        write_body(
                            &format!("{{\"{vn}\":"),
                            "}",
                            &[(String::new(), "__f0".to_string())],
                        ),
                    ),
                    Body::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        (
                            format!("({})", binds.join(", ")),
                            write_tuple(&binds, &format!("{{\"{vn}\":["), "]}"),
                        )
                    }
                    Body::Named(fields) => {
                        // Bind only the written fields; `..` covers skipped ones.
                        let mut pattern = String::from(" { ");
                        for f in fields.iter().filter(|f| !f.skip) {
                            let _ = write!(pattern, "{}, ", f.name);
                        }
                        pattern.push_str(".. }");
                        let open = format!("{{\"{vn}\":{{");
                        (pattern, write_named(fields, &open, "}}", str::to_string))
                    }
                };
                let _ = write!(arms, "{name}::{vn}{pattern} => {{ {write} }} ");
            }
            format!("match self {{ {arms} }}")
        }
    };
    let (Item::Struct { name, .. } | Item::Enum { name, .. }) = item;
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
           fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }} }}"
    )
}

/// Statements reading a named-field body from the object at `__r` and
/// evaluating to `path { .. }`, which also names the type in errors.
fn read_named(path: &str, fields: &[Field]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut built = String::new();
    for (i, f) in fields.iter().enumerate() {
        let name = &f.name;
        if f.skip {
            let _ = write!(built, "{name}: ::std::default::Default::default(), ");
            continue;
        }
        let _ = write!(
            slots,
            "let mut __f{i}: ::std::option::Option<{ty}> = ::std::option::Option::None; ",
            ty = f.ty
        );
        let _ = write!(
            arms,
            "\"{name}\" if __f{i}.is_none() => \
               __f{i} = ::std::option::Option::Some(::serde::Deserialize::read_json(__r)?), "
        );
        if f.default {
            let _ = write!(built, "{name}: __f{i}.unwrap_or_default(), ");
        } else {
            let _ = write!(
                built,
                "{name}: __f{i}.ok_or_else(|| \
                   ::serde::Error::custom(\"{path}: missing field {name}\"))?, "
            );
        }
    }
    format!(
        "{slots} \
         let mut __map = __r.map().map_err(|_| \
           ::serde::Error::custom(\"{path}: expected object\"))?; \
         while let ::std::option::Option::Some(__k) = __map.next_key(__r)? {{ \
           match &*__k {{ {arms} _ => __r.skip_value()?, }} }} \
         {path} {{ {built} }}"
    )
}

/// Statements reading an `n`-element JSON array at `__r` into
/// `path(__x0, ..)`; `path` also names the type in errors.
fn read_tuple(path: &str, n: usize) -> String {
    let shape = format!("::serde::Error::custom(\"{path}: expected {n} elements\")");
    let mut out = format!(
        "let mut __seq = __r.seq().map_err(|_| \
           ::serde::Error::custom(\"{path}: expected array\"))?; "
    );
    for i in 0..n {
        let _ = write!(
            out,
            "if !__seq.next(__r)? {{ return ::std::result::Result::Err({shape}); }} \
             let __x{i} = ::serde::Deserialize::read_json(__r)?; "
        );
    }
    let items: Vec<String> = (0..n).map(|i| format!("__x{i}")).collect();
    let _ = write!(
        out,
        "if __seq.next(__r)? {{ return ::std::result::Result::Err({shape}); }} \
         {path}({})",
        items.join(", ")
    );
    out
}

/// The `Deserialize` impl: one `read_json` per type that reads it from
/// the shim's pull parser. Enums are externally tagged: a unit variant
/// is its name as a string, any other variant a single-key object.
fn gen_deserialize(item: &Item) -> String {
    let (Item::Struct { name, .. } | Item::Enum { name, .. }) = item;
    let body = match item {
        Item::Struct { body, .. } => match body {
            Body::Unit => format!("__r.skip_value()?; ::std::result::Result::Ok({name})"),
            Body::Tuple(1) => {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::read_json(__r)?))")
            }
            Body::Tuple(n) => format!("::std::result::Result::Ok({{ {} }})", read_tuple(name, *n)),
            Body::Named(fields) => format!(
                "::std::result::Result::Ok({{ {} }})",
                read_named(name, fields)
            ),
        },
        Item::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let path = format!("{name}::{vn}");
                let read = match &v.body {
                    Body::Unit => {
                        let _ = write!(unit_arms, "\"{vn}\" => {path}, ");
                        continue;
                    }
                    Body::Tuple(1) => format!("{path}(::serde::Deserialize::read_json(__r)?)"),
                    Body::Tuple(n) => read_tuple(&path, *n),
                    Body::Named(fields) => read_named(&path, fields),
                };
                let _ = write!(data_arms, "\"{vn}\" => {{ {read} }}, ");
            }
            let unknown = format!(
                "return ::std::result::Result::Err(::serde::Error::custom(\
                   format!(\"{name}: unknown variant {{}}\", __tag)))"
            );
            let expected = format!("::serde::Error::custom(\"{name}: expected variant\")");
            // An enum without data variants has no object form.
            let object_arm = if data_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::std::option::Option::Some(\"object\") => {{ \
                       let mut __map = __r.map()?; \
                       let __tag = __map.next_key(__r)?.ok_or_else(|| {expected})?; \
                       let __value = match &*__tag {{ {data_arms} _ => {unknown}, }}; \
                       if __map.next_key(__r)?.is_some() {{ \
                         return ::std::result::Result::Err({expected}); }} \
                       __value }} "
                )
            };
            format!(
                "::std::result::Result::Ok(match __r.kind() {{ \
                   ::std::option::Option::Some(\"string\") => {{ \
                     let __tag = __r.str()?; \
                     match &*__tag {{ {unit_arms} _ => {unknown}, }} }} \
                   {object_arm} \
                   _ => return ::std::result::Result::Err({expected}), }})"
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
           fn read_json(__r: &mut ::serde::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} }}"
    )
}
