//! Offline stand-in for `serde_derive`.
//!
//! The real serde derives target the full serde data model; this shim
//! targets the workspace's shim `serde`, whose data model *is* JSON. The
//! macros therefore generate a `__write_json` impl that appends compact
//! JSON text in one pass (fields in declaration order), and a
//! `__deserialize` impl that destructures `serde::__private::Value`,
//! written without `syn`/`quote` (also unavailable offline) via a small
//! hand-rolled token parser.
//!
//! Supported shapes — exactly what the workspace derives on:
//! named-field structs, tuple structs (newtype included), and enums
//! whose variants are unit, tuple, or struct-like. Generics and
//! `#[serde(...)]` attributes are not supported and panic loudly.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    /// `struct S { a: A, b: B }`
    NamedStruct { name: String, fields: Vec<String> },
    /// `struct S(A, B);` — one field serializes as the bare inner value
    /// (serde's newtype convention), more as an array.
    TupleStruct { name: String, arity: usize },
    /// `enum E { Unit, New(T), Pair(T, U), Rec { x: X } }` —
    /// externally tagged, as serde does by default.
    Enum { name: String, variants: Vec<Variant> },
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_item(input);
    gen_serialize(&shape).parse().expect("generated impl parses")
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_item(input);
    gen_deserialize(&shape).parse().expect("generated impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Shape {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kw = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct { name, fields: parse_named_fields(g.stream()) }
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct { name, arity: count_tuple_fields(g.stream()) }
            }
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum { name, variants: parse_variants(g.stream()) }
            }
            other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: expected struct or enum, found `{other}`"),
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected identifier, found {other:?}"),
    }
}

/// Advances past one type expression: everything until a `,` at angle
/// depth zero (or end of stream).
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    let mut prev_dash = false;
    while let Some(tt) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => return,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        *i += 1;
    }
}

fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        fields.push(expect_ident(&tokens, &mut i));
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field, found {other:?}"),
        }
        skip_type(&tokens, &mut i);
        i += 1; // the comma (or past the end)
    }
    fields
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        count += 1;
        skip_type(&tokens, &mut i);
        i += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => panic!(
                "serde shim derive: unsupported token after variant `{name}` \
                 (discriminants are not supported): {other:?}"
            ),
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------- codegen

const V: &str = "::serde::__private::Value";
const ERR: &str = "::serde::__private::Error";
const SER: &str = "::serde::Serialize";
const DE: &str = "::serde::Deserialize";

/// A statement appending the literal `text` to the output (`text` holds
/// only JSON punctuation and Rust identifiers, never `"#`).
fn push(text: &str) -> String {
    format!("__out.push_str(r#\"{text}\"#);\n")
}

/// Statements appending `items` — each a `"key":` prefix (empty in an
/// array) and a reference to the value — between `open` and `close`,
/// separated by commas.
fn write_list(open: &str, close: &str, items: Vec<(String, String)>) -> String {
    if items.is_empty() {
        return push(&format!("{open}{close}"));
    }
    let mut b = String::new();
    for (k, (key, value)) in items.iter().enumerate() {
        let sep = if k == 0 { open } else { "," };
        b.push_str(&push(&format!("{sep}{key}")));
        b.push_str(&format!("{SER}::__write_json({value}, __out);\n"));
    }
    b + &push(close)
}

/// Statements appending a JSON object of `fields`, in declaration order;
/// `value(f)` is the reference to field `f`.
fn write_fields(fields: &[String], value: impl Fn(&str) -> String) -> String {
    write_list("{", "}", fields.iter().map(|f| (format!("\"{f}\":"), value(f))).collect())
}

/// Statements appending positional `values`: the bare value when there
/// is one (serde's newtype convention), else an array.
fn write_tuple(values: Vec<String>) -> String {
    match values.as_slice() {
        [one] => format!("{SER}::__write_json({one}, __out);\n"),
        _ => write_list("[", "]", values.into_iter().map(|v| (String::new(), v)).collect()),
    }
}

fn gen_serialize(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::NamedStruct { name, fields } => {
            (name, write_fields(fields, |f| format!("&self.{f}")))
        }
        Shape::TupleStruct { name, arity } => {
            (name, write_tuple((0..*arity).map(|k| format!("&self.{k}")).collect()))
        }
        Shape::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tag = push(&format!("{{\"{vn}\":"));
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => {{\n{}}}\n",
                        push(&format!("\"{vn}\""))
                    )),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {{\n{tag}{}{}}}\n",
                            binds.join(", "),
                            write_tuple(binds.clone()),
                            push("}")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => {{\n{tag}{}{}}}\n",
                            fields.join(", "),
                            write_fields(fields, str::to_string),
                            push("}")
                        ));
                    }
                }
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {SER} for {name} {{\n\
         fn __write_json(&self, __out: &mut ::std::string::String) {{\n{body}}}\n}}\n"
    )
}

fn gen_deserialize(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::NamedStruct { name, fields } => {
            let mut b = format!(
                "let __m = __v.as_object().ok_or_else(|| \
                 {ERR}::custom(\"expected object for {name}\"))?;\n\
                 ::core::result::Result::Ok({name} {{\n"
            );
            for f in fields {
                b.push_str(&format!(
                    "{f}: {DE}::__deserialize(__m.get(\"{f}\").ok_or_else(|| \
                     {ERR}::custom(\"missing field `{f}` in {name}\"))?)?,\n"
                ));
            }
            b.push_str("})");
            (name, b)
        }
        Shape::TupleStruct { name, arity } => {
            let b = match arity {
                0 => format!("::core::result::Result::Ok({name}())"),
                1 => format!("::core::result::Result::Ok({name}({DE}::__deserialize(__v)?))"),
                n => {
                    let mut b = format!(
                        "let __a = __v.as_array().ok_or_else(|| \
                         {ERR}::custom(\"expected array for {name}\"))?;\n\
                         if __a.len() != {n} {{ return ::core::result::Result::Err(\
                         {ERR}::custom(\"wrong arity for {name}\")); }}\n\
                         ::core::result::Result::Ok({name}("
                    );
                    for k in 0..*n {
                        b.push_str(&format!("{DE}::__deserialize(&__a[{k}])?,"));
                    }
                    b.push_str("))");
                    b
                }
            };
            (name, b)
        }
        Shape::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => unit_arms.push_str(&format!(
                        "\"{vn}\" => ::core::result::Result::Ok({name}::{vn}),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        let inner = if *n == 1 {
                            format!(
                                "::core::result::Result::Ok({name}::{vn}({DE}::__deserialize(__inner)?))"
                            )
                        } else {
                            let mut b = format!(
                                "let __a = __inner.as_array().ok_or_else(|| \
                                 {ERR}::custom(\"expected array for {name}::{vn}\"))?;\n\
                                 if __a.len() != {n} {{ return ::core::result::Result::Err(\
                                 {ERR}::custom(\"wrong arity for {name}::{vn}\")); }}\n\
                                 ::core::result::Result::Ok({name}::{vn}("
                            );
                            for k in 0..*n {
                                b.push_str(&format!("{DE}::__deserialize(&__a[{k}])?,"));
                            }
                            b.push_str("))");
                            b
                        };
                        tagged_arms.push_str(&format!("\"{vn}\" => {{ {inner} }}\n"));
                    }
                    VariantKind::Struct(fields) => {
                        let mut b = format!(
                            "let __fm = __inner.as_object().ok_or_else(|| \
                             {ERR}::custom(\"expected object for {name}::{vn}\"))?;\n\
                             ::core::result::Result::Ok({name}::{vn} {{\n"
                        );
                        for f in fields {
                            b.push_str(&format!(
                                "{f}: {DE}::__deserialize(__fm.get(\"{f}\").ok_or_else(|| \
                                 {ERR}::custom(\"missing field `{f}` in {name}::{vn}\"))?)?,\n"
                            ));
                        }
                        b.push_str("})");
                        tagged_arms.push_str(&format!("\"{vn}\" => {{ {b} }}\n"));
                    }
                }
            }
            let b = format!(
                "match __v {{\n\
                 {V}::String(__s) => match __s.as_str() {{\n{unit_arms}\
                 __other => ::core::result::Result::Err({ERR}::custom(\
                 &format!(\"unknown variant `{{__other}}` for {name}\"))),\n}},\n\
                 {V}::Object(__m) if __m.len() == 1 => {{\n\
                 let (__tag, __inner) = __m.iter().next().expect(\"len checked\");\n\
                 match __tag.as_str() {{\n{tagged_arms}\
                 __other => ::core::result::Result::Err({ERR}::custom(\
                 &format!(\"unknown variant `{{__other}}` for {name}\"))),\n}}\n}}\n\
                 _ => ::core::result::Result::Err({ERR}::custom(\
                 \"expected string or single-key object for {name}\")),\n}}"
            );
            (name, b)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {DE} for {name} {{\n\
         fn __deserialize(__v: &{V}) -> ::core::result::Result<Self, {ERR}> {{\n{body}\n}}\n}}\n"
    )
}
