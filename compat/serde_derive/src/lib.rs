//! `#[derive(Serialize, Deserialize)]` for the workspace's vendored serde
//! stand-in.
//!
//! The offline build environment has neither `syn` nor `quote`, so the
//! item is parsed directly from the `proc_macro` token stream and the
//! impls are emitted as source text. The supported shape is exactly what
//! this workspace declares: non-generic structs (named, tuple, unit) and
//! non-generic enums whose variants are unit, tuple, or struct-like.
//!
//! `Serialize` writes straight to a `serde::Sink`, and `Deserialize`
//! reads straight from a `serde::Source` (JSON text or a `Value` tree),
//! in this JSON shape:
//! - named struct  → object of fields
//! - tuple struct, one field → the inner value (newtype transparency)
//! - tuple struct, n fields → array
//! - unit struct → null
//! - enum: unit variant → `"Variant"`; tuple/struct variant →
//!   single-entry object `{ "Variant": payload }`
//!
//! The reading rules (key order, duplicates, unknown keys, which error
//! wins) are in the `serde` crate docs; the generated bodies get them
//! from `serde::read_fields`, `serde::read_tuple` and `serde::read_enum`.
//!
//! Named fields may carry `#[serde(default)]` or
//! `#[serde(default = "path")]` (see the `serde` crate docs on absent
//! keys); any other `#[serde(..)]` stops the build.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Field shape of a struct or enum variant.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// A named field.
struct Field {
    name: String,
    /// The expression an absent key decodes to, from `#[serde(default)]`
    /// or `#[serde(default = "path")]`; `None` asks the field's type
    /// (`Deserialize::from_missing`).
    default: Option<String>,
}

/// Parsed item shape.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Skip the attributes (`#` + bracket group) at `i`, returning the
/// default expression a `#[serde(..)]` among them names.
fn parse_attrs(toks: &[TokenTree], i: &mut usize) -> Option<String> {
    let mut default = None;
    while let Some(TokenTree::Punct(p)) = toks.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            let attr: Vec<TokenTree> = g.stream().into_iter().collect();
            if matches!(attr.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                && default.replace(parse_serde_attr(&attr)).is_some()
            {
                panic!("serde_derive: a field takes at most one `#[serde(..)]` attribute");
            }
        }
        *i += 2;
    }
    default
}

/// Read `serde(default)` or `serde(default = "path")` into the expression
/// it names; anything else stops the build rather than being ignored.
fn parse_serde_attr(attr: &[TokenTree]) -> String {
    if let [_, TokenTree::Group(args)] = attr {
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        match args.as_slice() {
            [TokenTree::Ident(id)] if id.to_string() == "default" => {
                return "::std::default::Default::default()".to_string();
            }
            [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(path)]
                if id.to_string() == "default" && eq.as_char() == '=' =>
            {
                let path = path.to_string();
                if let Some(path) = path.strip_prefix('"').and_then(|p| p.strip_suffix('"')) {
                    return format!("{path}()");
                }
            }
            _ => {}
        }
    }
    let attr: TokenStream = attr.iter().cloned().collect();
    panic!(
        "serde_derive: unsupported attribute `#[{attr}]`; only `#[serde(default)]` and \
         `#[serde(default = \"path\")]` are supported"
    )
}

/// Skip attributes where no `serde` attribute applies (items, variants,
/// tuple fields).
fn skip_attrs(toks: &[TokenTree], i: &mut usize) {
    if parse_attrs(toks, i).is_some() {
        panic!("serde_derive: `#[serde(default)]` applies only to named fields");
    }
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advance past a type (or expression) to the next top-level comma,
/// consuming the comma. Only `<`/`>` need depth tracking — parenthesized
/// and bracketed subtrees arrive as single `Group` tokens.
fn skip_to_next_field(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i64;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

/// Parse `{ field: Type, ... }` into fields.
fn parse_named(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let default = parse_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, got {other}"),
        };
        i += 1; // name
        i += 1; // ':'
        skip_to_next_field(&toks, &mut i);
        fields.push(Field { name, default });
    }
    fields
}

/// Count the fields of `( Type, ... )`.
fn count_tuple(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_to_next_field(&toks, &mut i);
        count += 1;
    }
    count
}

/// Parse `enum { Variant, Variant(T), Variant { .. }, ... }` bodies.
fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, got {other}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip a possible discriminant, then the separating comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

/// Parse the derive input into an [`Item`].
fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let kind = loop {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        match &toks[i] {
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    i += 1;
                    break s;
                }
                i += 1; // e.g. `pub` already handled; tolerate others
            }
            _ => i += 1,
        }
    };
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive: generic types are not supported by the offline stand-in");
        }
    }
    if kind == "struct" {
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple(g.stream()))
            }
            _ => Fields::Unit,
        };
        Item::Struct { name, fields }
    } else {
        let variants = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                parse_variants(g.stream())
            }
            other => panic!("serde_derive: malformed enum body: {other:?}"),
        };
        Item::Enum { name, variants }
    }
}

/// `::serde::Sink::{method}(__out{args});`
fn sink(method: &str, args: &str) -> String {
    format!("::serde::Sink::{method}(__out{args}); ")
}

/// Statements writing `value` (an expression of reference type).
fn write(value: &str) -> String {
    format!("::serde::Serialize::serialize({value}, __out); ")
}

/// Statements writing an object of `(key, value expression)` entries.
fn write_object<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut s = sink("begin_object", "");
    for (key, value) in entries {
        s.push_str(&sink("key", &format!(", \"{key}\"")));
        s.push_str(&write(&value));
    }
    s + &sink("end_object", "")
}

/// Statements writing an array of value expressions.
fn write_array(values: impl Iterator<Item = String>) -> String {
    let mut s = sink("begin_array", "");
    for value in values {
        s.push_str(&sink("element", ""));
        s.push_str(&write(&value));
    }
    s + &sink("end_array", "")
}

/// Emit the `Serialize` impl for `item`.
fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fields) => write_object(
                    fields
                        .iter()
                        .map(|f| (f.name.as_str(), format!("&self.{}", f.name))),
                ),
                Fields::Tuple(1) => write("&self.0"),
                Fields::Tuple(n) => write_array((0..*n).map(|i| format!("&self.{i}"))),
                Fields::Unit => sink("null", ""),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            // A payload variant is the one-key object `{"Variant": payload}`.
            let mut body = "match self { ".to_string();
            for (v, fields) in variants {
                let (pattern, payload) = match fields {
                    Fields::Unit => {
                        body.push_str(&format!(
                            "{name}::{v} => {{ {} }}",
                            sink("str", &format!(", \"{v}\""))
                        ));
                        continue;
                    }
                    Fields::Tuple(1) => (format!("{name}::{v}(__f0)"), write("__f0")),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        (
                            format!("{name}::{v}({})", binds.join(",")),
                            write_array(binds.into_iter()),
                        )
                    }
                    Fields::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        (
                            format!("{name}::{v} {{ {} }}", names.join(",")),
                            write_object(names.iter().map(|&f| (f, f.to_string()))),
                        )
                    }
                };
                body.push_str(&format!(
                    "{pattern} => {{ {}{}{payload}{} }}",
                    sink("begin_object", ""),
                    sink("key", &format!(", \"{v}\"")),
                    sink("end_object", "")
                ));
            }
            body.push_str(" }");
            (name, body)
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn serialize<__W: ::serde::Sink>(&self, __out: &mut __W) {{ {body} }} }}"
    )
}

/// An expression reading a named-field value into `ty_path { .. }`, as a
/// `Result`; `?` inside returns from the enclosing function or closure.
///
/// Each field keeps its own outcome, and the struct literal takes them
/// in declaration order, so the first declared field's error (a bad
/// value, or a missing key without a default) is the one reported.
fn read_named(ty_path: &str, fields: &[Field]) -> String {
    if fields.len() > 64 {
        panic!("serde_derive: at most 64 named fields are supported");
    }
    let mut s = String::new();
    for k in 0..fields.len() {
        s.push_str(&format!("let mut __f{k} = ::std::option::Option::None; "));
    }
    let names: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    s.push_str(&format!(
        "::serde::read_fields(__src, &[{}], |__src, __i| match __i {{ ",
        names.join(",")
    ));
    for k in 0..fields.len() {
        s.push_str(&format!(
            "{k} => __f{k} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__src)),"
        ));
    }
    s.push_str(&format!(
        "_ => {{}} }})?; ::std::result::Result::Ok({ty_path} {{ "
    ));
    for (k, Field { name: f, default }) in fields.iter().enumerate() {
        let if_absent = match default {
            Some(expr) => expr.clone(),
            None => format!("::serde::Deserialize::from_missing(\"{f}\")?"),
        };
        s.push_str(&format!(
            "{f}: match __f{k} {{ ::std::option::Option::Some(__r) => __r?, \
             ::std::option::Option::None => {if_absent} }},"
        ));
    }
    s.push_str(" })");
    s
}

/// An expression reading an `n`-element array into `ty_path(..)`, as a
/// `Result`; the array check and the arity check come before any
/// element's own error.
fn read_tuple(ty_path: &str, n: usize, not_array: &str, wrong_arity: &str) -> String {
    let mut s = String::new();
    for k in 0..n {
        s.push_str(&format!("let mut __f{k} = ::std::option::Option::None; "));
    }
    s.push_str(&format!(
        "::serde::read_tuple(__src, {n}, \
         |_| ::std::string::String::from(\"{not_array}\"), \
         |_| ::std::string::String::from(\"{wrong_arity}\"), \
         |__src, __i| {{ match __i {{ "
    ));
    for k in 0..n {
        s.push_str(&format!(
            "{k} => __f{k} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__src)?),"
        ));
    }
    s.push_str(&format!(
        "_ => {{}} }} ::std::result::Result::Ok(()) }})?; ::std::result::Result::Ok({ty_path}("
    ));
    for k in 0..n {
        s.push_str(&format!(
            "__f{k}.expect(\"read_tuple read every element\"),"
        ));
    }
    s.push_str("))");
    s
}

/// Wrap a `Result` expression that uses `?` into one that can sit in a
/// closure's match arm.
fn try_block(ty: &str, expr: &str) -> String {
    format!("(|| -> ::std::result::Result<{ty}, ::serde::DeError> {{ {expr} }})()")
}

/// Emit the `Deserialize` impl for `item`.
fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fields) => read_named(name, fields),
                Fields::Tuple(1) => format!("::serde::Deserialize::deserialize(__src).map({name})"),
                Fields::Tuple(n) => read_tuple(
                    name,
                    *n,
                    &format!("expected array for {name}"),
                    &format!("wrong arity for {name}"),
                ),
                Fields::Unit => {
                    format!("::serde::Source::skip(__src)?; ::std::result::Result::Ok({name})")
                }
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            // Unit variants arrive as bare strings, payload variants as
            // single-entry objects.
            let mut unit = "|__s| match __s { ".to_string();
            let mut payload = "|__src, __tag| match __tag { ".to_string();
            for (v, fields) in variants {
                let read = match fields {
                    Fields::Unit => {
                        unit.push_str(&format!(
                            "\"{v}\" => ::std::option::Option::Some({name}::{v}),"
                        ));
                        continue;
                    }
                    Fields::Tuple(1) => {
                        format!("::serde::Deserialize::deserialize(__src).map({name}::{v})")
                    }
                    Fields::Tuple(n) => try_block(
                        name,
                        &read_tuple(
                            &format!("{name}::{v}"),
                            *n,
                            &format!("expected array payload for {name}::{v}"),
                            &format!("wrong arity for {name}::{v}"),
                        ),
                    ),
                    Fields::Named(fields) => {
                        try_block(name, &read_named(&format!("{name}::{v}"), fields))
                    }
                };
                payload.push_str(&format!("\"{v}\" => ::std::option::Option::Some({read}),"));
            }
            unit.push_str("_ => ::std::option::Option::None }");
            payload.push_str("_ => ::std::option::Option::None }");
            (
                name,
                format!("::serde::read_enum(__src, \"{name}\", {unit}, {payload})"),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
         fn deserialize<'de, __S: ::serde::Source<'de>>(__src: &mut __S) \
         -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} }}"
    )
}

/// Derive `serde::Serialize`: write the value straight to a
/// `serde::Sink` (see crate docs).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl parses")
}

/// Derive `serde::Deserialize`: read the value from any
/// `serde::Source`, JSON text or a value tree (see crate docs).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl parses")
}
