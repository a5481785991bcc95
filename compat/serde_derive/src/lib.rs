//! `#[derive(Serialize, Deserialize)]` for the workspace's vendored serde
//! stand-in.
//!
//! The offline build environment has neither `syn` nor `quote`, so the
//! item is parsed directly from the `proc_macro` token stream and the
//! impls are emitted as source text. The supported shape is exactly what
//! this workspace declares: non-generic structs (named, tuple, unit) and
//! non-generic enums whose variants are unit, tuple, or struct-like.
//!
//! Generated mapping onto the `serde::Value` model:
//! - named struct  → object of fields
//! - tuple struct, one field → the inner value (newtype transparency)
//! - tuple struct, n fields → array
//! - unit struct → null
//! - enum: unit variant → `"Variant"`; tuple/struct variant →
//!   single-entry object `{ "Variant": payload }`
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

/// Emit the `Serialize` impl for `item`.
fn gen_serialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct { name, fields } => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ "
            ));
            match fields {
                Fields::Named(fields) => {
                    s.push_str("::serde::Value::Object(::std::vec![");
                    for Field { name: f, .. } in fields {
                        s.push_str(&format!(
                            "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f})),"
                        ));
                    }
                    s.push_str("])");
                }
                Fields::Tuple(1) => s.push_str("::serde::Serialize::to_value(&self.0)"),
                Fields::Tuple(n) => {
                    s.push_str("::serde::Value::Array(::std::vec![");
                    for idx in 0..*n {
                        s.push_str(&format!("::serde::Serialize::to_value(&self.{idx}),"));
                    }
                    s.push_str("])");
                }
                Fields::Unit => s.push_str("::serde::Value::Null"),
            }
            s.push_str(" } }");
        }
        Item::Enum { name, variants } => {
            s.push_str(&format!(
                "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::Value {{ match self {{ "
            ));
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => s.push_str(&format!(
                        "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
                    )),
                    Fields::Tuple(1) => s.push_str(&format!(
                        "{name}::{v}(__f0) => ::serde::Value::Object(::std::vec![(\
                         ::std::string::String::from(\"{v}\"), ::serde::Serialize::to_value(__f0))]),"
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        s.push_str(&format!("{name}::{v}({}) => ", binds.join(",")));
                        s.push_str(&format!(
                            "::serde::Value::Object(::std::vec![(::std::string::String::from(\"{v}\"), ::serde::Value::Array(::std::vec!["
                        ));
                        for b in &binds {
                            s.push_str(&format!("::serde::Serialize::to_value({b}),"));
                        }
                        s.push_str("]))]),");
                    }
                    Fields::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        s.push_str(&format!("{name}::{v} {{ {} }} => ", names.join(",")));
                        s.push_str(&format!(
                            "::serde::Value::Object(::std::vec![(::std::string::String::from(\"{v}\"), ::serde::Value::Object(::std::vec!["
                        ));
                        for f in names {
                            s.push_str(&format!(
                                "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f})),"
                            ));
                        }
                        s.push_str("]))]),");
                    }
                }
            }
            s.push_str(" } } }");
        }
    }
    s
}

/// Emit a named-field constructor body reading from value `src`.
fn gen_named_build(ty_path: &str, fields: &[Field], src: &str) -> String {
    let mut s = format!("{ty_path} {{ ");
    for Field { name: f, default } in fields {
        let if_absent = match default {
            Some(expr) => expr.clone(),
            None => format!("::serde::Deserialize::from_missing(\"{f}\")?"),
        };
        s.push_str(&format!(
            "{f}: match {src}.field(\"{f}\") {{ \
             Some(__v) => ::serde::Deserialize::from_value(__v)?, \
             None => {if_absent} }},"
        ));
    }
    s.push_str(" }");
    s
}

/// Emit the `Deserialize` impl for `item`.
fn gen_deserialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct { name, fields } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ "
            ));
            match fields {
                Fields::Named(fields) => {
                    s.push_str(&format!(
                        "::std::result::Result::Ok({})",
                        gen_named_build(name, fields, "__v")
                    ));
                }
                Fields::Tuple(1) => s.push_str(&format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                )),
                Fields::Tuple(n) => {
                    s.push_str(&format!(
                        "let __a = match __v.as_array() {{ Some(a) => a, None => return \
                         ::std::result::Result::Err(::serde::DeError::msg(\"expected array for {name}\")) }}; \
                         if __a.len() != {n} {{ return ::std::result::Result::Err(\
                         ::serde::DeError::msg(\"wrong arity for {name}\")); }} \
                         ::std::result::Result::Ok({name}("
                    ));
                    for idx in 0..*n {
                        s.push_str(&format!("::serde::Deserialize::from_value(&__a[{idx}])?,"));
                    }
                    s.push_str("))");
                }
                Fields::Unit => s.push_str(&format!("::std::result::Result::Ok({name})")),
            }
            s.push_str(" } }");
        }
        Item::Enum { name, variants } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ \
                 match __v {{ "
            ));
            // Unit variants arrive as bare strings.
            s.push_str("::serde::Value::Str(__s) => match __s.as_str() { ");
            for (v, fields) in variants {
                if matches!(fields, Fields::Unit) {
                    s.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),"
                    ));
                }
            }
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"unknown unit variant {{__other}} for {name}\"))) }},"
            ));
            // Payload variants arrive as single-entry objects.
            s.push_str(
                "::serde::Value::Object(__fields) if __fields.len() == 1 => { \
                 let (__tag, __inner) = &__fields[0]; match __tag.as_str() { ",
            );
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => s.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(__inner)?)),"
                    )),
                    Fields::Tuple(n) => {
                        s.push_str(&format!(
                            "\"{v}\" => {{ let __a = match __inner.as_array() {{ Some(a) => a, \
                             None => return ::std::result::Result::Err(::serde::DeError::msg(\
                             \"expected array payload for {name}::{v}\")) }}; \
                             if __a.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::DeError::msg(\"wrong arity for {name}::{v}\")); }} \
                             ::std::result::Result::Ok({name}::{v}("
                        ));
                        for idx in 0..*n {
                            s.push_str(&format!("::serde::Deserialize::from_value(&__a[{idx}])?,"));
                        }
                        s.push_str(")) },");
                    }
                    Fields::Named(fields) => {
                        s.push_str(&format!(
                            "\"{v}\" => ::std::result::Result::Ok({}),",
                            gen_named_build(&format!("{name}::{v}"), fields, "__inner")
                        ));
                    }
                }
            }
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"unknown variant {{__other}} for {name}\"))) }} }},"
            ));
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"bad enum encoding for {name}: {{__other:?}}\"))) }} }} }}"
            ));
        }
    }
    s
}

/// Derive `serde::Serialize` (value-model flavour; see crate docs).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl parses")
}

/// Derive `serde::Deserialize` (value-model flavour; see crate docs).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl parses")
}
