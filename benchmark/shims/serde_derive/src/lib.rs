//! Derive macros for the benchmark's JSON-only serde stand-in.
//!
//! No syn/quote: the item is walked as raw token trees and the impls
//! are assembled as source text. Supported shapes are the ones the tree
//! derives on — non-generic structs with named fields and enums with
//! unit, struct and single-field tuple variants — plus the field
//! attributes `#[serde(default)]` and
//! `#[serde(skip_serializing_if = "path")]`. Anything else is a compile
//! error naming what was not understood, never a silent wrong impl.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

struct Field {
    name: String,
    default: bool,
    skip_if: Option<String>,
}

enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tree: Option<&TokenTree>, ch: char) -> bool {
    matches!(tree, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

/// Consume leading `#[...]` attributes, folding any `#[serde(...)]`
/// arguments into `field`.
fn take_attrs(tokens: &mut Tokens, mut field: Option<&mut Field>) {
    while is_punct(tokens.peek(), '#') {
        tokens.next();
        let Some(TokenTree::Group(attr)) = tokens.next() else {
            panic!("serde stand-in: malformed attribute");
        };
        let mut inner = attr.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(args)) = inner.next() else {
            panic!("serde stand-in: expected #[serde(...)]");
        };
        let Some(field) = field.as_deref_mut() else {
            panic!("serde stand-in: #[serde(...)] is only supported on struct fields");
        };
        let mut args = args.stream().into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.to_string().as_str() {
                "default" => field.default = true,
                "skip_serializing_if" => {
                    assert!(is_punct(args.next().as_ref(), '='), "expected `=`");
                    let lit = args.next().map(|t| t.to_string()).unwrap_or_default();
                    field.skip_if = Some(lit.trim_matches('"').to_string());
                }
                "," => {}
                other => panic!("serde stand-in: unsupported attribute `{other}`"),
            }
        }
    }
}

/// Consume an optional `pub` / `pub(...)`.
fn take_vis(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consume tokens up to and including the next comma that is not
/// inside `<...>`; returns how many tokens preceded it.
fn skip_to_comma(tokens: &mut Tokens) -> usize {
    let (mut depth, mut seen) = (0i32, 0);
    for tree in tokens {
        match &tree {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
            _ => {}
        }
        seen += 1;
    }
    seen
}

fn parse_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let mut field = Field {
            name: String::new(),
            default: false,
            skip_if: None,
        };
        take_attrs(&mut tokens, Some(&mut field));
        take_vis(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            panic!("serde stand-in: expected a field name");
        };
        field.name = name.to_string();
        assert!(
            is_punct(tokens.next().as_ref(), ':'),
            "serde stand-in: only named fields are supported"
        );
        skip_to_comma(&mut tokens);
        fields.push(field);
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        take_attrs(&mut tokens, None);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            panic!("serde stand-in: expected a variant name");
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(parse_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let mut inner = g.stream().into_iter().peekable();
                take_attrs(&mut inner, None);
                take_vis(&mut inner);
                assert!(
                    skip_to_comma(&mut inner) > 0 && inner.peek().is_none(),
                    "serde stand-in: tuple variant `{name}` must have exactly one field"
                );
                Shape::Newtype
            }
            _ => Shape::Unit,
        };
        if !matches!(shape, Shape::Unit) {
            tokens.next();
        }
        skip_to_comma(&mut tokens); // an explicit discriminant, if any
        variants.push(Variant {
            name: name.to_string(),
            shape,
        });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    take_attrs(&mut tokens, None);
    take_vis(&mut tokens);
    let Some(TokenTree::Ident(keyword)) = tokens.next() else {
        panic!("serde stand-in: expected `struct` or `enum`");
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        panic!("serde stand-in: expected a type name");
    };
    let name = name.to_string();
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!("serde stand-in: `{name}` must be a non-generic braced struct or enum"),
    };
    let body = match keyword.to_string().as_str() {
        "struct" => Body::Struct(parse_fields(body)),
        "enum" => Body::Enum(parse_variants(body)),
        other => panic!("serde stand-in: cannot derive on `{other}`"),
    };
    Item { name, body }
}

/// Statements writing `fields` as a JSON object into `w`; `access`
/// turns a field name into an expression of type `&FieldType`.
fn ser_fields(out: &mut String, fields: &[Field], access: impl Fn(&str) -> String) {
    // `sep` tracks at expansion time whether a comma is needed: known
    // until the first skippable field, decided at run time after it —
    // and known again once an unconditional field has been written.
    #[derive(PartialEq)]
    enum Sep {
        First,
        Comma,
        Runtime,
    }
    let mut sep = Sep::First;
    out.push_str("w.write_all(b\"{\")?; let mut first = true;");
    for f in fields {
        let value = access(&f.name);
        let key = match sep {
            Sep::First => format!("w.write_all(b\"\\\"{}\\\":\")?;", f.name),
            Sep::Comma => format!("w.write_all(b\",\\\"{}\\\":\")?;", f.name),
            Sep::Runtime => format!(
                "if !first {{ w.write_all(b\",\")?; }} w.write_all(b\"\\\"{}\\\":\")?;",
                f.name
            ),
        };
        let write = format!("{key} first = false; ::serde::Serialize::serialize({value}, w)?;");
        match &f.skip_if {
            Some(path) => {
                let _ = write!(out, "if !{path}({value}) {{ {write} }}");
                if sep == Sep::First {
                    sep = Sep::Runtime;
                }
            }
            None => {
                out.push_str(&write);
                sep = Sep::Comma;
            }
        }
    }
    out.push_str("let _ = first; w.write_all(b\"}\")?;");
}

/// An expression of type `Result<T, Error>` reading a JSON object into
/// `ctor { fields.. }`.
fn de_fields(out: &mut String, ctor: &str, fields: &[Field]) {
    out.push('{');
    for f in fields {
        let _ = write!(out, "let mut f_{} = ::std::option::Option::None;", f.name);
    }
    out.push_str(
        "p.expect(b'{')?; let mut first = true; \
         while let ::std::option::Option::Some(key) = p.next_key(&mut first)? { match &*key {",
    );
    for f in fields {
        let _ = write!(
            out,
            "\"{0}\" => f_{0} = ::std::option::Option::Some(::serde::Deserialize::deserialize(p)?),",
            f.name
        );
    }
    let _ = write!(
        out,
        "_ => p.skip_value()?, }} }} \
         ::std::result::Result::<_, ::serde::json::Error>::Ok({ctor} {{"
    );
    for f in fields {
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!("::serde::Deserialize::missing(\"{}\")?", f.name)
        };
        let _ = write!(
            out,
            "{0}: match f_{0} {{ ::std::option::Option::Some(v) => v, \
             ::std::option::Option::None => {missing} }},",
            f.name
        );
    }
    out.push_str("}) }");
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let mut body = String::new();
    match &item.body {
        Body::Struct(fields) => ser_fields(&mut body, fields, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            body.push_str("match self {");
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        let _ = write!(body, "{name}::{vn} => w.write_all(b\"\\\"{vn}\\\"\")?,");
                    }
                    Shape::Newtype => {
                        let _ = write!(
                            body,
                            "{name}::{vn}(v) => {{ w.write_all(b\"{{\\\"{vn}\\\":\")?; \
                             ::serde::Serialize::serialize(v, w)?; w.write_all(b\"}}\")?; }}"
                        );
                    }
                    Shape::Struct(fields) => {
                        // Bound as `f_<name>` so a field cannot shadow `w`.
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{0}: f_{0}", f.name))
                            .collect();
                        let _ = write!(
                            body,
                            "{name}::{vn} {{ {} }} => {{ w.write_all(b\"{{\\\"{vn}\\\":\")?;",
                            binds.join(", ")
                        );
                        ser_fields(&mut body, fields, |f| format!("f_{f}"));
                        body.push_str("w.write_all(b\"}\")?; }");
                    }
                }
            }
            body.push('}');
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{ \
         #[allow(unused_assignments, unused_variables, unused_mut)] \
         fn serialize<W: ::std::io::Write>(&self, w: &mut W) -> ::std::io::Result<()> {{ \
         {body} ::std::result::Result::Ok(()) }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let mut body = String::new();
    match &item.body {
        Body::Struct(fields) => de_fields(&mut body, name, fields),
        Body::Enum(variants) => {
            // A bare string names a unit variant; an object holds
            // exactly one `"Variant": payload` entry.
            body.push_str(
                "if p.peek() == ::std::option::Option::Some(b'\"') { \
                 let tag = p.parse_str()?; return match &*tag {",
            );
            for v in variants.iter().filter(|v| matches!(v.shape, Shape::Unit)) {
                let _ = write!(
                    body,
                    "\"{0}\" => ::std::result::Result::Ok({name}::{0}),",
                    v.name
                );
            }
            let _ = write!(
                body,
                "other => ::std::result::Result::Err(p.error(format!(\"unknown unit variant `{{other}}` of {name}\"))), }}; }} \
                 p.expect(b'{{')?; let mut first = true; \
                 let ::std::option::Option::Some(tag) = p.next_key(&mut first)? else {{ \
                 return ::std::result::Result::Err(p.error(\"expected a variant of {name}\")); }}; \
                 let value = match &*tag {{"
            );
            for v in variants {
                let vn = &v.name;
                let _ = write!(body, "\"{vn}\" => ");
                match &v.shape {
                    Shape::Unit => {
                        let _ = write!(
                            body,
                            "{{ if !p.eat_null()? {{ return ::std::result::Result::Err(p.error(\"unit variant takes null\")); }} {name}::{vn} }},"
                        );
                    }
                    Shape::Newtype => {
                        let _ =
                            write!(body, "{name}::{vn}(::serde::Deserialize::deserialize(p)?),");
                    }
                    Shape::Struct(fields) => {
                        body.push('(');
                        de_fields(&mut body, &format!("{name}::{vn}"), fields);
                        body.push_str(")?,");
                    }
                }
            }
            let _ = write!(
                body,
                "other => return ::std::result::Result::Err(p.error(format!(\"unknown variant `{{other}}` of {name}\"))), }}; \
                 if p.next_key(&mut first)?.is_some() {{ \
                 return ::std::result::Result::Err(p.error(\"expected a single-entry enum object\")); }} \
                 ::std::result::Result::Ok(value)"
            );
        }
    }
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
         fn deserialize(p: &mut ::serde::json::Parser<'de>) \
         -> ::std::result::Result<Self, ::serde::json::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl parses")
}
