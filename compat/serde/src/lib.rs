//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build environment has no registry access, so instead of the real
//! serde (visitor machinery + proc-macro stack) the workspace vendors a
//! much smaller model of the same two traits:
//!
//! - [`Serialize`] writes a value through a [`Sink`]: scalars, and arrays
//!   and objects opened and closed around their elements and keys.
//!   `serde_json`'s writer is the one sink, so a value goes straight to
//!   JSON text.
//! - [`Deserialize`] reads a value from a [`Source`]: `serde_json`'s
//!   parser reading JSON text, or a [`Value`] tree. The impl is one body
//!   for both, so [`Deserialize::from_value`] reads a tree with exactly
//!   the rules, and the error texts, that `serde_json::from_str` applies
//!   to text.
//!
//! [`Value`] stays as a plain JSON-shaped data type, for callers that
//! build or inspect trees. `#[derive(Serialize, Deserialize)]` is provided
//! by the sibling `serde_derive` proc-macro (enabled by the `derive`
//! feature, like upstream).
//!
//! The wire format is self-consistent (everything the workspace writes it
//! can read back) but intentionally *not* byte-compatible with upstream
//! serde_json; nothing in the repo depends on the exact bytes, only on
//! round-tripping.
//!
//! ## Reading rules
//!
//! A derived `Deserialize` for a named struct reads an object's keys in
//! any order. The first occurrence of a key is the one decoded; a later
//! duplicate, and any key the struct does not declare, is skipped (a
//! text source still checks its syntax). A value that is not an object
//! reads as an object with no keys. When several fields fail, the error
//! of the first *declared* one is reported, whatever the key order; a
//! syntax error anywhere in the text wins over every type error.
//!
//! ## Absent keys
//!
//! When a named field's key is absent, the field's type answers through
//! [`Deserialize::from_missing`]: an `Option` is `None` (upstream serde's
//! rule), anything else is the error ``missing field `name` ``. Two field
//! attributes, the only ones the derive reads, replace that answer:
//! `#[serde(default)]` takes `Default::default()` and
//! `#[serde(default = "path")]` calls `path()`. A present `null` is not
//! an absent key, so `null` for a `#[serde(default)] bool` is still an
//! error.
#![cfg_attr(
    feature = "derive",
    doc = r#"
```
use serde::{Deserialize, Value};

#[derive(Debug, PartialEq, Deserialize)]
struct Hello {
    id: u64,
    note: Option<String>,
    #[serde(default)]
    verbose: bool,
}

let old = Value::Object(vec![("id".to_string(), Value::UInt(7))]);
let hello = Hello { id: 7, note: None, verbose: false };
assert_eq!(Hello::from_value(&old).unwrap(), hello);
```

Any other `serde` attribute is a compile error, never silently ignored:

```compile_fail
#[derive(serde::Deserialize)]
struct Renamed {
    #[serde(rename = "x")]
    y: u64,
}
```
"#
)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree.
///
/// Integers keep their signedness ([`Value::Int`] / [`Value::UInt`]) so
/// `u64::MAX` survives a round trip exactly; floats are stored as `f64`
/// and rendered with Rust's shortest-round-trip formatting, so they also
/// survive exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(f) => Some(f),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Field lookup by name on an object value.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|f| f.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v)
    }
}

/// Deserialization error: a human-readable path/expectation mismatch.
#[derive(Clone, Debug)]
pub struct DeError(String);

impl DeError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl fmt::Display) -> Self {
        DeError(m.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Where a [`Serialize`] impl writes to. An array is `begin_array`, then
/// `element` before each element's value, then `end_array`; an object is
/// `begin_object`, then `key` before each value, then `end_object`.
pub trait Sink {
    /// `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn int(&mut self, n: i64);
    /// An unsigned integer.
    fn uint(&mut self, n: u64);
    /// A float; a non-finite one is written as `null`.
    fn float(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Open an array.
    fn begin_array(&mut self);
    /// Start the array's next element.
    fn element(&mut self);
    /// Close the array.
    fn end_array(&mut self);
    /// Open an object.
    fn begin_object(&mut self);
    /// Start the object's next entry, named `key`.
    fn key(&mut self, key: &str);
    /// Close the object.
    fn end_object(&mut self);
}

/// Conversion to JSON, written through a [`Sink`].
pub trait Serialize {
    /// Write `self` to `out`.
    fn serialize<W: Sink>(&self, out: &mut W);
}

/// Write `items` as an array.
fn serialize_seq<W: Sink>(items: impl IntoIterator<Item = impl Serialize>, out: &mut W) {
    out.begin_array();
    for item in items {
        out.element();
        item.serialize(out);
    }
    out.end_array();
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// The next value in a [`Source`]: a scalar, read whole, or the start of
/// an array or object, which [`Source::open`] then enters.
#[derive(Debug)]
pub enum Token<'de> {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A negative integer (or `-0`).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(Cow<'de, str>),
    /// An array, not yet entered.
    Array,
    /// An object, not yet entered.
    Object,
}

/// Where a [`Deserialize`] impl reads from: JSON text (`serde_json`'s
/// parser) or a [`Value`] tree.
///
/// Every impl reads its whole value, also when it fails with a type
/// error: the struct reader goes on to the next key from there. A text
/// source records its first syntax error and fails every later call, so
/// the caller reports that error whatever the impls made of it.
pub trait Source<'de> {
    /// A saved position (see [`rewind`](Source::rewind)).
    type Mark: Copy;

    /// Read the next value's scalar, or see that an array or object
    /// starts there.
    fn token(&mut self) -> Result<Token<'de>, DeError>;

    /// If the next value is `null`, read it and answer `true`.
    fn null(&mut self) -> Result<bool, DeError>;

    /// Enter the array or object [`token`](Source::token) just saw.
    fn open(&mut self) -> Result<(), DeError>;

    /// In an entered array: whether another element follows (`first`
    /// for the first call). `false` leaves the array.
    fn next_element(&mut self, first: bool) -> Result<bool, DeError>;

    /// In an entered object: the next key, its value to be read next
    /// (`first` for the first call). `None` leaves the object.
    fn next_key(&mut self, first: bool) -> Result<Option<Cow<'de, str>>, DeError>;

    /// The current position.
    fn mark(&self) -> Self::Mark;

    /// Go back to a position saved by [`mark`](Source::mark) in the same
    /// value, to read that value again.
    fn rewind(&mut self, mark: Self::Mark);

    /// In an array just entered: read its leading elements that are
    /// plain unsigned-integer literals (decimal digits that `token` would
    /// read as [`Token::UInt`]) no greater than `max`, handing each to
    /// `push`. Answers whether the array ended there (it is then left, as
    /// [`next_element`](Source::next_element) leaves it). Otherwise the
    /// source stands where `next_element` reads the next element, so the
    /// caller goes on one element at a time.
    ///
    /// Only a speed-up: the default reads no element, and every value,
    /// error and syntax check stays the per-element path's.
    fn uint_run(&mut self, _max: u64, _push: impl FnMut(u64)) -> bool {
        false
    }

    /// Skip the value of a key the struct being read does not declare.
    fn skip_unknown(&mut self, _key: Cow<'de, str>) -> Result<(), DeError> {
        self.skip()
    }

    /// Skip the next value.
    fn skip(&mut self) -> Result<(), DeError> {
        let t = self.token()?;
        self.discard(t)
    }

    /// Skip the rest of the value `t` starts.
    fn discard(&mut self, t: Token<'de>) -> Result<(), DeError> {
        match t {
            Token::Array => {
                self.open()?;
                let mut first = true;
                while self.next_element(first)? {
                    first = false;
                    self.skip()?;
                }
            }
            Token::Object => {
                self.open()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Read the next value as a tree.
    fn value(&mut self) -> Result<Value, DeError> {
        let t = self.token()?;
        self.got(t)
    }

    /// The tree of the value `t` starts, reading the rest of it. Type
    /// errors quote it (`expected bool, got Str("x")`).
    fn got(&mut self, t: Token<'de>) -> Result<Value, DeError> {
        Ok(match t {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Int(n) => Value::Int(n),
            Token::UInt(n) => Value::UInt(n),
            Token::Float(f) => Value::Float(f),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Array => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_element(items.is_empty())? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Token::Object => {
                self.open()?;
                let mut fields = Vec::new();
                while let Some(k) = self.next_key(fields.is_empty())? {
                    fields.push((k.into_owned(), self.value()?));
                }
                Value::Object(fields)
            }
        })
    }
}

/// Conversion from JSON, read from a [`Source`].
pub trait Deserialize: Sized {
    /// Read one value from `src`.
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError>;

    /// The value of a struct field whose key is absent: an error unless
    /// the type has an answer (`Option` reads as `None`). A derived
    /// `Deserialize` asks this for every absent field without a
    /// `#[serde(default)]` attribute.
    fn from_missing(field: &str) -> Result<Self, DeError> {
        Err(DeError::msg(format!("missing field `{field}`")))
    }

    /// Read the elements of an entered array, each a `Self`, as
    /// `Vec<Self>` does. The default reads them one by one; the unsigned
    /// integers first take a run of plain literals through
    /// [`Source::uint_run`].
    fn read_seq<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<Self>, DeError> {
        read_items(src, Vec::new())
    }

    /// Read a value tree, through the same [`deserialize`] body.
    ///
    /// [`deserialize`]: Deserialize::deserialize
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::deserialize(&mut TreeSource {
            next: Some(v),
            open: Vec::new(),
        })
    }
}

/// A [`Source`] over a [`Value`] tree.
struct TreeSource<'v> {
    /// The value to read next.
    next: Option<&'v Value>,
    /// The arrays and objects entered, innermost last.
    open: Vec<Entered<'v>>,
}

enum Entered<'v> {
    Array(std::slice::Iter<'v, Value>),
    Object(std::slice::Iter<'v, (String, Value)>),
}

fn misuse() -> DeError {
    DeError::msg("value tree read out of order")
}

impl<'v> Source<'v> for TreeSource<'v> {
    type Mark = (usize, Option<&'v Value>);

    fn token(&mut self) -> Result<Token<'v>, DeError> {
        let v = self.next.ok_or_else(misuse)?;
        let t = match v {
            Value::Array(_) => return Ok(Token::Array),
            Value::Object(_) => return Ok(Token::Object),
            Value::Null => Token::Null,
            Value::Bool(b) => Token::Bool(*b),
            Value::Int(n) => Token::Int(*n),
            Value::UInt(n) => Token::UInt(*n),
            Value::Float(f) => Token::Float(*f),
            Value::Str(s) => Token::Str(Cow::Borrowed(s)),
        };
        self.next = None;
        Ok(t)
    }

    fn null(&mut self) -> Result<bool, DeError> {
        let null = matches!(self.next, Some(Value::Null));
        if null {
            self.next = None;
        }
        Ok(null)
    }

    fn open(&mut self) -> Result<(), DeError> {
        let entered = match self.next.take() {
            Some(Value::Array(items)) => Entered::Array(items.iter()),
            Some(Value::Object(fields)) => Entered::Object(fields.iter()),
            _ => return Err(misuse()),
        };
        self.open.push(entered);
        Ok(())
    }

    fn next_element(&mut self, _first: bool) -> Result<bool, DeError> {
        let Some(Entered::Array(items)) = self.open.last_mut() else {
            return Err(misuse());
        };
        self.next = items.next();
        if self.next.is_none() {
            self.open.pop();
        }
        Ok(self.next.is_some())
    }

    fn next_key(&mut self, _first: bool) -> Result<Option<Cow<'v, str>>, DeError> {
        let Some(Entered::Object(fields)) = self.open.last_mut() else {
            return Err(misuse());
        };
        match fields.next() {
            Some((k, v)) => {
                self.next = Some(v);
                Ok(Some(Cow::Borrowed(k)))
            }
            None => {
                self.open.pop();
                Ok(None)
            }
        }
    }

    fn mark(&self) -> Self::Mark {
        (self.open.len(), self.next)
    }

    fn rewind(&mut self, (depth, next): Self::Mark) {
        self.open.truncate(depth);
        self.next = next;
    }
}

/// Read a named struct's object from `src`, handing the index (in
/// `names`) of each declared key's first occurrence to `field`, which
/// reads its value. Duplicates and undeclared keys are skipped. A value
/// that is not an object is skipped whole: every field reads as absent.
///
/// `field` keeps its field's outcome, error or not, for the caller to
/// report in declaration order. The `Err` here is the source's own
/// failure, a syntax error.
pub fn read_fields<'de, S: Source<'de>>(
    src: &mut S,
    names: &[&str],
    mut field: impl FnMut(&mut S, usize),
) -> Result<(), DeError> {
    assert!(names.len() <= 64, "read_fields tracks at most 64 fields");
    let t = src.token()?;
    if !matches!(t, Token::Object) {
        return src.discard(t);
    }
    src.open()?;
    let mut seen = 0u64;
    let mut first = true;
    while let Some(key) = src.next_key(first)? {
        first = false;
        match names.iter().position(|n| *n == key) {
            Some(i) if seen & (1 << i) == 0 => {
                seen |= 1 << i;
                field(src, i);
            }
            Some(_) => src.skip()?,
            None => src.skip_unknown(key)?,
        }
    }
    Ok(())
}

/// The type error "expected `what`, got <the value `t` starts>", read
/// to its end.
fn unexpected<'de, S: Source<'de>>(src: &mut S, what: &str, t: Token<'de>) -> DeError {
    match src.got(t) {
        Ok(v) => DeError::msg(format!("expected {what}, got {v:?}")),
        Err(e) => e,
    }
}

/// Enter the array `src` holds next, or fail with [`unexpected`].
fn open_array<'de, S: Source<'de>>(src: &mut S, what: &str) -> Result<(), DeError> {
    match src.token()? {
        Token::Array => src.open(),
        t => Err(unexpected(src, what, t)),
    }
}

/// Read the elements of an entered array from index `len` on, handing
/// each index to `element` until one fails; the rest are skipped.
/// Answers the element count and the first failure.
fn read_elements<'de, S: Source<'de>>(
    src: &mut S,
    mut len: usize,
    mut element: impl FnMut(&mut S, usize) -> Result<(), DeError>,
) -> Result<(usize, Option<DeError>), DeError> {
    let mut failed = None;
    while src.next_element(len == 0)? {
        if failed.is_none() {
            failed = element(src, len).err();
        } else {
            src.skip()?;
        }
        len += 1;
    }
    Ok((len, failed))
}

/// Read a fixed-length array: `element` reads the first `arity`
/// elements. A value that is not an array fails with `not_array(value)`
/// and any other length with `wrong_arity(len)`, before any element's
/// own error.
pub fn read_tuple<'de, S: Source<'de>>(
    src: &mut S,
    arity: usize,
    not_array: impl FnOnce(Value) -> String,
    wrong_arity: impl FnOnce(usize) -> String,
    mut element: impl FnMut(&mut S, usize) -> Result<(), DeError>,
) -> Result<(), DeError> {
    let t = src.token()?;
    if !matches!(t, Token::Array) {
        let v = src.got(t)?;
        return Err(DeError::msg(not_array(v)));
    }
    src.open()?;
    let (len, failed) = read_elements(src, 0, |src, i| {
        if i < arity {
            element(src, i)
        } else {
            src.skip()
        }
    })?;
    if len != arity {
        return Err(DeError::msg(wrong_arity(len)));
    }
    failed.map_or(Ok(()), Err)
}

/// Read an enum: a unit variant as its bare name, looked up by `unit`; a
/// payload variant as a one-key object whose key `payload` looks up and
/// whose value it reads (`None`: no such payload variant).
pub fn read_enum<'de, S: Source<'de>, T>(
    src: &mut S,
    name: &str,
    unit: impl FnOnce(&str) -> Option<T>,
    payload: impl FnOnce(&mut S, &str) -> Option<Result<T, DeError>>,
) -> Result<T, DeError> {
    let mark = src.mark();
    let t = src.token()?;
    match t {
        Token::Str(s) => {
            unit(&s).ok_or_else(|| DeError::msg(format!("unknown unit variant {s} for {name}")))
        }
        Token::Object => {
            src.open()?;
            if let Some(tag) = src.next_key(true)? {
                let read = match payload(src, &tag) {
                    Some(read) => read,
                    None => {
                        src.skip()?;
                        Err(DeError::msg(format!("unknown variant {tag} for {name}")))
                    }
                };
                if src.next_key(false)?.is_none() {
                    return read;
                }
                src.skip()?;
                while src.next_key(false)?.is_some() {
                    src.skip()?;
                }
            }
            // Not one key: quote the whole object.
            src.rewind(mark);
            let v = src.value()?;
            Err(DeError::msg(format!("bad enum encoding for {name}: {v:?}")))
        }
        t => {
            let v = src.got(t)?;
            Err(DeError::msg(format!("bad enum encoding for {name}: {v:?}")))
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn serialize<W: Sink>(&self, out: &mut W) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        match src.token()? {
            Token::Bool(b) => Ok(b),
            t => Err(unexpected(src, "bool", t)),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Sink>(&self, out: &mut W) {
                out.uint(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                let n = match src.token()? {
                    Token::UInt(n) => n,
                    Token::Int(n) if n >= 0 => n as u64,
                    t => return Err(unexpected(src, "unsigned integer", t)),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }

            fn read_seq<'de, S: Source<'de>>(src: &mut S) -> Result<Vec<Self>, DeError> {
                let mut items = Vec::new();
                let ended = src.uint_run(<$t>::MAX as u64, |n| {
                    reserve_first(&mut items);
                    // `uint_run` hands over nothing above `MAX`.
                    items.push(n as $t);
                });
                if ended {
                    return Ok(items);
                }
                read_items(src, items)
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Sink>(&self, out: &mut W) {
                out.int(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                let n = match src.token()? {
                    Token::Int(n) => n,
                    Token::UInt(n) => i64::try_from(n)
                        .map_err(|_| DeError::msg(format!("{n} out of i64 range")))?,
                    t => return Err(unexpected(src, "integer", t)),
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Sink>(&self, out: &mut W) {
                out.float(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                match src.token()? {
                    Token::Float(f) => Ok(f as $t),
                    Token::Int(n) => Ok(n as $t),
                    Token::UInt(n) => Ok(n as $t),
                    // JSON cannot carry non-finite floats; they are
                    // written as null and come back as NaN.
                    Token::Null => Ok(<$t>::NAN),
                    t => Err(unexpected(src, "number", t)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize<W: Sink>(&self, out: &mut W) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        match src.token()? {
            Token::Str(s) => Ok(s.into_owned()),
            t => Err(unexpected(src, "string", t)),
        }
    }
}

impl Serialize for str {
    fn serialize<W: Sink>(&self, out: &mut W) {
        out.str(self);
    }
}

impl Serialize for char {
    fn serialize<W: Sink>(&self, out: &mut W) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        let s = String::deserialize(src)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected single char, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: Sink>(&self, out: &mut W) {
        (**self).serialize(out);
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: Sink>(&self, out: &mut W) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        if src.null()? {
            return Ok(None);
        }
        T::deserialize(src).map(Some)
    }

    fn from_missing(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: Sink>(&self, out: &mut W) {
        serialize_seq(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: Sink>(&self, out: &mut W) {
        serialize_seq(self, out);
    }
}

/// Text does not say how long an array is, so the first element
/// reserves 64 bytes' worth: a wire route of up to 16 node ids then
/// allocates once, where growing from `Vec`'s usual 4 would allocate
/// three times.
fn reserve_first<T>(items: &mut Vec<T>) {
    if items.capacity() == 0 {
        items.reserve(64 / std::mem::size_of::<T>().max(1));
    }
}

/// Read the rest of an entered array, each element a `T`, after the
/// `items` already read from it.
fn read_items<'de, S: Source<'de>, T: Deserialize>(
    src: &mut S,
    mut items: Vec<T>,
) -> Result<Vec<T>, DeError> {
    let (_, failed) = read_elements(src, items.len(), |src, _| {
        reserve_first(&mut items);
        items.push(T::deserialize(src)?);
        Ok(())
    })?;
    failed.map_or(Ok(items), Err)
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        open_array(src, "array")?;
        T::read_seq(src)
    }
}

// Shared slices serialize like the sequences they deref to (upstream
// serde's `rc` feature). Hot-path packet payloads use `Arc<[T]>` so a
// fan-out clone is a refcount bump, not an allocation.
impl<T: Serialize> Serialize for std::sync::Arc<[T]> {
    fn serialize<W: Sink>(&self, out: &mut W) {
        serialize_seq(self.iter(), out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        Vec::<T>::deserialize(src).map(Into::into)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<W: Sink>(&self, out: &mut W) {
                out.begin_array();
                $(
                    out.element();
                    self.$idx.serialize(out);
                )+
                out.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
                let expect = [$($idx),+].len();
                let mut slots = ($(None::<$name>,)+);
                read_tuple(
                    src,
                    expect,
                    |v| format!("expected tuple array, got {v:?}"),
                    |len| format!("expected {expect}-tuple, got {len} elements"),
                    |src, i| {
                        match i {
                            $($idx => slots.$idx = Some($name::deserialize(src)?),)+
                            _ => unreachable!("read_tuple reads {expect} elements"),
                        }
                        Ok(())
                    },
                )?;
                Ok(($(slots.$idx.expect("every element read"),)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// Maps serialize as arrays of [key, value] pairs so non-string keys (e.g.
// `Link`) work without a string-key convention.
impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize<W: Sink>(&self, out: &mut W) {
        serialize_seq(self, out);
    }
}

impl<K, V, H> Deserialize for HashMap<K, V, H>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    H: BuildHasher + Default,
{
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        open_array(src, "map pair array")?;
        read_items::<S, (K, V)>(src, Vec::new()).map(|pairs| pairs.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<W: Sink>(&self, out: &mut W) {
        serialize_seq(self, out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        open_array(src, "map pair array")?;
        read_items::<S, (K, V)>(src, Vec::new()).map(|pairs| pairs.into_iter().collect())
    }
}

impl Serialize for Value {
    fn serialize<W: Sink>(&self, out: &mut W) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(n) => out.int(*n),
            Value::UInt(n) => out.uint(*n),
            Value::Float(f) => out.float(*f),
            Value::Str(s) => out.str(s),
            Value::Array(items) => serialize_seq(items, out),
            Value::Object(fields) => {
                out.begin_object();
                for (k, v) in fields {
                    out.key(k);
                    v.serialize(out);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        src.value()
    }
}
