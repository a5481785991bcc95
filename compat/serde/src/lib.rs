//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! The build environment has no registry access, so instead of the real
//! serde (trait + visitor machinery + proc-macro stack) the workspace
//! vendors a much smaller model: every serializable type converts to and
//! from a JSON-shaped [`Value`] tree. `#[derive(Serialize, Deserialize)]`
//! is provided by the sibling `serde_derive` proc-macro (enabled by the
//! `derive` feature, like upstream), and `serde_json` renders/parses the
//! tree as JSON text.
//!
//! The wire format is self-consistent (everything the workspace writes it
//! can read back) but intentionally *not* byte-compatible with upstream
//! serde_json; nothing in the repo depends on the exact bytes, only on
//! round-tripping.
//!
//! ## Absent keys
//!
//! A derived `Deserialize` reads each named field from its key. When the
//! key is absent, the field's type answers through
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

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The JSON-shaped data model every serializable type maps onto.
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

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Serialize `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Conversion back from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// The value of a struct field whose key is absent: an error unless
    /// the type has an answer (`Option` reads as `None`). A derived
    /// `Deserialize` asks this for every absent field without a
    /// `#[serde(default)]` attribute.
    fn from_missing(field: &str) -> Result<Self, DeError> {
        Err(DeError::msg(format!("missing field `{field}`")))
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| DeError::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| DeError::msg(format!("{n} out of i64 range")))?,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
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
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    // JSON cannot carry non-finite floats; they are
                    // written as null and come back as NaN.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::msg(format!("expected number, got {other:?}"))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected single char, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::msg(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

// Shared slices serialize like the sequences they deref to (upstream
// serde's `rc` feature). Hot-path packet payloads use `Arc<[T]>` so a
// fan-out clone is a refcount bump, not an allocation.
impl<T: Serialize> Serialize for std::sync::Arc<[T]> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let a = v
                    .as_array()
                    .ok_or_else(|| DeError::msg(format!("expected tuple array, got {v:?}")))?;
                let expect = [$($idx),+].len();
                if a.len() != expect {
                    return Err(DeError::msg(format!(
                        "expected {expect}-tuple, got {} elements",
                        a.len()
                    )));
                }
                Ok(($($name::from_value(&a[$idx])?,)+))
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
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + Hash,
    V: Deserialize,
    S: BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_array()
            .ok_or_else(|| DeError::msg(format!("expected map pair array, got {v:?}")))?;
        let mut map = HashMap::with_capacity_and_hasher(pairs.len(), S::default());
        for p in pairs {
            let (k, v) = <(K, V)>::from_value(p)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_array()
            .ok_or_else(|| DeError::msg(format!("expected map pair array, got {v:?}")))?;
        let mut map = BTreeMap::new();
        for p in pairs {
            let (k, v) = <(K, V)>::from_value(p)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
