//! The derive's absent-key rules where the old-shape wire corpus cannot
//! reach them: struct variants, present `null`s, and the error text for a
//! missing required field.

use serde::{Deserialize, Value};

fn object(pairs: &[(&str, Value)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn two() -> u64 {
    2
}

#[derive(Debug, PartialEq, Deserialize)]
struct Flags {
    id: u64,
    note: Option<String>,
    #[serde(default)]
    on: bool,
    #[serde(default = "two")]
    n: u64,
}

#[derive(Debug, PartialEq, Deserialize)]
enum Shape {
    Dot,
    Flags {
        id: u64,
        note: Option<String>,
        #[serde(default)]
        on: bool,
        #[serde(default = "two")]
        n: u64,
    },
}

#[test]
fn struct_variant_fields_follow_the_same_rules() {
    let v = object(&[("Flags", object(&[("id", Value::UInt(1))]))]);
    let want = Shape::Flags {
        id: 1,
        note: None,
        on: false,
        n: 2,
    };
    assert_eq!(Shape::from_value(&v).unwrap(), want);
    assert_eq!(
        Shape::from_value(&Value::Str("Dot".to_string())).unwrap(),
        Shape::Dot
    );
    let v = object(&[("Flags", object(&[]))]);
    let err = Shape::from_value(&v).unwrap_err();
    assert_eq!(err.to_string(), "deserialization error: missing field `id`");
}

#[test]
fn a_present_null_is_decoded_not_defaulted() {
    // `null` is a value, not an absent key: an `Option` reads it as
    // `None`, a defaulted `bool` or `u64` refuses it.
    let with = |key: &str| object(&[("id", Value::UInt(1)), (key, Value::Null)]);
    assert_eq!(Flags::from_value(&with("note")).unwrap().note, None);
    assert!(Flags::from_value(&with("on")).is_err());
    assert!(Flags::from_value(&with("n")).is_err());
}

#[test]
fn a_missing_required_field_is_named_in_the_error() {
    let err = Flags::from_value(&object(&[("on", Value::Bool(true))])).unwrap_err();
    assert_eq!(err.to_string(), "deserialization error: missing field `id`");
}
