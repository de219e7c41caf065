//! Minimal offline stand-in for `serde` (+ `serde_derive`).
//!
//! The build environment has no crates.io access, so this shim provides a
//! self-describing value model ([`Value`]) and the two traits the workspace
//! derives everywhere: [`Serialize`] (type → [`Value`]) and [`Deserialize`]
//! ([`Value`] → type). The derive macros re-exported here (from the
//! `serde_derive_shim` proc-macro crate) cover the shapes used in-tree:
//! named structs, newtype/tuple structs, unit-variant enums, and
//! internally-tagged enums with struct variants
//! (`#[serde(tag = "...", rename_all = "snake_case")]`).
//!
//! The `serde_json` shim renders [`Value`] to/from JSON text with the same
//! conventions as the real crates (newtype structs are transparent, unit
//! enum variants are strings, `Option` is `null`/value), so data written by
//! this shim parses under real serde_json and vice versa for the types used
//! here.

pub use serde_derive_shim::{Deserialize, Serialize};

/// A self-describing tree value — the interchange point between the derive
/// macros and the JSON front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object as an ordered field list (insertion order is preserved so
    /// serialised output is deterministic).
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Look up a field of an object. Missing fields resolve to `Null` so
    /// that `Option` fields deserialise to `None`; non-object values error.
    pub fn field(&self, name: &str) -> Result<&Value, DeError> {
        match self {
            Value::Object(fields) => Ok(fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL)),
            other => Err(DeError::new(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a string slice, or an error.
    pub fn as_str(&self) -> Result<&str, DeError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DeError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as an array slice, or an error.
    pub fn as_array(&self) -> Result<&[Value], DeError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(DeError::new(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// Human-readable kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialisation error: a message describing the mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Build an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Types renderable into a [`Value`] (shim of `serde::Serialize`).
pub trait Serialize {
    /// Render `self` as a tree value.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`] (shim of `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Reconstruct a value of `Self`, or describe why the input can't be.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Shared pointers serialise as their pointee, like real serde's `rc`
/// feature: serialising through an `Arc` borrows the value instead of
/// copying it.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as i128;
                if wide >= i64::MIN as i128 && wide <= i64::MAX as i128 {
                    Value::I64(wide as i64)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i128 = match v {
                    Value::I64(i) => *i as i128,
                    Value::U64(u) => *u as i128,
                    Value::F64(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(64) => *f as i128,
                    other => {
                        return Err(DeError::new(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(wide).map_err(|_| {
                    DeError::new(concat!("integer out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            other => Err(DeError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
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
        v.as_array()?.iter().map(T::from_value).collect()
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array()?;
                let expect = [$($i),+].len();
                if items.len() != expect {
                    return Err(DeError::new(format!(
                        "expected array of length {expect}, got {}",
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$i])?,)+))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(u32::from_value(&7u32.to_value()), Ok(7));
        assert_eq!(i64::from_value(&(-3i64).to_value()), Ok(-3));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn integers_widen_and_narrow_with_checks() {
        assert_eq!(f64::from_value(&Value::I64(4)), Ok(4.0));
        assert_eq!(u8::from_value(&Value::I64(255)), Ok(255));
        assert!(u8::from_value(&Value::I64(256)).is_err());
        assert!(u32::from_value(&Value::I64(-1)).is_err());
        assert_eq!(u64::from_value(&Value::U64(u64::MAX)), Ok(u64::MAX));
    }

    #[test]
    fn option_and_vec_and_tuple() {
        let v: Option<f64> = None;
        assert_eq!(v.to_value(), Value::Null);
        assert_eq!(Option::<f64>::from_value(&Value::Null), Ok(None));
        let xs = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&xs.to_value()), Ok(xs));
        let t = (1u32, 0.5f64);
        assert_eq!(<(u32, f64)>::from_value(&t.to_value()), Ok(t));
    }

    #[test]
    fn arc_is_transparent() {
        let shared = std::sync::Arc::new(vec![1u32, 2]);
        assert_eq!(shared.to_value(), vec![1u32, 2].to_value());
        assert_eq!(
            std::sync::Arc::<Vec<u32>>::from_value(&shared.to_value()),
            Ok(shared)
        );
    }

    #[test]
    fn missing_object_field_reads_as_null() {
        let obj = Value::Object(vec![("a".into(), Value::I64(1))]);
        assert_eq!(obj.field("a").unwrap(), &Value::I64(1));
        assert_eq!(obj.field("b").unwrap(), &Value::Null);
        assert!(Value::I64(3).field("a").is_err());
    }
}
