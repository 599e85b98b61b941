//! Minimal vendored `serde` core for offline builds.
//!
//! This is not wire-compatible with upstream serde's zero-copy
//! architecture: `Serialize` renders into an owned [`Value`] tree and
//! `Deserialize` reads back out of one. The workspace only needs
//! self-consistent JSON round-trips (model checkpoints, dataset caches,
//! workload snapshots), for which this is sufficient and dependency-free.
//!
//! The derive macros live in the companion `serde_derive` shim and target
//! exactly this API: [`Value`], [`Error`], [`get_field`],
//! [`Value::expect_map`] and [`Value::expect_seq`].

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like document tree.
///
/// Integers keep a dedicated representation (`UInt`/`Int`) so `u64` seeds
/// and indices round-trip exactly instead of passing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Int(i64),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error (also re-used by `serde_json`).
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Names the value's JSON kind and size, for error messages: an
    /// error never echoes a whole subtree, which may be megabytes long.
    pub fn describe(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => format!("the bool {b}"),
            Value::UInt(u) => format!("the integer {u}"),
            Value::Int(i) => format!("the integer {i}"),
            Value::Float(f) => format!("the number {f:?}"),
            Value::Str(s) => format!("a string of {} bytes", s.len()),
            Value::Seq(items) => format!("a sequence of {} items", items.len()),
            Value::Map(entries) => format!("a map of {} entries", entries.len()),
        }
    }

    /// The error for finding this value where `expected` was wanted.
    fn unexpected(&self, expected: &str) -> Error {
        Error::msg(format!("expected {expected}, found {}", self.describe()))
    }

    pub fn expect_map(&self, what: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Map(m) => Ok(m),
            other => Err(other.unexpected(&format!("map for {what}"))),
        }
    }

    pub fn expect_seq(&self, what: &str) -> Result<&[Value], Error> {
        match self {
            Value::Seq(s) => Ok(s),
            other => Err(other.unexpected(&format!("sequence for {what}"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, Error> {
        match self {
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Null => Ok(f64::NAN),
            other => Err(other.unexpected(&format!("number for {what}"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, Error> {
        match self {
            Value::UInt(u) => Ok(*u),
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Ok(*f as u64),
            other => Err(other.unexpected(&format!("unsigned integer for {what}"))),
        }
    }

    fn as_i64(&self, what: &str) -> Result<i64, Error> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Ok(*u as i64),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(other.unexpected(&format!("integer for {what}"))),
        }
    }
}

/// Renders a value into a [`Value`] tree.
pub trait Serialize {
    fn serialize(&self) -> Value;
}

/// Reconstructs a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// Reconstructs a value from a tree it may consume. The default
    /// borrows the tree; [`Value`] takes it whole instead of cloning it.
    fn deserialize_owned(v: Value) -> Result<Self, Error> {
        Self::deserialize(&v)
    }
}

/// Looks up a struct field by name (used by the derive macros).
pub fn get_field<T: Deserialize>(map: &[(String, Value)], key: &str, ty: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::deserialize(v),
        None => Err(Error::msg(format!("missing field `{key}` for {ty}"))),
    }
}

// ---------- primitive impls ----------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64(stringify!($t))?;
                <$t>::try_from(u).map_err(|_| Error::msg(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value { Value::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64(stringify!($t))?;
                <$t>::try_from(i).map_err(|_| Error::msg(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64("f32")? as f32)
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64("f64")
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(other.unexpected("bool")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(other.unexpected("string")),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.expect_seq("Vec")?.iter().map(T::deserialize).collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        T::deserialize(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let s = v.expect_seq("tuple")?;
                let n = [$($idx),+].len();
                if s.len() != n {
                    return Err(Error::msg(format!("expected {n}-tuple, found {} elements", s.len())));
                }
                Ok(($($t::deserialize(&s[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn deserialize_owned(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_errors_name_kind_and_size_only() {
        let big = Value::Seq(vec![Value::UInt(7); 100_000]);
        let err = big.expect_map("estimate body").expect_err("not a map");
        assert_eq!(
            err.to_string(),
            "serde: expected map for estimate body, found a sequence of 100000 items"
        );
        let err = f32::deserialize(&Value::Str("x".repeat(1 << 20))).expect_err("not a number");
        assert_eq!(
            err.to_string(),
            "serde: expected number for f32, found a string of 1048576 bytes"
        );
    }
}
