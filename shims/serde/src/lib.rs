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
//! [`Value::expect_map`] and [`Value::expect_seq`]. Hand-written impls
//! write large `f32` arrays as bit strings ([`f32_bits`],
//! [`f32s_from_bits`]).

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

/// Borrows a string field by name: `get_field` would copy it, and a bit
/// string may be megabytes long.
pub fn get_str_field<'a>(
    map: &'a [(String, Value)],
    key: &str,
    ty: &str,
) -> Result<&'a str, Error> {
    match map.iter().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Ok(s),
        Some((_, other)) => Err(Error::msg(format!(
            "expected a string for {ty} {key}, found {}",
            other.describe()
        ))),
        None => Err(Error::msg(format!("missing field `{key}` for {ty}"))),
    }
}

// ---------- f32 arrays as bit strings ----------

/// The two lowercase hex digits of every byte, most significant first.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [digits[b >> 4], digits[b & 0xf]];
        b += 1;
    }
    pairs
};

/// Marks a byte that is not a lowercase hex digit in [`NIBBLES`]; any
/// value above `0xf` would do.
const NOT_HEX: u8 = 0xff;

/// The value of every lowercase hex digit, [`NOT_HEX`] for other bytes.
const NIBBLES: [u8; 256] = {
    let mut nibbles = [NOT_HEX; 256];
    let mut d = 0;
    while d < 16 {
        nibbles[HEX_PAIRS[d][1] as usize] = d as u8;
        d += 1;
    }
    nibbles
};

/// Writes `values` as a bit string: each value's `f32` bit pattern as 8
/// lowercase hex digits, most significant first. That is exact for every
/// value (`-0.0`, subnormals and NaN payloads included), 8 bytes a value,
/// and formats no float.
pub fn f32_bits(values: &[f32]) -> Value {
    let mut hex = vec![0u8; 8 * values.len()];
    for (digits, v) in hex.chunks_exact_mut(8).zip(values) {
        for (pair, byte) in digits.chunks_exact_mut(2).zip(v.to_bits().to_be_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
        }
    }
    // Hex digits are ASCII, so the conversion cannot fail.
    Value::Str(String::from_utf8(hex).unwrap_or_default())
}

/// Why a bit string does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitsError {
    /// The string holds `bytes` bytes, not a whole number of values.
    Length { bytes: usize },
    /// Value `index` holds `byte`, which is not a lowercase hex digit.
    Digit { index: usize, byte: u8 },
}

impl std::fmt::Display for BitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitsError::Length { bytes } => {
                write!(f, "bits hold {bytes} bytes, not a multiple of 8")
            }
            BitsError::Digit { index, byte } => write!(
                f,
                "bits: value {index} holds a byte {byte:#04x} that is not a lowercase hex digit"
            ),
        }
    }
}

/// Reads a bit string written by [`f32_bits`] back, bit for bit.
pub fn f32s_from_bits(hex: &str) -> Result<Vec<f32>, BitsError> {
    let words = hex.as_bytes().chunks_exact(8);
    if !words.remainder().is_empty() {
        return Err(BitsError::Length { bytes: hex.len() });
    }
    let mut values = Vec::with_capacity(words.len());
    for (index, digits) in words.enumerate() {
        let mut bits = 0u32;
        let mut seen = 0u8;
        for &c in digits {
            let nibble = NIBBLES[usize::from(c)];
            seen |= nibble;
            bits = bits << 4 | u32::from(nibble & 0xf);
        }
        if seen > 0xf {
            let byte = digits
                .iter()
                .copied()
                .find(|&c| NIBBLES[usize::from(c)] == NOT_HEX)
                .unwrap_or_default();
            return Err(BitsError::Digit { index, byte });
        }
        values.push(f32::from_bits(bits));
    }
    Ok(values)
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

    #[test]
    fn f32_bits_round_trip_every_bit_pattern() {
        // Values whose bits a decimal round trip could lose or canonicalize.
        let values = [
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x807f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            f32::from_bits(0x7f80_0001),
            0.1,
            -1.5,
        ];
        let Value::Str(hex) = f32_bits(&values) else {
            panic!("a bit string is a string")
        };
        assert_eq!(hex.len(), 8 * values.len());
        // 0.0, -0.0 and the smallest subnormal.
        assert!(hex.starts_with("000000008000000000000001"), "{hex}");
        let back = f32s_from_bits(&hex).expect("decode");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        // Every byte value, as it lands in each digit position.
        let all: Vec<f32> = (0..=255u32)
            .map(|b| f32::from_bits(b << 24 | b << 16 | (255 - b) << 8 | b))
            .collect();
        let Value::Str(hex) = f32_bits(&all) else {
            panic!("a bit string is a string")
        };
        for (i, v) in all.iter().enumerate() {
            assert_eq!(hex[8 * i..8 * i + 8], format!("{:08x}", v.to_bits()));
        }
        assert_eq!(bits(&f32s_from_bits(&hex).expect("decode")), bits(&all));
        assert_eq!(f32_bits(&[]), Value::Str(String::new()));
        assert_eq!(f32s_from_bits(""), Ok(Vec::new()));
    }

    #[test]
    fn f32_bits_decode_errors_are_typed() {
        for (hex, want) in [
            ("3f80000", BitsError::Length { bytes: 7 }),
            ("3f8000000", BitsError::Length { bytes: 9 }),
            (
                "3f80000g",
                BitsError::Digit {
                    index: 0,
                    byte: b'g',
                },
            ),
            (
                "3F800000",
                BitsError::Digit {
                    index: 0,
                    byte: b'F',
                },
            ),
            (
                "+f800000",
                BitsError::Digit {
                    index: 0,
                    byte: b'+',
                },
            ),
            (
                "3f8000003f80 000",
                BitsError::Digit {
                    index: 1,
                    byte: b' ',
                },
            ),
            (
                "3f8000é",
                BitsError::Digit {
                    index: 0,
                    byte: 0xc3,
                },
            ),
            (
                "00000000\u{0}0000000",
                BitsError::Digit { index: 1, byte: 0 },
            ),
        ] {
            assert_eq!(f32s_from_bits(hex), Err(want), "{hex:?}");
        }
        assert_eq!(
            BitsError::Digit {
                index: 3,
                byte: b'G'
            }
            .to_string(),
            "bits: value 3 holds a byte 0x47 that is not a lowercase hex digit"
        );
        assert_eq!(
            BitsError::Length { bytes: 7 }.to_string(),
            "bits hold 7 bytes, not a multiple of 8"
        );
    }

    #[test]
    fn str_fields_are_borrowed_and_typed() {
        let map = vec![
            ("s".to_string(), Value::Str("abc".to_string())),
            ("n".to_string(), Value::UInt(1)),
        ];
        assert_eq!(get_str_field(&map, "s", "T").expect("a string"), "abc");
        let err = get_str_field(&map, "n", "T").expect_err("not a string");
        assert_eq!(
            err.to_string(),
            "serde: expected a string for T n, found the integer 1"
        );
        let err = get_str_field(&map, "x", "T").expect_err("missing");
        assert_eq!(err.to_string(), "serde: missing field `x` for T");
    }
}
