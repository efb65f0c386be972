//! The JSON value tree shared by the `serde` and `serde_json` shims.
//!
//! Lives here (rather than in `serde_json`) so the [`crate::Serialize`]
//! and [`crate::Deserialize`] traits can mention it without a circular
//! dependency; `serde_json` re-exports everything publicly.

use std::fmt::{self, Write};

/// Any JSON value, mirroring `serde_json::Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key-value mapping, preserving insertion order.
    Object(Map<String, Value>),
}

impl Value {
    /// Returns `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns `true` for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Returns `true` for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Returns `true` for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// Returns `true` for numbers.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// Borrows the boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as `f64` (any number kind converts).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// Numeric view as `u64` (integral, non-negative numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Numeric view as `i64` (integral numbers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// Borrows the string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the array, if this is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutably borrows the array, if this is one.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrows the object, if this is one.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrows the object, if this is one.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Renders with two-space indentation (what
    /// `serde_json::to_string_pretty` emits).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(a) if !a.is_empty() => {
                out.push_str("[\n");
                for (i, v) in a.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    v.write_pretty(out, indent + 1);
                    if i + 1 < a.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Object(m) if !m.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < m.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => crate::Serialize::__write_json(other, out),
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Returns `Null` for non-objects and missing keys, like serde_json.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

/// Appends `s` as a JSON string literal: `"`, `\` and the control
/// characters escaped, everything else (non-ASCII included) copied as is,
/// one run of plain bytes at a time.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        // Every byte that ends a run is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact JSON rendering (what [`crate::Serialize`] writes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        crate::Serialize::__write_json(self, &mut out);
        f.write_str(&out)
    }
}

/// A JSON number: unsigned, signed, or floating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    /// `f64` view; always succeeds (integers convert losslessly up to
    /// 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::U(u) => u as f64,
            N::I(i) => i as f64,
            N::F(f) => f,
        })
    }

    /// `u64` view for integral non-negative numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::U(u) => Some(u),
            N::I(i) => u64::try_from(i).ok(),
            N::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            N::F(_) => None,
        }
    }

    /// `i64` view for integral numbers.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::U(u) => i64::try_from(u).ok(),
            N::I(i) => Some(i),
            N::F(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            N::F(_) => None,
        }
    }

    /// Whether this number is stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::F(_))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::U(u) => write!(f, "{u}"),
            N::I(i) => write!(f, "{i}"),
            N::F(x) if !x.is_finite() => f.write_str("null"),
            // Keep float-ness visible in the text so values round-trip
            // into the same Number kind.
            N::F(x) if x.fract() == 0.0 && x.abs() < 1e16 => write!(f, "{x:.1}"),
            N::F(x) => write!(f, "{x}"),
        }
    }
}

impl From<u64> for Number {
    fn from(u: u64) -> Self {
        Number(N::U(u))
    }
}

impl From<i64> for Number {
    fn from(i: i64) -> Self {
        if i >= 0 {
            Number(N::U(i as u64))
        } else {
            Number(N::I(i))
        }
    }
}

impl From<f64> for Number {
    fn from(f: f64) -> Self {
        Number(N::F(f))
    }
}

macro_rules! value_from_num {
    ($([$t:ty, $via:ty]),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Self {
                Value::Number(Number::from(x as $via))
            }
        }
    )*};
}

value_from_num!(
    [u8, u64],
    [u16, u64],
    [u32, u64],
    [u64, u64],
    [usize, u64],
    [i8, i64],
    [i16, i64],
    [i32, i64],
    [i64, i64],
    [isize, i64],
    [f32, f64],
    [f64, f64]
);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(m: Map<String, Value>) -> Self {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

macro_rules! value_eq_num {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

value_eq_num!(u32, u64, usize, i32, i64, f64);

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// An insertion-ordered string-keyed map, mirroring `serde_json::Map`
/// (which preserves order under the `preserve_order` feature; tables and
/// reports read better that way).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map { entries: Vec::new() }
    }

    /// Inserts, replacing and returning any previous value for the key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Serialization/deserialization error (shared by `serde_json`).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from any message.
    pub fn custom<S: AsRef<str>>(msg: S) -> Self {
        Error { msg: msg.as_ref().to_string() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}
