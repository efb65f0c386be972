//! Offline stand-in for [`serde`](https://crates.io/crates/serde).
//!
//! The real serde abstracts over data formats; this workspace only ever
//! serializes to and from JSON, so the shim collapses the data model to
//! JSON itself. [`Serialize`] appends compact JSON text to a `String` in
//! one pass; [`Deserialize`] reads from a JSON value tree
//! ([`__private::Value`], re-exported by the `serde_json` shim, whose
//! parser builds it). The derive macros (re-exported from the
//! `serde_derive` shim) generate both for structs and enums following
//! serde's default conventions: structs are objects with fields in
//! declaration order, newtypes are transparent, enums are externally
//! tagged.

#![forbid(unsafe_code)]

mod value;

pub use serde_derive::{Deserialize, Serialize};

/// Everything the derive macros and the `serde_json` shim need.
/// Not part of the emulated serde API surface.
#[doc(hidden)]
pub mod __private {
    pub use crate::value::{Error, Map, Number, Value};
}

use crate::value::{write_escaped, Error, Map, Number, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Conversion into compact JSON text.
pub trait Serialize {
    /// Appends `self` to `out` as compact JSON.
    #[doc(hidden)]
    fn __write_json(&self, out: &mut String);
}

/// Conversion from the JSON value tree.
pub trait Deserialize: Sized {
    /// Deserializes a value of `Self` from a [`Value`].
    #[doc(hidden)]
    fn __deserialize(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn __write_json(&self, out: &mut String) {
        (**self).__write_json(out)
    }
}

/// Appends `items` as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.__write_json(out);
    }
    out.push(']');
}

/// Appends `entries` as a JSON object, in the order given.
fn write_object<'a, V: Serialize + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a String, &'a V)>,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, k);
        out.push(':');
        v.__write_json(out);
    }
    out.push('}');
}

impl Serialize for Value {
    fn __write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.__write_json(out),
            Value::Number(n) => n.__write_json(out),
            Value::String(s) => write_escaped(out, s),
            Value::Array(a) => write_seq(out, a),
            Value::Object(m) => write_object(out, m),
        }
    }
}

impl Deserialize for Value {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for Number {
    fn __write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Serialize for bool {
    fn __write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected boolean"))
    }
}

macro_rules! ser_de_int {
    ($as:ident; $($t:ty),*) => {$(
        impl Serialize for $t {
            fn __write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn __deserialize(v: &Value) -> Result<Self, Error> {
                let n = v
                    .$as()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

ser_de_int!(as_u64; u8, u16, u32, u64, usize);
ser_de_int!(as_i64; i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn __write_json(&self, out: &mut String) {
        Number::from(*self).__write_json(out)
    }
}

impl Deserialize for f64 {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn __write_json(&self, out: &mut String) {
        Number::from(*self as f64).__write_json(out)
    }
}

impl Deserialize for f32 {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64().ok_or_else(|| Error::custom("expected number"))? as f32)
    }
}

impl Serialize for String {
    fn __write_json(&self, out: &mut String) {
        write_escaped(out, self)
    }
}

impl Deserialize for String {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn __write_json(&self, out: &mut String) {
        write_escaped(out, self)
    }
}

impl Serialize for char {
    fn __write_json(&self, out: &mut String) {
        write_escaped(out, self.encode_utf8(&mut [0; 4]))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn __write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.__write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::__deserialize(v).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn __write_json(&self, out: &mut String) {
        write_seq(out, self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::__deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn __write_json(&self, out: &mut String) {
        write_seq(out, self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn __write_json(&self, out: &mut String) {
        write_seq(out, self)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::__deserialize(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {n}")))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn __write_json(&self, out: &mut String) {
        (**self).__write_json(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        T::__deserialize(v).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn __write_json(&self, out: &mut String) {
        out.push('[');
        self.0.__write_json(out);
        out.push(',');
        self.1.__write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let a = v.as_array().ok_or_else(|| Error::custom("expected pair"))?;
        if a.len() != 2 {
            return Err(Error::custom("expected array of length 2"));
        }
        Ok((A::__deserialize(&a[0])?, B::__deserialize(&a[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn __write_json(&self, out: &mut String) {
        out.push('[');
        self.0.__write_json(out);
        out.push(',');
        self.1.__write_json(out);
        out.push(',');
        self.2.__write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let a = v.as_array().ok_or_else(|| Error::custom("expected triple"))?;
        if a.len() != 3 {
            return Err(Error::custom("expected array of length 3"));
        }
        Ok((A::__deserialize(&a[0])?, B::__deserialize(&a[1])?, C::__deserialize(&a[2])?))
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn __write_json(&self, out: &mut String) {
        // Sorted keys, so output is deterministic across runs.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        write_object(out, entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let obj = v.as_object().ok_or_else(|| Error::custom("expected object"))?;
        obj.iter().map(|(k, val)| Ok((k.clone(), V::__deserialize(val)?))).collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn __write_json(&self, out: &mut String) {
        write_object(out, self)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        let obj = v.as_object().ok_or_else(|| Error::custom("expected object"))?;
        obj.iter().map(|(k, val)| Ok((k.clone(), V::__deserialize(val)?))).collect()
    }
}

impl Serialize for Map<String, Value> {
    fn __write_json(&self, out: &mut String) {
        write_object(out, self)
    }
}

impl Deserialize for Map<String, Value> {
    fn __deserialize(v: &Value) -> Result<Self, Error> {
        v.as_object().cloned().ok_or_else(|| Error::custom("expected object"))
    }
}
