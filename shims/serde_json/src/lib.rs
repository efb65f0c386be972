//! Offline stand-in for [`serde_json`](https://crates.io/crates/serde_json).
//!
//! Re-exports the JSON value model from the `serde` shim and adds the
//! workspace-facing API: [`json!`], [`to_string`], [`to_string_pretty`],
//! [`to_value`], [`from_str`], [`from_slice`], and a hand-rolled
//! recursive-descent parser. Output conventions match serde_json where
//! the workspace can observe them: compact `Display`, two-space pretty
//! printing, floats always rendered with a decimal point or exponent so
//! number kinds survive a round-trip.

#![forbid(unsafe_code)]

pub use serde::__private::{Error, Map, Number, Value};
use serde::{Deserialize, Serialize};

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] tree, by parsing the
/// text [`to_string`] writes (so a non-finite float becomes
/// [`Value::Null`], which is what it is written as).
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    from_str(&to_string(&value)?)
}

/// Reconstructs a deserializable type from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::__deserialize(value)
}

/// Serializes to compact JSON text, in one pass.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.__write_json(&mut out);
    Ok(out)
}

/// Serializes to two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(to_value(value)?.pretty())
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing characters at offset {}", p.pos)));
    }
    T::__deserialize(&v)
}

/// Parses JSON bytes (must be UTF-8) into any deserializable type.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::custom(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-looking syntax.
///
/// Supports the shapes this workspace writes: `null`, array literals of
/// expressions, object literals with literal keys and expression values
/// (including nested `json!` calls), and bare expressions. Unlike the
/// real macro, a *bare* `{...}`/`[...]` JSON literal cannot nest as a
/// value — wrap it in its own `json!` call.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem).expect("json! element") ),* ])
    };
    ({ $( $key:literal : $value:expr ),* $(,)? }) => {{
        let mut __map = $crate::Map::new();
        $( __map.insert(($key).to_string(), $crate::to_value(&$value).expect("json! value")); )*
        $crate::Value::Object(__map)
    }};
    ($other:expr) => { $crate::to_value(&$other).expect("json! value") };
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected `{}` at offset {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}` at offset {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(Error::custom(format!(
                "unexpected byte `{}` at offset {}",
                b as char, self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"` or `\` in
            // one step: both are ASCII, so the run ends on a char
            // boundary of the (already valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let b = self.peek().ok_or_else(|| Error::custom("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| Error::custom("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{08}'),
                b'f' => out.push('\u{0C}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                    self.pos += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error::custom("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| Error::custom("bad \\u escape"))?;
                    // Surrogate pairs: only BMP escapes are produced by
                    // this workspace's writer.
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error::custom("invalid \\u codepoint"))?,
                    );
                }
                other => {
                    return Err(Error::custom(format!("unknown escape `\\{}`", other as char)))
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::from(f)))
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "name": "vmr",
            "count": 3,
            "frac": 0.25,
            "flags": vec![true, false],
            "nothing": Option::<u32>::None
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        assert_eq!(back["count"], 3);
        assert_eq!(back["frac"].as_f64(), Some(0.25));
        assert_eq!(back["name"], "vmr");
        assert!(back["nothing"].is_null());
    }

    #[test]
    fn floats_keep_their_kind() {
        let text = to_string(&json!({ "x": 2.0_f64 })).unwrap();
        assert_eq!(text, "{\"x\":2.0}");
        let back: Value = from_str(&text).unwrap();
        assert!(matches!(&back["x"], Value::Number(n) if n.is_f64()));
    }

    #[test]
    fn pretty_has_two_space_indent() {
        let v = json!({ "a": vec![1, 2] });
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v: Value = from_str(r#"{"s": "a\"b\\c\ndAé"}"#).unwrap();
        assert_eq!(v["s"], "a\"b\\c\ndAé");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{,}").is_err());
        assert!(from_str::<Value>("[1 2]").is_err());
        assert!(from_str::<Value>("1 trailing").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }

    #[test]
    fn index_missing_is_null() {
        let v = json!({ "a": 1 });
        assert!(v["missing"].is_null());
        assert!(v["a"]["nested"].is_null());
    }
}
