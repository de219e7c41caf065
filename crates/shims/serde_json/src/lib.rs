//! Minimal offline stand-in for `serde_json`, backed by the `serde` shim's
//! [`serde::Value`] tree: [`to_string`] renders a `Serialize` type to JSON
//! text, [`from_str`] parses JSON text into a `Deserialize` type. Output
//! conventions follow the real crate for the shapes used in-tree (newtype
//! transparency, unit enum variants as strings, `Option` as `null`/value,
//! non-finite floats as `null`).

use serde::{DeError, Deserialize, Serialize, Value};

/// JSON serialisation/parse error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Render a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Parse JSON text into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------- writing

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // Rust's shortest-roundtrip Display; integral values print
                // without a fraction, which still parses back exactly.
                out.push_str(&f.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

/// Deepest array/object nesting the parser accepts — real `serde_json`'s
/// default recursion limit. The parser recurses once per level, so the cap
/// turns hostile input (`[[[[…`) into an [`Error`] instead of a stack
/// overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
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

    /// Parse one value that sits inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected input {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("lone leading surrogate"));
                                }
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at pos-1.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = chunk.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_through_text() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<u32>(" 42 ").unwrap(), 42);
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn containers_roundtrip() {
        let xs = vec![1u32, 2, 3];
        let json = to_string(&xs).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), xs);
        let t = (7u32, 0.25f64);
        assert_eq!(from_str::<(u32, f64)>(&to_string(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quoted\" line\nwith \\ and unicode: ünïcödé ❤".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""Aé""#).unwrap(), "Aé");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
    }

    #[test]
    fn float_precision_survives_roundtrip() {
        for &x in &[0.1, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78, -0.0] {
            let json = to_string(&x).unwrap();
            let back = from_str::<f64>(&json).unwrap();
            assert_eq!(back, x, "json was {json}");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<f64>("").is_err());
        assert!(from_str::<f64>("1.5 trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<bool>("truthy").is_err());
    }

    /// Nesting up to the cap parses; one level more, or a hostile run of
    /// 10⁵ open brackets, is an error rather than a stack overflow.
    #[test]
    fn nesting_depth_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(100_000)).is_err());
        assert!(from_str::<Vec<u32>>(&"[".repeat(100_000)).is_err());
    }
}
