//! Dependency-free JSON emission and parsing for repro artifacts.
//!
//! The harness must build offline, so instead of `serde_json` this module
//! provides a minimal [`serde::Serializer`] that renders any
//! `#[derive(Serialize)]` result struct as pretty-printed JSON, plus a
//! small [`Value`] parser used by `repro diff` and the round-trip tests.
//!
//! Output is deterministic by construction: struct fields serialize in
//! declaration order, indentation is fixed at two spaces, and numbers use
//! Rust's shortest round-trip `Display` formatting. Non-finite floats
//! serialize as `null` (they never appear in figure data).

use serde::ser::{self, Serialize};
use std::fmt;

/// Error type for serialization and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Renders `value` as pretty-printed JSON (two-space indent, trailing
/// newline omitted).
///
/// # Errors
///
/// Returns an error for shapes JSON cannot represent (non-string map
/// keys, bytes).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut ser = Serializer {
        out: String::new(),
        indent: 0,
    };
    value.serialize(&mut ser)?;
    Ok(ser.out)
}

fn escape_into(out: &mut String, s: &str) {
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

struct Serializer {
    out: String,
    indent: usize,
}

impl Serializer {
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn write_f64(&mut self, v: f64) {
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
    }
}

/// Shared implementation for sequence-like serializers (arrays).
struct SeqSer<'a> {
    ser: &'a mut Serializer,
    first: bool,
}

impl SeqSer<'_> {
    fn element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        if !self.first {
            self.ser.out.push(',');
        }
        self.first = false;
        self.ser.newline();
        value.serialize(&mut *self.ser)
    }

    fn finish(self) -> Result<(), Error> {
        self.ser.indent -= 1;
        if !self.first {
            self.ser.newline();
        }
        self.ser.out.push(']');
        Ok(())
    }
}

/// Shared implementation for map-like serializers (objects).
struct MapSer<'a> {
    ser: &'a mut Serializer,
    first: bool,
}

impl MapSer<'_> {
    fn entry<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), Error> {
        if !self.first {
            self.ser.out.push(',');
        }
        self.first = false;
        self.ser.newline();
        escape_into(&mut self.ser.out, key);
        self.ser.out.push_str(": ");
        value.serialize(&mut *self.ser)
    }

    fn finish(self) -> Result<(), Error> {
        self.ser.indent -= 1;
        if !self.first {
            self.ser.newline();
        }
        self.ser.out.push('}');
        Ok(())
    }
}

macro_rules! forward_int {
    ($($m:ident: $t:ty),*) => {
        $(fn $m(self, v: $t) -> Result<(), Error> {
            self.out.push_str(&format!("{v}"));
            Ok(())
        })*
    };
}

impl<'a> ser::Serializer for &'a mut Serializer {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = SeqSer<'a>;
    type SerializeTuple = SeqSer<'a>;
    type SerializeTupleStruct = SeqSer<'a>;
    type SerializeTupleVariant = SeqSer<'a>;
    type SerializeMap = MapSer<'a>;
    type SerializeStruct = MapSer<'a>;
    type SerializeStructVariant = MapSer<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }

    forward_int!(
        serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
        serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64
    );

    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        self.write_f64(f64::from(v));
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        self.write_f64(v);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), Error> {
        escape_into(&mut self.out, &v.to_string());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        escape_into(&mut self.out, v);
        Ok(())
    }

    fn serialize_bytes(self, _v: &[u8]) -> Result<(), Error> {
        Err(ser::Error::custom("bytes are not supported"))
    }

    fn serialize_none(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.out.push('{');
        self.indent += 1;
        self.newline();
        escape_into(&mut self.out, variant);
        self.out.push_str(": ");
        value.serialize(&mut *self)?;
        self.indent -= 1;
        self.newline();
        self.out.push('}');
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<SeqSer<'a>, Error> {
        self.out.push('[');
        self.indent += 1;
        Ok(SeqSer {
            ser: self,
            first: true,
        })
    }

    fn serialize_tuple(self, len: usize) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<SeqSer<'a>, Error> {
        self.serialize_seq(Some(len))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<MapSer<'a>, Error> {
        self.out.push('{');
        self.indent += 1;
        Ok(MapSer {
            ser: self,
            first: true,
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<MapSer<'a>, Error> {
        self.serialize_map(Some(len))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        len: usize,
    ) -> Result<MapSer<'a>, Error> {
        self.serialize_map(Some(len))
    }
}

impl ser::SerializeSeq for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeTuple for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeTupleStruct for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeTupleVariant for SeqSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.element(value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeMap for MapSer<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        // Keys must be strings; render through a throwaway serializer and
        // reject anything that does not come out as a JSON string.
        let rendered = to_string_pretty(key)?;
        if !rendered.starts_with('"') {
            return Err(ser::Error::custom("map keys must be strings"));
        }
        if !self.first {
            self.ser.out.push(',');
        }
        self.first = false;
        self.ser.newline();
        self.ser.out.push_str(&rendered);
        self.ser.out.push_str(": ");
        Ok(())
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeStruct for MapSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.entry(key, value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl ser::SerializeStructVariant for MapSer<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.entry(key, value)
    }
    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

/// A parsed JSON document.
///
/// Numbers keep their source token (`Num("0.125")`) so a parse →
/// [`Value::render_pretty`] round trip reproduces the serializer's bytes
/// exactly and `repro diff` can report values verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value exactly as [`to_string_pretty`] would.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    /// Renders the value on a single line with no whitespace — the JSONL
    /// form used by `repro --trace` (one event per line).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_flat(&mut out);
        out
    }

    fn render_flat(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_flat(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_flat(out);
                }
                out.push('}');
            }
        }
    }

    fn render(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            out.push('\n');
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    item.render(out, indent + 1);
                }
                if !items.is_empty() {
                    pad(out, indent);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, indent + 1);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                }
                if !fields.is_empty() {
                    pad(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// Arrays and objects may nest this deep. The parser recurses once per
/// level, so input decides how much stack it takes; artifacts, bench
/// reports and Chrome traces stay under ten levels.
const MAX_DEPTH: usize = 64;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns an error describing the first malformed construct, with a
/// byte offset; arrays and objects nested more than 64 deep are one.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error(format!(
                        "nested deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        raw.parse::<f64>()
            .map_err(|_| Error(format!("invalid number at byte {start}")))?;
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar. Decode from a
                    // bounded window — validating the whole remaining
                    // input per character would make parsing quadratic.
                    let window = &self.bytes[self.pos..(self.pos + 4).min(self.bytes.len())];
                    let c = match std::str::from_utf8(window) {
                        Ok(s) => s.chars().next().expect("non-empty"),
                        // The window may cut a *following* scalar short;
                        // the first one is whole because the input is a
                        // valid &str.
                        Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                            .expect("validated prefix")
                            .chars()
                            .next()
                            .expect("non-empty"),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Demo {
        name: String,
        ratio: f64,
        count: u64,
        missing: Option<f64>,
        tags: Vec<&'static str>,
    }

    fn demo() -> Demo {
        Demo {
            name: "fig \"2\"".into(),
            ratio: 0.125,
            count: 42,
            missing: None,
            tags: vec!["a", "b"],
        }
    }

    #[test]
    fn serializes_structs_pretty() {
        let s = to_string_pretty(&demo()).unwrap();
        assert_eq!(
            s,
            "{\n  \"name\": \"fig \\\"2\\\"\",\n  \"ratio\": 0.125,\n  \"count\": 42,\n  \"missing\": null,\n  \"tags\": [\n    \"a\",\n    \"b\"\n  ]\n}"
        );
    }

    #[test]
    fn empty_containers_stay_compact() {
        #[derive(Serialize)]
        struct E {
            xs: Vec<u32>,
        }
        assert_eq!(
            to_string_pretty(&E { xs: vec![] }).unwrap(),
            "{\n  \"xs\": []\n}"
        );
        let v: Vec<u32> = vec![];
        assert_eq!(to_string_pretty(&v).unwrap(), "[]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string_pretty(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string_pretty(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn parse_round_trips_serializer_bytes() {
        let s = to_string_pretty(&demo()).unwrap();
        let v = parse(&s).unwrap();
        assert_eq!(v.render_pretty(), s);
        assert_eq!(v.get("count"), Some(&Value::Num("42".into())));
        assert_eq!(v.get("missing"), Some(&Value::Null));
    }

    #[test]
    fn render_compact_is_single_line() {
        let s = to_string_pretty(&demo()).unwrap();
        let v = parse(&s).unwrap();
        let c = v.render_compact();
        assert!(!c.contains('\n'));
        assert_eq!(
            c,
            "{\"name\":\"fig \\\"2\\\"\",\"ratio\":0.125,\"count\":42,\"missing\":null,\"tags\":[\"a\",\"b\"]}"
        );
        // Compact output re-parses to the same value.
        assert_eq!(parse(&c).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped_on_both_sides_of_the_limit() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let deepest = parse(&nested(MAX_DEPTH)).expect("at the cap");
        assert_eq!(parse(&deepest.render_compact()), Ok(deepest));
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        // Objects count too, and siblings do not.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH / 2) + &"]}".repeat(MAX_DEPTH / 2);
        assert!(parse(&mixed).is_ok());
        assert!(parse(&format!("[{mixed},{mixed}]")).is_err());
        assert!(parse(&format!(
            "[{},{}]",
            nested(MAX_DEPTH - 1),
            nested(MAX_DEPTH - 1)
        ))
        .is_ok());
        // What overflowed the stack of `repro compare` / `diff` /
        // `explain-tail` before there was a cap.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse("\"a\\u0041\\n\\\"é\"").unwrap();
        assert_eq!(v, Value::Str("aA\n\"é".into()));
    }
}
