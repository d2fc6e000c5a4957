//! Dependency-free JSON for everything `repro` writes and reads: one
//! value model, one writer, one reader.
//!
//! The harness must build offline, so instead of `serde_json` this module
//! provides [`to_value`], a [`serde::Serializer`] that turns any
//! `Serialize` type into a [`Value`] tree. [`Value::render_pretty`] and
//! [`Value::render_compact`] are the only code that writes JSON text, and
//! [`parse`] reads it back into the same tree. An in-process result and
//! a parsed file are therefore read by the same code.
//!
//! Output is deterministic by construction: struct fields serialize in
//! declaration order, indentation is fixed at two spaces, and numbers use
//! Rust's shortest round-trip `Display` formatting. `Value::from(f64)` is
//! the one float-to-number conversion; it writes non-finite floats as
//! `null` (they never appear in figure data). Since the writer never
//! emits a number that is not a finite `f64`, [`parse`] refuses one.

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

/// Builds the [`Value`] of any [`Serialize`] type.
///
/// This is the one way typed data becomes JSON. Render the result with
/// [`Value::render_pretty`] or [`Value::render_compact`], or read it in
/// place exactly as if it had been parsed from a file.
///
/// # Errors
///
/// Returns an error for a map whose keys do not serialize as strings.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

/// Renders `value` as the text of a file `repro` writes: pretty JSON
/// plus a trailing newline.
///
/// # Panics
///
/// Panics if `value` holds a map with non-string keys, which would be a
/// bug in the type: every artifact and report keys its maps by name.
pub fn to_document<T: Serialize + ?Sized>(value: &T) -> String {
    let mut text = to_value(value)
        .expect("repro output serializes")
        .render_pretty();
    text.push('\n');
    text
}

/// The [`ser::Serializer`] behind [`to_value`].
struct ValueSerializer;

impl ser::Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = PartialArr;
    type SerializeTuple = PartialArr;
    type SerializeMap = PartialObj;
    type SerializeStruct = PartialObj;

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::Num(v.to_string()))
    }

    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(Value::Num(v.to_string()))
    }

    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        Ok(Value::from(v))
    }

    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::Str(v.to_string()))
    }

    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<PartialArr, Error> {
        Ok(PartialArr(Vec::with_capacity(len.unwrap_or(0))))
    }

    fn serialize_tuple(self, len: usize) -> Result<PartialArr, Error> {
        self.serialize_seq(Some(len))
    }

    fn serialize_map(self, len: Option<usize>) -> Result<PartialObj, Error> {
        Ok(PartialObj {
            fields: Vec::with_capacity(len.unwrap_or(0)),
            key: None,
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<PartialObj, Error> {
        self.serialize_map(Some(len))
    }
}

/// An array under construction.
struct PartialArr(Vec<Value>);

impl ser::SerializeSeq for PartialArr {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.0.push(to_value(value)?);
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Arr(self.0))
    }
}

impl ser::SerializeTuple for PartialArr {
    type Ok = Value;
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<Value, Error> {
        ser::SerializeSeq::end(self)
    }
}

/// An object under construction; `key` holds a map key until its value
/// arrives.
struct PartialObj {
    fields: Vec<(String, Value)>,
    key: Option<String>,
}

impl ser::SerializeMap for PartialObj {
    type Ok = Value;
    type Error = Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
        let Value::Str(key) = to_value(key)? else {
            return Err(Error("map keys must be strings".into()));
        };
        self.key = Some(key);
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        let key = self
            .key
            .take()
            .ok_or_else(|| Error("map value without a key".into()))?;
        self.fields.push((key, to_value(value)?));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Obj(self.fields))
    }
}

impl ser::SerializeStruct for PartialObj {
    type Ok = Value;
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.fields.push((key.to_string(), to_value(value)?));
        Ok(())
    }
    fn end(self) -> Result<Value, Error> {
        Ok(Value::Obj(self.fields))
    }
}

/// A JSON document, built by [`to_value`] or read by [`parse`].
///
/// Numbers keep their token (`Num("0.125")`) so a parse →
/// [`Value::render_pretty`] round trip reproduces the written bytes
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

    /// Renders the value as pretty JSON: two-space indent, one element
    /// or field per line, empty containers as `[]` / `{}`, no trailing
    /// newline (the form of every file `repro` writes; see
    /// [`to_document`]).
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

impl From<f64> for Value {
    /// The one float-to-JSON conversion: shortest round-trip `Display`,
    /// and `null` for a non-finite value.
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(format!("{v}"))
        } else {
            Value::Null
        }
    }
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
        // `1e999` parses to infinity, which no writer here emits and no
        // reader can compare; refuse it like any other malformed number.
        match raw.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(raw.to_string())),
            Ok(_) => Err(Error(format!("number out of range at byte {start}"))),
            Err(_) => Err(Error(format!("invalid number at byte {start}"))),
        }
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

    /// A map with caller-chosen keys, serialized through `serialize_map`.
    struct Map<K>(Vec<(K, f64)>);

    impl<K: Serialize> Serialize for Map<K> {
        fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            use serde::ser::SerializeMap;
            let mut map = serializer.serialize_map(Some(self.0.len()))?;
            for (k, v) in &self.0 {
                map.serialize_key(k)?;
                map.serialize_value(v)?;
            }
            map.end()
        }
    }

    /// Every shape an artifact uses, around a nested [`Demo`].
    #[derive(Serialize)]
    struct Shapes {
        nested: Demo,
        some: Option<u32>,
        empty: Vec<f32>,
        pair: (i32, f32),
        map: Map<&'static str>,
        nan: f64,
        text: &'static str,
    }

    fn shapes() -> Shapes {
        Shapes {
            nested: demo(),
            some: Some(7),
            empty: vec![],
            pair: (-3, 0.1),
            map: Map(vec![("b", 1.5), ("k\"ey", -2e-7)]),
            nan: f64::NAN,
            text: "tab\there\nback\\slash \u{1}",
        }
    }

    fn pretty<T: Serialize>(value: &T) -> String {
        to_value(value).unwrap().render_pretty()
    }

    #[test]
    fn serializes_structs_pretty() {
        assert_eq!(
            pretty(&demo()),
            "{\n  \"name\": \"fig \\\"2\\\"\",\n  \"ratio\": 0.125,\n  \"count\": 42,\n  \"missing\": null,\n  \"tags\": [\n    \"a\",\n    \"b\"\n  ]\n}"
        );
        // Nested struct, `Option` both ways, empty and non-empty `Vec`,
        // a tuple with a widened `f32`, a string-keyed map, a non-finite
        // float and escapes.
        assert_eq!(
            pretty(&shapes()),
            "{\n  \"nested\": {\n    \"name\": \"fig \\\"2\\\"\",\n    \"ratio\": 0.125,\n    \"count\": 42,\n    \"missing\": null,\n    \"tags\": [\n      \"a\",\n      \"b\"\n    ]\n  },\n  \"some\": 7,\n  \"empty\": [],\n  \"pair\": [\n    -3,\n    0.10000000149011612\n  ],\n  \"map\": {\n    \"b\": 1.5,\n    \"k\\\"ey\": -0.0000002\n  },\n  \"nan\": null,\n  \"text\": \"tab\\there\\nback\\\\slash \\u0001\"\n}"
        );
    }

    #[test]
    fn non_string_map_keys_are_an_error() {
        let err = to_value(&Map(vec![(1u64, 0.0)])).unwrap_err();
        assert!(
            err.to_string().contains("map keys must be strings"),
            "{err}"
        );
    }

    #[test]
    fn empty_containers_stay_compact() {
        #[derive(Serialize)]
        struct E {
            xs: Vec<u32>,
        }
        assert_eq!(pretty(&E { xs: vec![] }), "{\n  \"xs\": []\n}");
        let v: Vec<u32> = vec![];
        assert_eq!(pretty(&v), "[]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(pretty(&f64::NAN), "null");
        assert_eq!(pretty(&f64::INFINITY), "null");
    }

    #[test]
    fn parse_round_trips_serializer_bytes() {
        let s = pretty(&demo());
        let v = parse(&s).unwrap();
        assert_eq!(v.render_pretty(), s);
        assert_eq!(to_value(&demo()), Ok(v.clone()));
        assert_eq!(to_document(&demo()), s + "\n");
        assert_eq!(v.get("count"), Some(&Value::Num("42".into())));
        assert_eq!(v.get("missing"), Some(&Value::Null));
    }

    #[test]
    fn render_compact_is_single_line() {
        let v = to_value(&demo()).unwrap();
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
        // Beyond `f64`: infinity, which the writer never emits.
        assert!(parse("1e999").is_err());
        assert!(parse("[-1e999]").is_err());
        assert!(parse("1e308").is_ok());
    }

    #[test]
    fn parse_handles_escapes_and_unicode() {
        let v = parse("\"a\\u0041\\n\\\"é\"").unwrap();
        assert_eq!(v, Value::Str("aA\n\"é".into()));
    }
}
