//! Minimal JSON: the [`Writer`] every emitted artifact goes through —
//! journal lines, run reports, diagnostics, Chrome traces — and a small
//! recursive-descent parser used to read journals back and to validate
//! emitted artifacts in tests and CI smoke checks.
//!
//! The text format lives here and nowhere else: quotes, separators,
//! string escapes, number tokens, and the one rule for a non-finite
//! number (`null`). Emitters say only what is theirs — field order and
//! the layout whitespace their schema carries.
//!
//! Not a general-purpose JSON library: numbers are `f64`, objects keep
//! key order and allow duplicates (last one wins on lookup is *not*
//! implemented — [`Value::get`] returns the first match), and the parser
//! rejects trailing garbage.
//!
//! The read half is one scanner with two sinks. [`parse`] builds the
//! [`Value`] tree. [`parse_object`] hands the top-level fields of a
//! one-object document to its caller as they are scanned, strings
//! borrowed from the input — what the checkpoint reader decodes a
//! journal line through, since the tree of a line is built only to be
//! taken apart again.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Append `s` to `out` escaped for inclusion inside JSON double quotes.
/// Everything that needs escaping is ASCII, so clean runs are copied
/// whole and multi-byte characters pass through untouched.
fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[clean..]);
}

/// Escape a string for inclusion inside JSON double quotes (the quotes
/// themselves are not added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A streaming JSON writer over one `String` buffer. It owns every
/// token of the format; the caller owns the order of calls. Each method
/// returns the writer, so a fixed-shape object reads as one chain:
/// `w.begin_obj().key("seed").u64(7).key("fast").bool(true).end_obj()`.
///
/// Output is compact. A schema that breaks lines between elements says
/// so with [`Writer::brk`] (before an element) and [`Writer::ws`]
/// (anywhere else); both take whitespace only.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
    /// Whether the next key or element must be preceded by a `,`: set
    /// by everything that completes a value, cleared by an opening
    /// bracket and by a key. One flag serves every nesting level — a
    /// container that has just closed is a completed value of its
    /// parent.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.buf
    }

    /// The separator owed before the next key or element, then `token`.
    fn sep(&mut self, token: &str) -> &mut Self {
        if std::mem::take(&mut self.comma) {
            self.buf.push(',');
        }
        self.buf.push_str(token);
        self
    }

    /// `token` as a complete value.
    fn atom(&mut self, token: &str) -> &mut Self {
        self.sep(token).comma = true;
        self
    }

    /// A number token — or, the one rule for every number method: JSON
    /// has no NaN or infinity, so a non-finite value is `null`. A schema
    /// that needs a number in that place clamps before it calls.
    fn number(&mut self, finite: bool, token: fmt::Arguments<'_>) -> &mut Self {
        if !finite {
            return self.null();
        }
        self.sep("").buf.write_fmt(token).expect("writing to a String cannot fail");
        self.comma = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.buf.push(bracket);
        self.comma = true;
        self
    }

    fn quoted(&mut self, s: &str) -> &mut Self {
        escape_into(&mut self.sep("\"").buf, s);
        self.buf.push('"');
        self
    }

    /// `{`.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep("{")
    }

    /// `}`.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// `[`.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep("[")
    }

    /// `]`.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the field's value must follow.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.quoted(k).buf.push(':');
        self
    }

    /// A string, escaped straight into the buffer.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.quoted(s).comma = true;
        self
    }

    /// An array of strings.
    pub fn strs<S: AsRef<str>>(&mut self, items: &[S]) -> &mut Self {
        self.begin_arr();
        for s in items {
            self.str(s.as_ref());
        }
        self.end_arr()
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.atom(if b { "true" } else { "false" })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.atom("null")
    }

    /// An unsigned integer, every digit (a seed survives above 2^53).
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.number(true, format_args!("{n}"))
    }

    /// A number in `f64`'s shortest round-trip form (integral values get
    /// a `.0`), so [`parse`] reads back exactly the value written.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.number(x.is_finite(), format_args!("{x:?}"))
    }

    /// [`Writer::f64`] for a value measured in `f32`: its own shortest
    /// form (`2.1`, not the `2.0999999046325684` of the widened value).
    pub fn f32(&mut self, x: f32) -> &mut Self {
        self.number(x.is_finite(), format_args!("{x:?}"))
    }

    /// A number with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, x: f64, decimals: usize) -> &mut Self {
        self.number(x.is_finite(), format_args!("{x:.decimals$}"))
    }

    /// A whole [`Value`] tree, compact, objects in field order.
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Num(n) => self.f64(*n),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr()
            }
            Value::Obj(fields) => {
                self.begin_obj();
                for (k, v) in fields {
                    self.key(k).value(v);
                }
                self.end_obj()
            }
        }
    }

    /// Layout whitespace in front of the next element: the separator it
    /// is owed, then `ws`.
    pub fn brk(&mut self, ws: &str) -> &mut Self {
        self.sep("").ws(ws)
    }

    /// Layout whitespace where no separator is owed: before a closing
    /// bracket, after the document.
    pub fn ws(&mut self, ws: &str) -> &mut Self {
        debug_assert!(ws.bytes().all(|b| b.is_ascii_whitespace()), "layout is whitespace only");
        self.buf.push_str(ws);
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// First value of `key` in an object; `None` for non-objects or
    /// missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Serialize a [`Value`] back to compact JSON through the [`Writer`]:
/// `parse(&write(&v))` reproduces a finite `v` exactly, and the output
/// is stable for a given value.
pub fn write(v: &Value) -> String {
    let mut w = Writer::new();
    w.value(v);
    w.finish()
}

/// A parse failure: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What was wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting `parse` accepts. The parser recurses
/// per `[` / `{`, so an unbounded depth lets a hostile journal line
/// overflow the stack; nothing this workspace writes nests past 4.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document. Trailing non-whitespace and arrays
/// or objects nested more than 128 deep are errors.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.end()?;
    Ok(v)
}

/// One top-level field of a document, as [`parse_object`] delivers it:
/// a scalar as scanned — a string borrowed from the input unless it
/// holds an escape — and only an array or object as a built [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(Cow<'a, str>),
    /// An array or object.
    Tree(Value),
}

impl Field<'_> {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<Field<'_>> for Value {
    fn from(f: Field<'_>) -> Value {
        match f {
            Field::Null => Value::Null,
            Field::Bool(b) => Value::Bool(b),
            Field::Num(n) => Value::Num(n),
            Field::Str(s) => Value::Str(s.into_owned()),
            Field::Tree(v) => v,
        }
    }
}

/// [`parse`] for a reader that knows its keys: the top-level fields of
/// a one-object document go to `field` as they are scanned — document
/// order, duplicates included — and the object itself is never built.
/// Same grammar, same errors at the same positions as [`parse`]; fields
/// delivered before an error are the caller's to discard. A document
/// that is not an object is parsed whole and delivers nothing.
pub fn parse_object<'a>(
    input: &'a str,
    mut field: impl FnMut(&str, Field<'a>),
) -> Result<(), ParseError> {
    let mut p = Parser { text: input, pos: 0 };
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.object(1, |key, f| field(&key, f))?;
    } else {
        p.value(0)?;
    }
    p.end()
}

/// The one scanner under [`parse`] and [`parse_object`]. It works on
/// byte runs: every byte it stops at is ASCII, so every extent it cuts
/// from `text` lies on character boundaries.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    /// Advance over the run of bytes `keep` holds for.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = self.rest();
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, f: Field<'a>) -> Result<Field<'a>, ParseError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(f)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parse one value sitting inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.field(depth).map(Value::from)
    }

    /// [`Parser::value`], a scalar left as scanned.
    fn field(&mut self, depth: usize) -> Result<Field<'a>, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(depth + 1, |key, f| fields.push((key.into_owned(), f.into())))?;
                Ok(Field::Tree(Value::Obj(fields)))
            }
            Some(b'[') => self.array(depth + 1).map(Field::Tree),
            Some(b'"') => self.string().map(Field::Str),
            Some(b't') => self.literal("true", Field::Bool(true)),
            Some(b'f') => self.literal("false", Field::Bool(false)),
            Some(b'n') => self.literal("null", Field::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Field::Num),
            _ => Err(self.err("expected a value")),
        }
    }

    /// An object's fields, handed to `field` in source order.
    fn object(
        &mut self,
        depth: usize,
        mut field: impl FnMut(Cow<'a, str>, Field<'a>),
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(key, self.field(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string, one run at a time: the bytes up to the next `"` or `\`
    /// are taken whole. With no escape in it the string is that one run,
    /// borrowed; the first escape starts an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        // Empty until the first escape: an escape always pushes.
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.skip_while(|b| b != b'"' && b != b'\\');
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past its `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = self.hex4(self.pos)?;
                self.pos += 4;
                // A non-BMP character arrives from an `ensure_ascii`
                // emitter as a surrogate pair: recombine it. A surrogate
                // without its partner is not a character.
                if (0xd800..0xdc00).contains(&code) && self.rest().get(1..3) == Some(b"\\u") {
                    if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 2) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        self.pos += 6;
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits after the `u` at byte `u`.
    fn hex4(&self, u: usize) -> Result<u32, ParseError> {
        let hex = self.text.as_bytes().get(u + 1..u + 5);
        let hex = hex.ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'));
        self.text[start..self.pos].parse().map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslash_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escaped_strings_roundtrip_through_parser() {
        for s in ["", "plain", "a\"b\\c", "x\ny", "\u{1}\u{1f}", "üñí©ode"] {
            let doc = format!("{{\"k\":\"{}\"}}", escape(s));
            let v = parse(&doc).expect("valid");
            assert_eq!(v.get("k").and_then(Value::as_str), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"f"}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("f"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nulL").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.pos, e.msg), (MAX_DEPTH, "nesting too deep"));
        // Deep enough to overflow the stack of an unbounded recursion;
        // mixed and unbalanced nesting is refused the same way.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn write_roundtrips_through_parse() {
        let doc = r#"{"a":[1,2.5,-300.0],"b":{"c":true,"d":null},"e":"f\"g\n"}"#;
        let v = parse(doc).unwrap();
        let out = write(&v);
        assert_eq!(parse(&out).unwrap(), v);
        // Stable: writing twice gives identical bytes.
        assert_eq!(out, write(&v));
        // Non-finite numbers degrade to null instead of invalid JSON.
        assert_eq!(write(&Value::Num(f64::NAN)), "null");
    }

    #[test]
    fn writer_owns_separators_layout_and_the_non_finite_rule() {
        let mut w = Writer::new();
        w.begin_obj().key("a").begin_arr();
        w.brk("\n ").u64(u64::MAX).brk("\n ").f32(2.1).fixed(1234.5678, 3).f64(-0.0);
        // One rule, every number method.
        w.f64(f64::NAN).f32(f32::INFINITY).fixed(f64::NEG_INFINITY, 2);
        w.ws("\n").end_arr().key("b").begin_obj().end_obj();
        w.key("c").strs(&["x", "y\n"]).key("d").strs::<&str>(&[]).end_obj().ws("\n");
        assert_eq!(
            w.finish(),
            "{\"a\":[\n 18446744073709551615,\n 2.1,1234.568,-0.0,null,null,null\n],\
             \"b\":{},\"c\":[\"x\",\"y\\n\"],\"d\":[]}\n"
        );
    }

    /// Bytes pinned from the emitter this writer replaced: every escape
    /// class, every number shape the schemas carry, empty containers.
    #[test]
    fn hostile_fixture_bytes_are_pinned() {
        let hostile = "q\"b\\s\n\r\t\u{1}\u{1f}\u{2028}\u{1f600}";
        assert_eq!(escape(hostile), "q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f\u{2028}😀");
        let v = Value::Obj(vec![
            (hostile.to_string(), Value::Str(hostile.to_string())),
            (
                "nums".to_string(),
                Value::Arr(
                    [-0.0, 5e-324, f64::MAX, u64::MAX as f64, 2.1f32 as f64, 1e21, 0.1 + 0.2, 7.0]
                        .into_iter()
                        .map(Value::Num)
                        .collect(),
                ),
            ),
            ("inf".to_string(), Value::Num(f64::NEG_INFINITY)),
            ("empty".to_string(), Value::Arr(vec![Value::Arr(vec![]), Value::Obj(vec![])])),
            ("lits".to_string(), Value::Arr(vec![Value::Null, Value::Bool(true), Value::Bool(false)])),
        ]);
        assert_eq!(write(&v), "{\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f\u{2028}😀\":\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f\u{2028}😀\",\"nums\":[-0.0,5e-324,1.7976931348623157e308,1.8446744073709552e19,2.0999999046325684,1e21,0.30000000000000004,7.0],\"inf\":null,\"empty\":[[],{}],\"lits\":[null,true,false]}");
    }

    /// A finite value tree decoded from arbitrary bytes: any bit pattern
    /// of a finite number, any text (control characters, quotes and
    /// U+FFFD from invalid UTF-8 included) as string and as key.
    fn value_from(bytes: &mut std::slice::Iter<'_, u8>, depth: usize) -> Value {
        fn take(bytes: &mut std::slice::Iter<'_, u8>, n: usize) -> Vec<u8> {
            bytes.by_ref().take(n).copied().collect()
        }
        fn pick(bytes: &mut std::slice::Iter<'_, u8>, n: usize) -> usize {
            bytes.next().map_or(0, |b| *b as usize % n)
        }
        fn text(bytes: &mut std::slice::Iter<'_, u8>, n: usize) -> String {
            String::from_utf8_lossy(&take(bytes, n)).into_owned()
        }
        match pick(bytes, if depth == 0 { 3 } else { 5 }) {
            0 => [Value::Null, Value::Bool(true), Value::Bool(false)][pick(bytes, 3)].clone(),
            1 => {
                let mut bits = [0u8; 8];
                bits.iter_mut().zip(take(bytes, 8)).for_each(|(d, s)| *d = s);
                Value::Num(Some(f64::from_le_bytes(bits)).filter(|x| x.is_finite()).unwrap_or(-0.0))
            }
            2 => Value::Str(text(bytes, 6)),
            3 => Value::Arr((0..pick(bytes, 4)).map(|_| value_from(bytes, depth - 1)).collect()),
            _ => Value::Obj(
                (0..pick(bytes, 4)).map(|_| (text(bytes, 3), value_from(bytes, depth - 1))).collect(),
            ),
        }
    }

    proptest::proptest! {
        /// What the writer emits, the parser reads back exactly — the
        /// identity a journal payload relies on across a resume.
        #[test]
        fn write_then_parse_is_identity(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
            let v = value_from(&mut bytes.iter(), 4);
            proptest::prop_assert_eq!(parse(&write(&v)), Ok(v));
        }
    }

    /// The string scanner this module had before it took runs: one
    /// character per step. Kept as the model the run scanner must agree
    /// with, result for result; it shares no code with it. `text` opens
    /// at the quote; returns the result and where scanning stopped.
    fn string_model(text: &str) -> (Result<String, ParseError>, usize) {
        fn hex4(bytes: &[u8], u: usize) -> Result<u32, &'static str> {
            let hex = bytes.get(u + 1..u + 5).ok_or("truncated \\u escape")?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?;
            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")
        }
        let bytes = text.as_bytes();
        let fail = |pos, msg| (Err(ParseError { pos, msg }), pos);
        if bytes.first() != Some(&b'"') {
            return fail(0, "unexpected character");
        }
        let (mut pos, mut out) = (1, String::new());
        loop {
            match bytes.get(pos) {
                None => return fail(pos, "unterminated string"),
                Some(b'"') => return (Ok(out), pos + 1),
                Some(b'\\') => {
                    pos += 1;
                    match bytes.get(pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let high = match hex4(bytes, pos) {
                                Ok(code) => code,
                                Err(msg) => return fail(pos, msg),
                            };
                            pos += 4;
                            let low = (bytes.get(pos + 1..pos + 3) == Some(b"\\u"))
                                .then(|| hex4(bytes, pos + 2).ok())
                                .flatten();
                            match (high, low) {
                                (0xd800..=0xdbff, Some(low @ 0xdc00..=0xdfff)) => {
                                    let c = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                                    out.push(char::from_u32(c).unwrap());
                                    pos += 6;
                                }
                                _ => out.push(char::from_u32(high).unwrap_or('\u{fffd}')),
                            }
                        }
                        _ => return fail(pos, "invalid escape"),
                    }
                    pos += 1;
                }
                Some(_) => {
                    let c = text[pos..].chars().next().unwrap();
                    out.push(c);
                    pos += c.len_utf8();
                }
            }
        }
    }

    /// The run scanner on `text`, in the model's terms.
    fn string_scanned(text: &str) -> (Result<String, ParseError>, usize) {
        let mut p = Parser { text, pos: 0 };
        let got = p.string().map(Cow::into_owned);
        (got, p.pos)
    }

    #[test]
    fn surrogate_pairs_recombine_and_lone_surrogates_do_not() {
        let s = |doc: &str| parse(doc).map(|v| v.as_str().unwrap().to_string());
        // How an `ensure_ascii` emitter writes U+1F600.
        assert_eq!(s(r#""\ud83d\ude00""#), Ok("😀".to_string()));
        assert_eq!(s(r#""\uD83D\uDE00""#), Ok("😀".to_string()));
        assert_eq!(s(r#""\udbff\udfff""#), Ok("\u{10ffff}".to_string()));
        // The pair sits between two runs, opens the string, closes it.
        assert_eq!(s(r#""a\ud83d\ude00b""#), Ok("a😀b".to_string()));
        assert_eq!(s(r#""é\ud83d\ude00""#), Ok("é😀".to_string()));
        // No partner, wrong partner, partners the wrong way round, a run
        // in between: each surrogate alone is U+FFFD.
        assert_eq!(s(r#""\ud83d""#), Ok("\u{fffd}".to_string()));
        assert_eq!(s(r#""\ude00""#), Ok("\u{fffd}".to_string()));
        assert_eq!(s(r#""\ud83d\u0041""#), Ok("\u{fffd}A".to_string()));
        assert_eq!(s(r#""\ud83d\n""#), Ok("\u{fffd}\n".to_string()));
        assert_eq!(s(r#""\ude00\ud83d""#), Ok("\u{fffd}\u{fffd}".to_string()));
        assert_eq!(s(r#""\ud83dx\ude00""#), Ok("\u{fffd}x\u{fffd}".to_string()));
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), Ok("\u{fffd}😀".to_string()));
        // A broken second escape is reported where it stands.
        assert_eq!(s(r#""\ud83d\ude0""#), Err(ParseError { pos: 8, msg: "invalid \\u escape" }));
        assert_eq!(s(r#""\ud83d\ude"#), Err(ParseError { pos: 8, msg: "truncated \\u escape" }));
        // A unit name that went through such a tool comes back itself.
        let v = parse(r#"{"name":"fig2/\ud83d\ude00/0"}"#).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig2/😀/0"));
    }

    #[test]
    fn run_scanner_agrees_with_the_model_on_every_escape_and_edge() {
        for text in [
            r#""""#, r#""plain""#, r#""\"\\\/\n\r\t\b\f""#, r#""\u0041\u00e9\u2028""#,
            r#""\x""#, r#""\"#, r#""\u12"#, r#""\u12g4""#, r#""\u+123""#, "\"\\u12é\"",
            "\"é\"", "\"é\\\"é\"", "\"😀\\\\\"", "\"\\né\"", "\"é\\n\"", "\"unterminated é",
            "\"a\\", "\"\\ud83d\\ude00\"", "\"\\ud83d\\u\"", "nope", "", "\"a\u{1}b\tc\"",
        ] {
            assert_eq!(string_scanned(text), string_model(text), "{text:?}");
        }
        // What borrows: a string without an escape is a slice of the input.
        let mut p = Parser { text: r#""né""#, pos: 0 };
        assert!(matches!(p.string(), Ok(Cow::Borrowed("né"))));
        let mut p = Parser { text: r#""n\u00e9""#, pos: 0 };
        assert!(matches!(p.string(), Ok(Cow::Owned(s)) if s == "né"));
    }

    /// Text dense in what the string scanner stops at: each byte picks a
    /// token, so quotes, escapes (whole and cut short), surrogate halves
    /// and multi-byte characters land next to each other.
    fn hostile_text(bytes: &[u8]) -> String {
        const TOKENS: [&str; 24] = [
            "\"", "\\", "u", "\\u", "d83d", "de00", "\\ud83d", "\\ude00", "00e9", "é", "😀",
            "\u{2028}", "a", "n", "\\n", "\\\"", "\\\\", "/", "0", "g", " ", "\u{1}", "+", "\\t",
        ];
        bytes.iter().map(|b| TOKENS[*b as usize % TOKENS.len()]).collect()
    }

    /// The fields `parse_object` delivers, as the tree would hold them.
    fn sunk(doc: &str) -> Result<Vec<(String, Value)>, ParseError> {
        let mut fields = Vec::new();
        parse_object(doc, |k, f| fields.push((k.to_string(), Value::from(f))))?;
        Ok(fields)
    }

    /// What `parse_object` must deliver, read off the tree.
    fn held(doc: &str) -> Result<Vec<(String, Value)>, ParseError> {
        Ok(match parse(doc)? {
            Value::Obj(fields) => fields,
            _ => Vec::new(),
        })
    }

    /// Every suffix of `bytes`, as raw (lossy) text and as token soup.
    fn hostile_texts(bytes: &[u8]) -> impl Iterator<Item = String> + '_ {
        (0..bytes.len().max(1)).flat_map(move |i| {
            let tail = bytes.get(i..).unwrap_or_default();
            [String::from_utf8_lossy(tail).into_owned(), hostile_text(tail)]
        })
    }

    proptest::proptest! {
        /// Run scanner ≡ char-by-char model, value or error, and both
        /// stop at the same byte.
        #[test]
        fn run_scanner_agrees_with_the_model(bytes in proptest::collection::vec(0u8..=255, 0..48)) {
            for body in hostile_texts(&bytes) {
                let text = format!("\"{body}");
                proptest::prop_assert_eq!(string_scanned(&text), string_model(&text), "{:?}", text);
            }
        }

        /// Sink ≡ tree on what the writer emits: the same fields, in
        /// order, duplicate keys included.
        #[test]
        fn sink_delivers_the_fields_the_tree_holds(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
        ) {
            let mut bytes = bytes.iter();
            const KEYS: [&str; 5] = ["k", "k", "dup", "é\"", ""];
            let fields: Vec<(String, Value)> = (0..bytes.next().map_or(0, |b| *b as usize % 6))
                .map(|i| (KEYS[i % 5].to_string(), value_from(&mut bytes, 3)))
                .collect();
            let doc = write(&Value::Obj(fields.clone()));
            proptest::prop_assert_eq!(sunk(&doc), Ok(fields));
        }

        /// Sink ≡ tree on hostile bytes: the same fields or the same
        /// error at the same position.
        #[test]
        fn sink_fails_where_the_tree_fails(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            for body in hostile_texts(&bytes) {
                for doc in [format!("{{{body}"), format!("{{\"k\":{body}}}"), body] {
                    proptest::prop_assert_eq!(sunk(&doc), held(&doc), "{:?}", doc);
                }
            }
        }
    }

    /// A valid document cut short at every character, and with every
    /// character replaced by every hostile token: sink ≡ tree.
    #[test]
    fn sink_fails_where_the_tree_fails_on_every_near_miss_of_a_document() {
        let valid = r#" {"a":"x\ny","b":[1,{"c":null}],"a":-2.5e3,"é":{"d":"😀"},"é":true} "#;
        assert_eq!(sunk(valid).unwrap().len(), 5);
        let chars: Vec<char> = valid.chars().collect();
        for cut in 0..=chars.len() {
            let head: String = chars[..cut].iter().collect();
            assert_eq!(sunk(&head), held(&head), "{head:?}");
            let tail: String = chars[(cut + 1).min(chars.len())..].iter().collect();
            for token in 0..24u8 {
                let doc = format!("{head}{}{tail}", hostile_text(&[token]));
                assert_eq!(sunk(&doc), held(&doc), "{doc:?}");
            }
        }
    }

    #[test]
    fn sink_borrows_what_has_no_escape_and_shares_the_depth_bound() {
        let doc = r#"{"plain":"né","esc\n":"a\tb","n":1,"t":[true]}"#;
        let mut seen = Vec::new();
        parse_object(doc, |k, f| {
            seen.push(match &f {
                Field::Str(Cow::Borrowed(_)) => format!("{k}: borrowed"),
                Field::Str(Cow::Owned(_)) => format!("{k}: owned"),
                other => format!("{k}: {other:?}"),
            })
        })
        .unwrap();
        let want = ["plain: borrowed", "esc\n: owned", "n: Num(1.0)", "t: Tree(Arr([Bool(true)]))"];
        assert_eq!(seen, want);
        // The top-level object counts as one level on both paths.
        let nest = |n: usize| format!("{{\"payload\":{}{}}}", "[".repeat(n), "]".repeat(n));
        assert_eq!(sunk(&nest(MAX_DEPTH - 1)), held(&nest(MAX_DEPTH - 1)));
        assert!(sunk(&nest(MAX_DEPTH - 1)).is_ok());
        let e = sunk(&nest(MAX_DEPTH)).unwrap_err();
        assert_eq!((e.pos, e.msg), (11 + MAX_DEPTH - 1, "nesting too deep"));
        assert_eq!(Err(e), held(&nest(MAX_DEPTH)));
        // Not an object: the tree path, with the tree path's errors.
        let e = sunk(&"[".repeat(100_000)).unwrap_err();
        assert_eq!((e.pos, e.msg), (MAX_DEPTH, "nesting too deep"));
        assert_eq!(sunk("[1, 2]"), Ok(vec![]));
        let e = sunk("{} x").unwrap_err();
        assert_eq!((e.pos, e.msg), (3, "trailing characters after document"));
    }

    #[test]
    fn error_reports_position() {
        let e = parse("[1, oops]").unwrap_err();
        assert_eq!(e.pos, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
