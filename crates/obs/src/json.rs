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
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parse one value sitting inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
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
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not recombined — the
                            // serializers here never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
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

    #[test]
    fn error_reports_position() {
        let e = parse("[1, oops]").unwrap_err();
        assert_eq!(e.pos, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
