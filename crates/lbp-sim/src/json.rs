//! A minimal, dependency-free JSON value with a deterministic writer and
//! a small parser.
//!
//! The simulator's machine-readable reports must be **bit-identical**
//! across runs of the same program (the observability layer inherits the
//! paper's determinism claim), so the writer makes no formatting
//! decisions at runtime: objects keep insertion order, integers print as
//! integers, and floats use Rust's default shortest-roundtrip `Display`.
//! The parser exists so tests can read reports and JSONL traces back.

use std::fmt;

/// A JSON value.
///
/// Numbers are split into unsigned, signed and float variants so counter
/// values (u64) never round-trip through `f64` and lose precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A float (printed with Rust's shortest-roundtrip formatting).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and emitted verbatim.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serializes with two-space indentation (for `--stats-json` files
    /// meant to be read by humans too).
    pub fn write_pretty(&self, out: &mut String) {
        self.write_indent(out, 0);
    }

    fn write_indent(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_indent(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_indent(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses one JSON value from `src` (the whole string must be
    /// consumed, up to trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input, and on
    /// an object that holds a key twice (at the second copy).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let s = v.to_string();
        out.push_str(&s);
        // `Display` omits the fraction for whole floats; keep the value
        // typed as a float when read back.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null"); // JSON has no NaN/inf
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser, the writers and `Drop` all recurse on the tree, so this one
/// bound keeps every one of them off the end of the stack; nothing the
/// tools write nests deeper than a dozen levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nested too deep"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            // Every reader takes a key's first copy, so a second is refused.
            if pairs.iter().any(|(k, _)| *k == key) {
                self.pos = at;
                return Err(self.err("duplicate key"));
            }
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // simulator's own output.
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // The whole run up to the next quote or backslash: both
                    // are ASCII, so the run ends on a char boundary.
                    let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = &rest[..run.unwrap_or(rest.len())];
                    s.push_str(std::str::from_utf8(run).map_err(|_| self.err("invalid utf-8"))?);
                    self.pos += run.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| self.err("invalid number"))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Json::U64(v))
        } else {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbp_testutil::Rng;

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((e.at, e.what), (MAX_DEPTH, "nested too deep"));
        // Objects count against the same bound, and a hostile input
        // never reaches the stack's end.
        let objs = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&objs).unwrap_err().what, "nested too deep");
        assert_eq!(Json::parse(&"[".repeat(200_000)).unwrap_err().at, MAX_DEPTH);
    }

    #[test]
    fn a_repeated_key_is_refused_at_its_second_copy() {
        let err = Json::parse(r#"{"a":1,"b":{"a":2},"a":3}"#).unwrap_err();
        let what = "duplicate key";
        assert_eq!(err, JsonError { at: 19, what });
        assert!(Json::parse(r#"[{"a":1},{"a":2}]"#).is_ok());
    }

    #[test]
    fn roundtrips_compact() {
        let v = Json::obj([
            ("cycles", Json::U64(467171)),
            ("ipc", Json::F64(0.75)),
            ("name", Json::Str("a \"b\"\n".to_owned())),
            ("neg", Json::I64(-3)),
            (
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::U64(0)]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn whole_floats_stay_floats() {
        let text = Json::F64(2.0).to_string();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(2.0));
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 1;
        let text = Json::U64(big).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("b", Json::obj([("c", Json::Str("d".into()))])),
            ("empty", Json::Arr(vec![])),
        ]);
        let mut s = String::new();
        v.write_pretty(&mut s);
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    /// A piece of a string literal's text, and the chars it stands for.
    fn piece(rng: &mut Rng) -> (String, String) {
        const ESCAPES: [(&str, char); 8] = [
            ("\\\"", '"'),
            ("\\\\", '\\'),
            ("\\/", '/'),
            ("\\b", '\u{8}'),
            ("\\f", '\u{c}'),
            ("\\n", '\n'),
            ("\\r", '\r'),
            ("\\t", '\t'),
        ];
        let run = |rng: &mut Rng, from: u32, to: u32| -> String {
            let n = 1 + rng.index(40);
            let scalar = |rng: &mut Rng| char::from_u32(rng.range_u32(from, to)).unwrap();
            (0..n).map(|_| scalar(rng)).collect()
        };
        let same = |text: String| (text.clone(), text);
        match rng.index(7) {
            0 => same(run(rng, 0x20, 0x7e).replace(['"', '\\'], "_")),
            1 => same(run(rng, 0x80, 0x7ff)),
            // 3-byte scalars, below and above the surrogates.
            2 => {
                let (from, to) = rng.pick(&[(0x800, 0xd7ff), (0xe000, 0xffff)]);
                same(run(rng, from, to))
            }
            3 => same(run(rng, 0x1_0000, 0x10_ffff)),
            4 => {
                let (text, c) = rng.pick(&ESCAPES);
                (text.to_owned(), c.to_string())
            }
            5 => {
                let code = match rng.flip() {
                    true => rng.range_u32(0, 0xd7ff),
                    false => rng.range_u32(0xe000, 0xffff),
                };
                let text = match rng.flip() {
                    true => format!("\\u{code:04x}"),
                    false => format!("\\u{code:04X}"),
                };
                (text, char::from_u32(code).unwrap().to_string())
            }
            // Raw control bytes, which the reader takes as they are.
            _ => same(run(rng, 0, 0x1f)),
        }
    }

    /// Strings of every kind of piece read back as the chars they stand
    /// for, and every value written reads back as itself.
    #[test]
    fn seeded_strings_round_trip() {
        let mut rng = Rng::new(54);
        for case in 0..500 {
            let (mut text, mut chars) = (String::from("\""), String::new());
            for _ in 0..rng.index(12) {
                let (t, c) = piece(&mut rng);
                text.push_str(&t);
                chars.push_str(&c);
            }
            text.push('"');
            let read = Json::parse(&text);
            assert_eq!(read, Ok(Json::Str(chars.clone())), "case {case}: {text:?}");
            let v = Json::obj([
                (chars.as_str(), Json::Str(chars.clone())),
                ("a", Json::Arr(vec![Json::Str(chars.clone()), Json::U64(1)])),
            ]);
            assert_eq!(Json::parse(&v.to_string()), Ok(v), "case {case}");
        }
    }

    /// Hostile strings fail where and as they always did.
    #[test]
    fn hostile_strings_fail_at_the_pinned_byte() {
        let long = "é€😀x".repeat(100);
        let cases: [(String, usize, &str); 8] = [
            (format!("\"{long}"), 1001, "unterminated string"),
            (format!("[\"{long}\\"), 1003, "bad escape"),
            (
                format!("\"{}{long}\\q\"", "x".repeat(1000)),
                2003,
                "bad escape",
            ),
            (format!("\"{long}\\é\""), 1003, "bad escape"),
            ("\"ab\\ud800\"".to_owned(), 9, "bad \\u escape"),
            ("\"ab\\udfff\\u0041\"".to_owned(), 9, "bad \\u escape"),
            (format!("\"{long}\\u12\""), 1003, "bad \\u escape"),
            ("\"\\u00é\"".to_owned(), 3, "bad \\u escape"),
        ];
        for (text, at, what) in cases {
            assert_eq!(Json::parse(&text), Err(JsonError { at, what }), "{text:?}");
        }
    }

    /// A `\u` escape is four hex digits: a sign is none, and fails where
    /// any other bad `\u` escape does.
    #[test]
    fn a_u_escape_takes_four_hex_digits_and_no_sign() {
        for (text, at) in [(r#""\u+041""#, 3), (r#""ab\u-041""#, 5), (r#""\u 041""#, 3)] {
            let bad = JsonError {
                at,
                what: "bad \\u escape",
            };
            assert_eq!(Json::parse(text), Err(bad), "{text:?}");
        }
        assert_eq!(Json::parse(r#""\u0041\u00e9""#), Ok(Json::Str("Aé".into())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
