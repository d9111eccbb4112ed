//! The repository's one JSON implementation. Every document a node or
//! tool emits (`/health`, `/trace`, `zabctl --json`, the chaos summary)
//! is built as a [`Json`] value and printed by its `Display`; every
//! document read back is parsed by [`Json::parse`].
//!
//! Objects keep insertion order, so a document prints its keys in the
//! order it was built. Numbers keep their literal text: `From<u64>`
//! writes an integer exactly and [`Json::as_u64`] reads one exactly, so
//! a zxid above 2⁵³ survives the round trip an `f64` would round.
//! Strings escape `"` as `\"`, a backslash as `\\`, a newline as `\n`,
//! and every other control character as `\u00XX`.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. The endpoints
/// nest at most four levels; the cap keeps a hostile `[[[[…` body from
/// overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal text.
    Num(Number),
    /// A string.
    Str(Cow<'static, str>),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

/// A JSON number's literal text. Only the parser, `From` on integers
/// and [`Json::fixed`] make one, so the writer never prints text that is
/// not a number.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

/// Parse failure: a message plus the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { b: s.as_bytes(), i: 0, depth: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// An object with `members` in the given order.
    pub fn obj<K: Into<Cow<'static, str>>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `v` printed with `decimals` digits after the point; `null` when
    /// `v` is not finite (JSON has no NaN or infinity).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(Number(format!("{v:.decimals$}")))
        } else {
            Json::Null
        }
    }

    /// Object member by key (the first, should a key repeat).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.members()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member `key` read by `read` (`Json::as_u64`, `Json::as_str`,
    /// `Some`, ...), or an error naming the key.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.get(key).ok_or_else(|| format!("missing {key:?}"))?;
        read(v).ok_or_else(|| format!("{key:?} has the wrong type"))
    }

    /// Array element by index.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        self.items().get(i)
    }

    /// The array items, or an empty slice for non-arrays.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The object members, if this is an object.
    pub fn members(&self) -> Option<&[(Cow<'static, str>, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number written as a non-negative integer that fits a u64,
    /// read exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(Number(t)) => t.parse().ok(),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(Number(n.to_string()))
            }
        }
    )*};
}
from_integer!(u32, u64, i64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&'static str> for Json {
    fn from(s: &'static str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s.into())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// The one writer: compact, no whitespace, members in order.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Rendered into one buffer first: a document is many short
        // pieces, and pushing them onto a `String` is far cheaper than
        // passing each through the formatter.
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(Number(t)) => out.push_str(t),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Unescaped runs go out whole; only the escapes are written apart.
    let mut start = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { msg, at: self.i }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?.into())),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':', "expected ':'")?;
            self.ws();
            let v = self.value()?;
            m.push((k.into(), v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.err("unterminated string")) };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else { return Err(self.err("truncated escape")) };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogates are not paired (the endpoints
                            // never emit them); replace rather than fail.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multibyte UTF-8.
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && self.b[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        // The text is kept as written once it reads as a number.
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("bad number"))?;
        match s.parse::<f64>() {
            Ok(_) => Ok(Json::Num(Number(s.to_string()))),
            Err(_) => Err(JsonError { msg: "bad number", at: start }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_health_shaped_document() {
        let doc = r#"{"node":1,"role":"leading","active":true,"leader":null,
            "lag":[{"peer":2,"acked_zxid":4294967297,"lag_txns":0,"syncing":false}],
            "delivery":{"hash":"00ab","checkpoints":[[4294967360,"0cd"]]},
            "last_committed":"1:9"}"#;
        let j = Json::parse(doc).expect("parse");
        assert_eq!(j.get("node").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("role").and_then(Json::as_str), Some("leading"));
        assert_eq!(j.get("active").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("leader"), Some(&Json::Null));
        let lag = j.get("lag").expect("lag");
        assert_eq!(
            lag.idx(0).and_then(|e| e.get("acked_zxid")).and_then(Json::as_u64),
            Some((1 << 32) | 1)
        );
        let cp = j.get("delivery").and_then(|d| d.get("checkpoints")).expect("cps");
        assert_eq!(cp.idx(0).and_then(|p| p.idx(1)).and_then(Json::as_str), Some("0cd"));
    }

    #[test]
    fn parses_escapes_numbers_and_nesting() {
        let j = Json::parse(r#"{"s":"a\"b\nAç","n":-2.5e2,"a":[1,[2,{}]]}"#).expect("parse");
        assert_eq!(j.get("s").and_then(Json::as_str), Some("a\"b\nAç"));
        assert_eq!(j.get("n"), Some(&Json::Num(Number("-2.5e2".to_string()))), "number text kept");
        assert_eq!(
            j.get("a").and_then(|a| a.idx(1)).and_then(|a| a.idx(0)).and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "{\"a\":}", "[1,]", "\"unterminated", "tru", "{}x", "", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A small explicit stack: without the depth cap this recursion
        // overflows it long before the input runs out.
        let parsed = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let ok =
                    Json::parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH)));
                (ok.is_ok(), Json::parse(&"[".repeat(1 << 20)))
            })
            .expect("spawn")
            .join()
            .expect("parser thread");
        assert!(parsed.0, "nesting at the cap must parse");
        assert_eq!(parsed.1.map_err(|e| e.msg), Err("nesting too deep"));
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_controls() {
        let s = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\u0009e\u0001""#);
        assert_eq!(Json::parse(&s.to_string()), Ok(s));
    }

    #[test]
    fn objects_keep_insertion_order_both_ways() {
        let doc = r#"{"z":1,"a":[true,null,"x"],"m":{"k":-3,"b":1.25}}"#;
        let j = Json::parse(doc).expect("parse");
        assert_eq!(j.to_string(), doc);
        let built = Json::obj([
            ("z", 1u64.into()),
            ("a", Json::Arr(Vec::new())),
            ("b", None::<u64>.into()),
        ]);
        assert_eq!(built.to_string(), r#"{"z":1,"a":[],"b":null}"#);
    }

    #[test]
    fn integers_round_trip_exactly_above_2_pow_53() {
        for n in [(1u64 << 53) + 1, u64::MAX] {
            let text = Json::from(n).to_string();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).expect("parse").as_u64(), Some(n));
        }
        assert_eq!(Json::parse("18446744073709551616").expect("parse").as_u64(), None);
    }

    #[test]
    fn fixed_prints_decimals_and_null_for_non_finite() {
        assert_eq!(Json::fixed(345.8561, 3).to_string(), "345.856");
        assert_eq!(Json::fixed(f64::NAN, 3), Json::Null);
    }

    #[test]
    fn as_u64_rejects_negatives_and_fractions() {
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }
}
