//! Minimal dependency-free JSON parser for re-ingesting admin-endpoint
//! documents (`/health`, `/trace?format=raw`).
//!
//! Scope-matched to what the endpoints emit: objects, arrays, strings
//! with the standard escapes, numbers, booleans, null. Numbers are held
//! as `f64` — exact for every integer the endpoints serve below 2⁵³,
//! which covers packed zxids at any realistic epoch (hashes, the one
//! truly 64-bit quantity, travel as hex strings for exactly this reason).

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The endpoints
/// nest at most four levels; the cap keeps a hostile `[[[[…` body from
/// overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

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

impl std::error::Error for JsonError {}

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

    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element by index.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(v) => v.get(i),
            _ => None,
        }
    }

    /// The array items, or an empty slice for non-arrays.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The object members, if this is an object.
    pub fn members(&self) -> Option<&BTreeMap<String, Json>> {
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

    /// Number as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integral number as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
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

    /// True for the `null` literal (distinct from "absent").
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
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
        let mut m = BTreeMap::new();
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
            m.insert(k, v);
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
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("bad number"))?;
        s.parse::<f64>().map(Json::Num).map_err(|_| JsonError { msg: "bad number", at: start })
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
        assert!(j.get("leader").is_some_and(Json::is_null));
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
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(-250.0));
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
    fn as_u64_rejects_negatives_and_fractions() {
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }
}
