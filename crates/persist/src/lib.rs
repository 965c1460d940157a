//! Dependency-free JSON persistence for simulation results.
//!
//! The build environment is fully offline, so `serde`/`serde_json` are not
//! available; this crate provides the small, explicit substitute the
//! on-disk simulation cache needs:
//!
//! * [`Json`] — a JSON value tree (null, bool, unsigned/float number,
//!   string, array, object),
//! * [`Json::parse`] / [`Json::render`] — a strict parser and a compact
//!   writer that round-trip each other,
//! * [`JsonCodec`] — the trait result types implement to move through
//!   JSON, with helpers ([`Json::field`], [`Json::as_u64_list`], …) that
//!   make hand-written codecs short and produce useful error messages,
//! * [`record`] — durable records: the atomic write, the version envelope
//!   and the tolerant read behind every file the workspace reads back
//!   (simcache entries, journal records, queued jobs, metrics streams,
//!   trace artifacts), and their stated durability contract.
//!
//! Numbers are kept in two lanes — `u64` for the counters that dominate
//! simulation statistics (bit-exact round-trips, no 2^53 truncation) and
//! `f64` for everything else — because a single `f64` lane would silently
//! corrupt large cycle counters.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod record;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (the common case for
    /// simulator counters); preserved exactly.
    Uint(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so rendering is deterministic
    /// and cache files are byte-stable.
    Obj(BTreeMap<String, Json>),
}

/// Errors from parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate the problem.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { msg: msg.into() })
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no Inf/NaN; null is the conventional escape.
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Strict: trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    // ---- decoding helpers -------------------------------------------------

    /// Looks up a required object field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(map) => match map.get(name) {
                Some(v) => Ok(v),
                None => err(format!("missing field `{name}`")),
            },
            _ => err(format!("expected object while reading field `{name}`")),
        }
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Uint(u) => Ok(*u),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => Ok(*n as u64),
            other => err(format!("expected unsigned integer, found {other:?}")),
        }
    }

    /// This value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Uint(u) => Ok(*u as f64),
            Json::Num(n) => Ok(*n),
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// This value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {other:?}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, found {other:?}")),
        }
    }

    /// This value as a `Vec<u64>`.
    pub fn as_u64_list(&self) -> Result<Vec<u64>, JsonError> {
        self.as_arr()?.iter().map(Json::as_u64).collect()
    }

    /// Builds an array of unsigned integers.
    pub fn from_u64_list<'a>(items: impl IntoIterator<Item = &'a u64>) -> Json {
        Json::Arr(items.into_iter().map(|&u| Json::Uint(u)).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn eat(&mut self, token: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            err(format!("expected `{token}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError { msg: "invalid utf-8 in string".into() })?,
            );
            match self.peek() {
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or(JsonError { msg: "truncated \\u escape".into() })?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(JsonError { msg: "bad \\u escape".into() })?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return err("bad escape in string"),
                    }
                    self.pos += 1;
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if text.is_empty() {
            return err(format!("expected a value at byte {start}"));
        }
        // Integer lane first, for exact u64 round-trips.
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::Uint(u));
            }
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => err(format!("bad number `{text}` at byte {start}")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat("{")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// A deterministic 64-bit FNV-1a hasher for content fingerprints.
///
/// `std::collections::hash_map::DefaultHasher` is explicitly not guaranteed
/// stable across Rust releases, so anything persisted to disk (cache keys,
/// version stamps) hashes through this instead. All integer writes are
/// little-endian, making fingerprints stable across platforms too.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// FNV-1a offset basis.
    pub fn new() -> Self {
        StableHasher { state: 0xcbf2_9ce4_8422_2325 }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl std::hash::Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Fingerprints any `Hash` value with [`StableHasher`].
pub fn stable_fingerprint<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    use std::hash::Hasher as _;
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Types that move through [`Json`] (the offline substitute for serde's
/// `Serialize`/`Deserialize` pair).
pub trait JsonCodec: Sized {
    /// Encodes `self`.
    fn to_json(&self) -> Json;
    /// Decodes a value previously produced by [`JsonCodec::to_json`].
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Uint(0),
            Json::Uint(u64::MAX),
            Json::Num(-1.5),
            Json::Str("hé\"\\\nllo".into()),
        ] {
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "round-trip of {v:?}");
        }
    }

    #[test]
    fn u64_counters_are_bit_exact() {
        // 2^53 + 1 is where f64 lanes silently corrupt counters.
        let big = (1u64 << 53) + 1;
        let j = Json::parse(&Json::Uint(big).render()).unwrap();
        assert_eq!(j.as_u64().unwrap(), big);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("list", Json::Arr(vec![Json::Uint(1), Json::Arr(vec![]), Json::Null])),
            ("nested", Json::obj([("x", Json::Num(0.25))])),
            ("flag", Json::Bool(false)),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn object_rendering_is_deterministic() {
        let a = Json::obj([("b", Json::Uint(1)), ("a", Json::Uint(2))]);
        let b = Json::obj([("a", Json::Uint(2)), ("b", Json::Uint(1))]);
        assert_eq!(a.render(), b.render(), "key order must not matter");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "1.2.3", "{\"a\" 1}", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn helpful_decode_errors() {
        let v = Json::obj([("a", Json::Uint(1))]);
        assert!(v.field("missing").unwrap_err().msg.contains("missing"));
        assert!(v.field("a").unwrap().as_str().is_err());
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 1);
    }

    #[test]
    fn stable_hasher_is_order_and_content_sensitive() {
        assert_eq!(stable_fingerprint(&(1u32, 2u32)), stable_fingerprint(&(1u32, 2u32)));
        assert_ne!(stable_fingerprint(&(1u32, 2u32)), stable_fingerprint(&(2u32, 1u32)));
        assert_ne!(stable_fingerprint("ab"), stable_fingerprint("ba"));
        // Known FNV-1a vector: empty input = offset basis.
        use std::hash::Hasher as _;
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] , \"s\" : \"x\" } ").unwrap();
        assert_eq!(v.field("k").unwrap().as_u64_list().unwrap(), vec![1, 2]);
    }
}
