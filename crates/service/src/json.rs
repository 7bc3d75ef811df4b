//! The workspace's one JSON codec — deliberately tiny; the workspace
//! is offline, so no serde. The service itself speaks no JSON: the
//! codec lives here because the `benchmark/` ledger imports it for its
//! reports, and moves with the ledger's own PR.
//!
//! [`JsonObject`] writes flat-ish objects of numbers, strings and
//! nested objects, compactly in insertion order. Numbers are formatted
//! so they parse back exactly (`u64`/`usize` verbatim, `f64` via `{:?}`
//! which round-trips). [`JsonValue`] is the document tree that
//! [`JsonValue::parse`] reads back from whatever a file hands over.

use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their raw token so `u64`
/// counters survive without a float round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (parse on demand).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object in document order.
    Object(Vec<(String, JsonValue)>),
}

/// Deepest nesting of arrays and objects [`JsonValue::parse`] follows.
/// The parser recurses once per level and its input comes from peers
/// and files, so the bound is what keeps a line of `[` from
/// overflowing the stack; the documents this workspace writes nest
/// four levels.
const MAX_DEPTH: usize = 64;

impl JsonValue {
    /// Parse one complete JSON document (surrounding whitespace
    /// allowed; trailing garbage and nesting beyond 64 levels
    /// rejected).
    pub fn parse(s: &str) -> Option<JsonValue> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        match self.bytes.get(self.pos)? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return None;
                }
                self.depth += 1;
                let v = if *open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => self.string().map(JsonValue::String),
            b't' => self.eat_lit("true").map(|()| JsonValue::Bool(true)),
            b'f' => self.eat_lit("false").map(|()| JsonValue::Bool(false)),
            b'n' => self.eat_lit("null").map(|()| JsonValue::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(JsonValue::Object(members));
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(JsonValue::Array(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the run of plain bytes in one go (keeps the loop
            // UTF-8 transparent: multi-byte chars pass through).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).ok()?);
            match self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => unreachable!("loop above stops only at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return None;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        // Validate the token parses as a number at all.
        raw.parse::<f64>().ok()?;
        Some(JsonValue::Number(raw.to_string()))
    }
}

/// Incremental JSON object builder.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn field_u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field (`{:?}` formatting round-trips f64 exactly;
    /// non-finite values become `null` since JSON has no NaN).
    pub fn field_f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Add a nested object field from an already-finished document.
    pub fn field_obj(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return the document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_documents() {
        let inner = JsonObject::new().field_u64("reads", 12).field_u64("writes", 0).finish();
        let doc = JsonObject::new()
            .field_u64("queries", 42)
            .field_f64("mean_batch", 3.5)
            .field_str("state", "serving")
            .field_obj("io", &inner)
            .finish();
        assert_eq!(
            doc,
            "{\"queries\":42,\"mean_batch\":3.5,\"state\":\"serving\",\
             \"io\":{\"reads\":12,\"writes\":0}}"
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = JsonObject::new().field_str("msg", "a \"b\"\n\\c").finish();
        assert_eq!(doc, "{\"msg\":\"a \\\"b\\\"\\n\\\\c\"}");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let doc = JsonObject::new().field_f64("x", f64::NAN).finish();
        assert_eq!(doc, "{\"x\":null}");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn parser_reads_documents_back() {
        let inner = JsonObject::new().field_u64("reads", 7).finish();
        let doc = JsonObject::new()
            .field_u64("schema", 2)
            .field_str("state", "serving")
            .field_f64("ratio", 1.5)
            .field_obj("io", &inner)
            .finish();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("state").unwrap().as_str(), Some("serving"));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("io").unwrap().get("reads").unwrap().as_u64(), Some(7));
        assert!(v.get("missing").is_none());
        // u64 precision survives (above 2^53, where f64 would lose it).
        let big = JsonObject::new().field_u64("seq", u64::MAX).finish();
        let v = JsonValue::parse(&big).unwrap();
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parser_handles_literals_arrays_and_rejects_garbage() {
        let v = JsonValue::parse(r#"{"a": [1, true, null, "x"], "b": false}"#).unwrap();
        match v.get("a").unwrap() {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1], JsonValue::Bool(true));
                assert_eq!(items[2], JsonValue::Null);
                assert_eq!(items[3].as_str(), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        let v = JsonValue::parse(r#" { "a\n\"x\"" : [ -2.5e3, {"inner": "A"} ] } "#).unwrap();
        let Some(JsonValue::Array(items)) = v.get("a\n\"x\"") else { panic!("expected array") };
        assert_eq!(items[0].as_f64(), Some(-2500.0));
        assert_eq!(items[1].get("inner").and_then(JsonValue::as_str), Some("A"));
        let v =
            JsonValue::parse(r#"{"empty": [], "none": {}, "rows": [{"ok": true}, {}]}"#).unwrap();
        assert_eq!(v.get("empty"), Some(&JsonValue::Array(vec![])));
        assert_eq!(v.get("none"), Some(&JsonValue::Object(vec![])));
        assert_eq!(
            v.get("rows"),
            Some(&JsonValue::Array(vec![
                JsonValue::Object(vec![("ok".into(), JsonValue::Bool(true))]),
                JsonValue::Object(vec![]),
            ]))
        );
        for bad in ["", "{", "{\"a\":}", "{\"a\" 1}", "[1,]", "{\"a\":1} trailing", "nul", "\"open"]
        {
            assert_eq!(JsonValue::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // A hostile or corrupt document: the recursive-descent parser
        // must refuse it, not overflow its stack.
        assert_eq!(JsonValue::parse(&"[".repeat(100_000)), None);
        assert_eq!(JsonValue::parse(&"{\"a\":".repeat(100_000)), None);
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_some());
        assert_eq!(JsonValue::parse(&nested(MAX_DEPTH + 1)), None);
        // Siblings do not accumulate depth.
        assert!(JsonValue::parse(&format!("[{}]", vec!["[[1]]"; 100].join(","))).is_some());
    }

    #[test]
    fn escaping_round_trips_the_hostile_cases() {
        // Quotes, backslashes and control characters — the classic
        // ways to produce invalid JSON from string interpolation.
        for s in ["\"", "\\", "\"\\\"", "\x00\x1f\x07", "a\nb\rc\td", "π — ünïcode 🚀", ""] {
            let doc = JsonObject::new().field_str("s", s).finish();
            let v = JsonValue::parse(&doc)
                .unwrap_or_else(|| panic!("emitted invalid JSON for {s:?}: {doc}"));
            assert_eq!(v.get("s").unwrap().as_str(), Some(s), "{doc}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::VecStrategy;
    use proptest::prelude::*;
    use proptest::strategy::Map;

    /// The strategy type behind [`hostile_string`], named to keep the
    /// signature readable.
    type HostileString = Map<VecStrategy<std::ops::Range<u32>>, fn(Vec<u32>) -> String>;

    /// Strings up to `max` chars, biased hard toward the characters
    /// that break naive JSON interpolation: quotes, backslashes,
    /// control characters, plus the odd astral-plane code point.
    fn hostile_string(max: usize) -> HostileString {
        proptest::collection::vec(0u32..128, 0..max + 1).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c {
                    0..=31 => char::from_u32(c).unwrap(), // raw control chars
                    32..=39 => '"',
                    40..=47 => '\\',
                    48..=119 => char::from_u32(c).unwrap(),
                    _ => char::from_u32(0x1F680 + c).unwrap(), // astral
                })
                .collect()
        })
    }

    proptest! {
        /// Satellite pin: `field_str` must emit valid JSON for *any*
        /// string — quotes, backslashes, control characters, the lot —
        /// and the parsed value must equal the input exactly.
        #[test]
        fn field_str_escaping_round_trips(key in hostile_string(8), s in hostile_string(64)) {
            prop_assume!(key != "tail");
            let doc = JsonObject::new().field_str(&key, &s).field_u64("tail", 7).finish();
            let v = JsonValue::parse(&doc)
                .unwrap_or_else(|| panic!("emitted invalid JSON: {doc}"));
            prop_assert_eq!(v.get(&key).unwrap().as_str(), Some(s.as_str()));
            prop_assert_eq!(v.get("tail").unwrap().as_u64(), Some(7));
        }

        /// Numbers round-trip exactly through emit + parse — u64 at
        /// full precision, f64 from raw bit patterns (NaN and the
        /// infinities become JSON null).
        #[test]
        fn numbers_round_trip(u in 0u64..u64::MAX, bits in 0u64..u64::MAX) {
            let f = f64::from_bits(bits);
            let doc = JsonObject::new().field_u64("u", u).field_f64("f", f).finish();
            let v = JsonValue::parse(&doc).unwrap();
            prop_assert_eq!(v.get("u").unwrap().as_u64(), Some(u));
            if f.is_finite() {
                prop_assert_eq!(v.get("f").unwrap().as_f64(), Some(f));
            } else {
                prop_assert_eq!(v.get("f"), Some(&JsonValue::Null));
            }
        }
    }
}
