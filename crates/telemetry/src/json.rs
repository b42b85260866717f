//! Hand-rolled JSON (the workspace has no serde): a tiny builder for
//! everything we write, and [`parse`], the one total reader for
//! everything we read back — wire lines, scenarios, checkpoints,
//! manifests and run reports.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use crate::event::{Event, EventKind};

/// Escape a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value. JSON has no NaN/infinity, so those
/// become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder: `Obj::new().field(...).finish()`.
#[derive(Debug, Default)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Add a field whose value is already-valid JSON text.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        self.parts
            .push(format!("\"{}\":{}", escape(key), value.as_ref()));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, quoted)
    }

    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

/// Render a sequence of already-encoded JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// One event as a flat JSON object (used for JSON Lines traces).
pub fn event_to_json(e: &Event) -> String {
    let obj = Obj::new().f64("t_s", e.t_s).str("kind", e.kind.name());
    match e.kind {
        EventKind::RunEnd { skimmed } => obj.bool("skimmed", skimmed),
        EventKind::PowerOn { waited_s } => obj.f64("waited_s", waited_s),
        EventKind::Checkpoint { cause, words } => {
            obj.str("cause", cause.name()).u64("words", words)
        }
        EventKind::Restore { cost_cycles } => obj.u64("cost_cycles", cost_cycles),
        EventKind::SkimTaken { target } => obj.u64("target", target as u64),
        EventKind::LeaseGrant { cycles } => obj.u64("cycles", cycles),
        EventKind::LeaseSettled {
            cycles,
            instructions,
        } => obj.u64("cycles", cycles).u64("instructions", instructions),
        EventKind::RunStart | EventKind::Outage | EventKind::SkimSkipped => obj,
    }
    .finish()
}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests a handful of levels; the cap turns a hostile
/// line of `[[[[…` into a typed error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value. Objects are `BTreeMap`s, so iteration — and
/// any re-serialization — is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The field `key` of an object; `None` for a missing key or a
    /// value that is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A number that is exactly a `u64` (no fraction, no sign, in range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a text is not a JSON document [`parse`] accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed text: what was expected, and the byte offset where.
    Syntax { msg: &'static str, at: usize },
    /// An object names the same key twice. Which occurrence wins is
    /// ambiguous, so neither does.
    DuplicateKey(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep { limit: usize },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { msg, at } => write!(f, "{msg} at byte {at}"),
            JsonError::DuplicateKey(key) => write!(f, "duplicate key `{key}`"),
            JsonError::TooDeep { limit } => write!(f, "nesting deeper than {limit} levels"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (RFC 8259): full string unescaping
/// including `\uXXXX` surrogate pairs, finite numbers only, no
/// trailing bytes, no duplicate keys, nesting capped at [`MAX_DEPTH`].
/// Total: every input yields a value or a typed error, never a panic.
///
/// # Errors
///
/// A [`JsonError`] saying what is wrong and where.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing bytes after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &'static str) -> JsonError {
        JsonError::Syntax { msg, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> bool {
        let hit = self.peek() == Some(want);
        self.pos += hit as usize;
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.container(b']', |p| p.value().map(|v| items.push(v)))?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.container(b'}', |p| p.member(&mut fields))?;
                Ok(Value::Obj(fields))
            }
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, from its
    /// opening bracket through `close`, one nesting level down.
    fn container(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error(if close == b']' {
                        "expected `,` or `]`"
                    } else {
                        "expected `,` or `}`"
                    }));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// One `"key": value` object member.
    fn member(&mut self, fields: &mut BTreeMap<String, Value>) -> Result<(), JsonError> {
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.error("expected `:`"));
        }
        self.skip_ws();
        let value = self.value()?;
        match fields.entry(key) {
            Entry::Occupied(e) => Err(JsonError::DuplicateKey(e.key().clone())),
            Entry::Vacant(e) => {
                e.insert(value);
                Ok(())
            }
        }
    }

    /// A JSON string, fully unescaped.
    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy a run of plain text in one slice. The run stops only
            // at ASCII bytes or the end, so both ends are char
            // boundaries of the (valid UTF-8) input.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated or control byte in string"));
            }
            let escape = self.peek();
            self.pos += 1;
            let c = match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.error("invalid escape")),
            };
            out.push(c);
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already
    /// consumed), joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.error("unpaired surrogate escape"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            v = v * 16 + d.ok_or_else(|| self.error("bad hex escape"))?;
            self.pos += 1;
        }
        Ok(v)
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let well_formed = (self.eat(b'0') || self.digits())
            && (!self.eat(b'.') || self.digits())
            && (!(self.eat(b'e') || self.eat(b'E')) || {
                let _ = self.eat(b'+') || self.eat(b'-');
                self.digits()
            });
        match self.text[start..self.pos].parse::<f64>() {
            Ok(v) if well_formed && v.is_finite() => Ok(Value::Num(v)),
            _ => {
                self.pos = start;
                Err(self.error("invalid number"))
            }
        }
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CheckpointCause;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn obj_builder_round_trip() {
        let doc = Obj::new()
            .str("name", "fig10")
            .u64("jobs", 4)
            .f64("wall_s", 0.5)
            .bool("telemetry", false)
            .raw("artifacts", array(vec!["\"a.csv\"".to_string()]))
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig10"));
        assert_eq!(v.get("jobs").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("wall_s").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("telemetry").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("artifacts").and_then(Value::as_arr),
            Some(&[Value::Str("a.csv".to_string())][..])
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_documents_and_unescapes_strings() {
        let v =
            parse(r#" {"a": [1, -2.5e3, true, null, {"b": "x\"\u00e9\ud83d\ude00"}], "c": {}} "#)
                .unwrap();
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a[0], Value::Num(1.0));
        assert_eq!(a[1], Value::Num(-2500.0));
        assert_eq!(a[2], Value::Bool(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(a[4].get("b").and_then(Value::as_str), Some("x\"é😀"));
        assert_eq!(v.get("c"), Some(&Value::Obj(BTreeMap::new())));
        // Every escape the encoder emits decodes back to the original.
        let s = "q\"b\\n\nr\rt\t\u{1}π";
        assert_eq!(
            parse(&format!("\"{}\"", escape(s))).unwrap(),
            Value::Str(s.into())
        );
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for text in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "[1 2]",
            "+1",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "1e999",
            "NaN",
            "tru",
            "nul",
            "\"a\tb\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "\"open",
            "1 2",
            "{} {}",
        ] {
            assert!(parse(text).is_err(), "accepted: {text:?}");
        }
        assert_eq!(
            parse(r#"{"k":1,"k":2}"#),
            Err(JsonError::DuplicateKey("k".to_string()))
        );
        assert_eq!(
            parse("[1 2]"),
            Err(JsonError::Syntax {
                msg: "expected `,` or `]`",
                at: 3
            })
        );
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let too_deep = Err(JsonError::TooDeep { limit: MAX_DEPTH });
        assert_eq!(parse(&deep), too_deep);
        assert_eq!(parse(&"[".repeat(1 << 20)), too_deep);
        assert_eq!(parse(&"{\"a\":".repeat(1 << 20)), too_deep);
    }

    #[test]
    fn event_json_carries_payloads() {
        let e = Event {
            t_s: 0.125,
            kind: EventKind::Checkpoint {
                cause: CheckpointCause::Watchdog,
                words: 7,
            },
        };
        assert_eq!(
            event_to_json(&e),
            "{\"t_s\":0.125,\"kind\":\"checkpoint\",\"cause\":\"watchdog\",\"words\":7}"
        );
    }
}
