//! The workspace's one JSON codec: the [`Json`] value, its reader and its
//! writer.
//!
//! The workspace builds with no external dependencies, so every JSON
//! document — trace exports, wire frames, cache entries, bench documents,
//! provenance and lint findings — is built as a [`Json`] value and written
//! by [`Json::write`] (or, one entry per line, [`Json::write_lines`]), and
//! every reader goes through [`parse`] and the typed field readers
//! ([`Json::u64_field`] and friends). The reader accepts standard JSON
//! (objects, arrays, strings with every escape including `\u` surrogate
//! pairs, numbers, booleans, null). Numbers are kept as `f64`: integers of
//! magnitude below [`EXACT_INT_LIMIT`] read and write exactly. Arrays and
//! objects nest at most [`MAX_DEPTH`] deep; deeper input is a
//! [`JsonError`], never a stack overflow.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Integers of magnitude below this bound (9.0e15, just under 2⁵³) read
/// and write exactly: [`Json::as_i64`] accepts them and the writer prints
/// them without a fraction or exponent. Larger numbers are written as the
/// nearest `f64` and are not integers to the readers.
pub const EXACT_INT_LIMIT: u64 = 9_000_000_000_000_000;

/// An object from `(key, value)` members, in order.
pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

number_from!(u32, u64, u128, usize, i64, f64);

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
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

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an integer (rejects non-integral numbers and any of
    /// magnitude [`EXACT_INT_LIMIT`] or more).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT as f64 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// The elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Member `key`, or the error `missing "key"`.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing \"{key}\""))
    }

    fn typed_field<'a, T>(
        &'a self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| format!("missing or non-{kind} \"{key}\""))
    }

    /// Member `key` as an unsigned integer, or the error
    /// `missing or non-integer "key"`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.typed_field(key, "integer", Json::as_u64)
    }

    /// Member `key` as a string, or the error `missing or non-string "key"`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.typed_field(key, "string", Json::as_str)
    }

    /// Member `key` as a boolean, or the error
    /// `missing or non-boolean "key"`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.typed_field(key, "boolean", Json::as_bool)
    }

    /// Member `key` as an array, or the error `missing or non-array "key"`.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.typed_field(key, "array", Json::as_arr)
    }

    /// Member `key` as an object, or the error
    /// `missing or non-object "key"`.
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Json)], String> {
        self.typed_field(key, "object", Json::as_obj)
    }

    /// Appends the value as compact JSON text (no whitespace) to `out`.
    ///
    /// Integral numbers of magnitude below [`EXACT_INT_LIMIT`] are written
    /// as integers, other finite numbers in Rust's shortest round-trip
    /// form, and NaN and the infinities, which JSON cannot express, as
    /// `null`.
    pub fn write(&self, out: &mut String) {
        write_value(out, self, ",").expect("writing to a String never fails");
    }

    /// Appends the value like [`write`](Json::write), but with each entry
    /// of the outermost array or object, and each element of an array that
    /// is a member of the outermost object, starting a new line: one event
    /// or record per line, each compact. The Chrome trace and the bench
    /// documents use this layout.
    pub fn write_lines(&self, out: &mut String) {
        write_value(out, self, ",\n ").expect("writing to a String never fails");
    }
}

/// The compact text of the value, as written by [`Json::write`].
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, ",")
    }
}

/// Writes `v` with `sep` between the entries of its outermost container
/// and everything deeper compact, except that when `sep` breaks lines, the
/// arrays among the members of an outermost object break theirs too, one
/// level further indented.
fn write_value<W: fmt::Write>(w: &mut W, v: &Json, sep: &str) -> fmt::Result {
    match v {
        Json::Null => w.write_str("null"),
        Json::Bool(b) => write!(w, "{b}"),
        Json::Num(n) if !n.is_finite() => w.write_str("null"),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT as f64 => {
            write!(w, "{}", *n as i64)
        }
        Json::Num(n) => write!(w, "{n}"),
        Json::Str(s) => write_string(w, s),
        Json::Arr(items) => {
            w.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    w.write_str(sep)?;
                }
                write_value(w, item, ",")?;
            }
            w.write_char(']')
        }
        Json::Obj(members) => {
            let array_sep = if sep == "," { "," } else { ",\n  " };
            w.write_char('{')?;
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    w.write_str(sep)?;
                }
                write_string(w, key)?;
                w.write_char(':')?;
                match value {
                    Json::Arr(_) => write_value(w, value, array_sep)?,
                    _ => write_value(w, value, ",")?,
                }
            }
            w.write_char('}')
        }
    }
}

/// Writes `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else (non-ASCII included) copied as is.
fn write_string<W: fmt::Write>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a character boundary.
        w.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(w, "\\u{byte:04x}")?;
        } else {
            w.write_str(escape)?;
        }
        run = i + 1;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

/// A parse error with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the error.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest. The reader recurses once per
/// level, so the cap bounds its stack use: a hostile frame of nested `[`
/// is rejected instead of overflowing the stack of the thread parsing it.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error, and
/// so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash. Both are
            // ASCII, so the run ends on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` has been consumed. A high
    /// surrogate followed by a `\u` low surrogate decodes to the one
    /// character the pair encodes (how encoders that escape all non-ASCII
    /// text send characters outside the Basic Multilingual Plane); a lone
    /// or reversed surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xd800..0xdc00).contains(&high) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let scalar = 0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair encodes a scalar"));
            }
            // Not a pair: the second escape stands on its own.
            self.pos = after_high;
        }
        Ok(char::from_u32(high).unwrap_or('\u{fffd}'))
    }

    /// Four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let is_hex = self
            .bytes
            .get(self.pos..end)
            .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit));
        if !is_hex {
            return Err(self.error("bad \\u escape"));
        }
        let value = u32::from_str_radix(&self.text[self.pos..end], 16).expect("four hex digits");
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(v: &Json) -> String {
        let mut out = String::new();
        v.write(&mut out);
        out
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""\u+123""#).is_err(), "a sign is not a hex digit");
        assert!(parse(r#""\u12""#).is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nested deeper than 128"), "{err}");
        // Far past any stack: an error, not an abort.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn string_round_trip() {
        for s in [
            "plain",
            "tabs\tand\nnewlines",
            "quo\"te \\ back",
            "μικρό",
            "emoji 😀 and \u{1}\u{1f}\u{7f}",
        ] {
            let out = compact(&s.into());
            assert_eq!(parse(&out).unwrap().as_str(), Some(s), "{out}");
        }
    }

    #[test]
    fn control_chars_are_escaped() {
        let out = compact(&"\u{1}".into());
        assert_eq!(out, "\"\\u0001\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn int_obj_round_trip() {
        let v = obj([("iterations", 42u64.into()), ("neg", (-7i64).into())]);
        let out = compact(&v);
        assert_eq!(out, r#"{"iterations":42,"neg":-7}"#);
        let back = parse(&out).unwrap();
        assert_eq!(back.get("iterations").unwrap().as_i64(), Some(42));
        assert_eq!(back.get("neg").unwrap().as_i64(), Some(-7));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // What an ASCII-only encoder sends for U+1F600.
        assert_eq!(parse(r#""a\ud83d\ude00b""#).unwrap().as_str(), Some("a😀b"));
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("😀"));
        // Lone and reversed surrogates are replaced, one U+FFFD each, and
        // a high surrogate before a pair does not swallow it.
        assert_eq!(parse(r#""\ud83d""#).unwrap().as_str(), Some("\u{fffd}"));
        assert_eq!(parse(r#""\ude00x""#).unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(
            parse(r#""\ude00\ud83d""#).unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
        assert_eq!(
            parse(r#""\ud83d\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{fffd}😀")
        );
        assert_eq!(
            parse(r#""\ud83d\u0041""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
    }

    #[test]
    fn compact_writer_round_trips() {
        let v = parse(
            r#"{"s":"a\"b","n":[0,-7,2.5,1e20,8999999999999999,-0.125],
                "o":{"t":true,"f":false,"z":null},"e":[],"eo":{}}"#,
        )
        .unwrap();
        let out = compact(&v);
        assert_eq!(
            out,
            r#"{"s":"a\"b","n":[0,-7,2.5,100000000000000000000,8999999999999999,-0.125],"o":{"t":true,"f":false,"z":null},"e":[],"eo":{}}"#
        );
        assert_eq!(parse(&out).unwrap(), v);
        assert_eq!(v.to_string(), out);
    }

    #[test]
    fn numbers_are_exact_below_the_limit() {
        let below = EXACT_INT_LIMIT - 1;
        assert_eq!(Json::from(below).as_u64(), Some(below));
        assert_eq!(compact(&below.into()), below.to_string());
        assert_eq!(Json::from(EXACT_INT_LIMIT).as_u64(), None);
        assert_eq!(compact(&Json::Num(f64::NAN)), "null");
        assert_eq!(compact(&Json::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn line_layout_breaks_the_outer_entries_and_arrays_directly_inside() {
        let doc = obj([
            ("schema", "s/v1".into()),
            (
                "records",
                Json::Arr(vec![obj([("a", 1u64.into())]), obj([])]),
            ),
            (
                "config",
                obj([("x", Json::Arr(vec![Json::Null, true.into()]))]),
            ),
        ]);
        let mut out = String::new();
        doc.write_lines(&mut out);
        assert_eq!(
            out,
            "{\"schema\":\"s/v1\",\n \"records\":[{\"a\":1},\n  {}],\n \"config\":{\"x\":[null,true]}}"
        );
        assert_eq!(parse(&out).unwrap(), doc);
        let mut events = String::new();
        Json::Arr(vec![obj([]), obj([("k", "v".into())])]).write_lines(&mut events);
        assert_eq!(events, "[{},\n {\"k\":\"v\"}]");
    }

    #[test]
    fn field_readers_name_the_key_and_the_expected_type() {
        let v = parse(r#"{"n":3,"s":"x","b":true,"a":[1],"o":{},"neg":-1}"#).unwrap();
        assert_eq!(v.u64_field("n"), Ok(3));
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.bool_field("b"), Ok(true));
        assert_eq!(v.arr_field("a").map(<[Json]>::len), Ok(1));
        assert_eq!(v.obj_field("o").map(<[_]>::len), Ok(0));
        assert_eq!(v.field("n"), Ok(&Json::Num(3.0)));
        assert_eq!(v.u64_field("s"), Err("missing or non-integer \"s\"".into()));
        assert_eq!(
            v.u64_field("neg"),
            Err("missing or non-integer \"neg\"".into())
        );
        assert_eq!(
            v.str_field("zz"),
            Err("missing or non-string \"zz\"".into())
        );
        assert_eq!(
            v.bool_field("n"),
            Err("missing or non-boolean \"n\"".into())
        );
        assert_eq!(v.field("zz"), Err("missing \"zz\"".into()));
    }
}
