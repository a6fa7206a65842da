//! A minimal JSON value type with a parser and writer.
//!
//! The build environment has no crates.io access, so the JSON-lines protocol cannot use
//! `serde`; this module implements the small subset of JSON the protocol needs: objects
//! (insertion-ordered), arrays, strings with full escape handling, integer-valued
//! numbers, booleans and `null`.  Input is held to RFC 8259: numbers follow its
//! grammar (no leading zeros, no bare `.` or exponent; fractions and exponents are
//! parsed through `f64`), and control characters inside strings must be escaped.
//!
//! Parsing is linear in the input and its recursion is bounded: arrays and objects
//! nest at most [`MAX_DEPTH`] levels, so a hostile line cannot exhaust the stack.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.  Protocol
/// requests and responses nest a few levels; the cap only bounds the parser's
/// recursion on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object members in insertion order (the protocol never needs key lookup faster
    /// than a linear scan — requests are tiny).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document, requiring it to span the whole input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Append the compact JSON encoding of `self` to `out`.
    ///
    /// This is the one encoder: [`fmt::Display`] (and so `to_string`) delegates to
    /// it, and the servers encode each response into a reused buffer with it so the
    /// whole line leaves in one write.
    pub fn encode_into(&self, out: &mut String) {
        self.encode(out).expect("appending to a String cannot fail");
    }

    fn encode(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no inf/NaN; `null` keeps the output parseable, matching
                    // the standard behaviour of mainstream serialisers.
                    out.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.encode(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, key)?;
                    out.write_char(':')?;
                    value.encode(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.encode(f)
    }
}

/// Write `s` as a quoted JSON string, copying each run of bytes that needs no
/// escape in one piece.  Every byte that does need one is ASCII, so the run
/// boundaries always fall on UTF-8 character boundaries.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run_start = 0;
    for (i, byte) in s.bytes().enumerate() {
        // `None`: a control character without a short form, written as `\u00XX`.
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run_start..i])?;
        match escape {
            Some(short) => out.write_str(short)?,
            None => write!(out, "\\u{byte:04x}")?,
        }
        run_start = i + 1;
    }
    out.write_str(&s[run_start..])?;
    out.write_char('"')
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err(format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be followed by
                            // an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(0..0x20) => return Err(self.err("unescaped control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or control
                    // character in one piece.  All are ASCII, so the run ends on a
                    // character boundary of the `&str` input and needs no
                    // re-validation.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |len| self.pos + len);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A number in RFC 8259's grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            // f64::parse maps overflowing literals like 1e400 to infinity; rejecting
            // them here keeps every parsed value re-serialisable.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err(format!("invalid number '{text}'"))),
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let run = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if run == 0 {
            return Err(self.err("expected a digit in number"));
        }
        self.pos += run;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            r#"{"op":"check","dtd_id":0,"query":"a[b]"}"#,
            r#"{"ok":true,"results":[1,2,3],"none":null}"#,
            r#"["nested",{"deep":[[]]},false]"#,
            r#""escapes \" \\ \n \t é""#,
        ];
        for text in cases {
            let parsed = Json::parse(text).unwrap();
            let rendered = parsed.to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), parsed, "{text}");
        }
    }

    #[test]
    fn accessors() {
        let v =
            Json::parse(r#"{"op":"batch","queries":["a","b"],"threads":4,"warm":true}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("batch"));
        assert_eq!(v.get("threads").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("queries").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":}",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_never_escape() {
        // Overflowing literals parse to infinity in f64; the parser must reject them
        // so every accepted value re-serialises to valid JSON.
        assert!(Json::parse("1e400").is_err());
        assert!(Json::parse(r#"{"x":-1e999}"#).is_err());
        // Programmatically constructed non-finite values render as null, not "inf".
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        let rendered = Json::obj(vec![("x", Json::Num(f64::NEG_INFINITY))]).to_string();
        assert!(Json::parse(&rendered).is_ok(), "{rendered}");
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-120", -120.0),
            ("0.5", 0.5),
            ("-0.25e1", -2.5),
            ("1E+2", 100.0),
            ("1e-2", 0.01),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(value)), "{text}");
        }
        let cases = [
            ("01", 1, "leading zero in number"),
            ("-01", 2, "leading zero in number"),
            ("[00]", 2, "leading zero in number"),
            ("1.", 2, "expected a digit in number"),
            ("1.e5", 2, "expected a digit in number"),
            ("-", 1, "expected a digit in number"),
            ("-.5", 1, "expected a digit in number"),
            ("1e", 2, "expected a digit in number"),
            ("1e+", 3, "expected a digit in number"),
            (r#"{"n":-x}"#, 6, "expected a digit in number"),
        ];
        for (text, offset, message) in cases {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{text}"
            );
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    /// The per-character encoder that `Display` used before [`Json::encode_into`]
    /// existed, kept as the oracle the bulk-copy encoder must match byte for byte.
    fn oracle(value: &Json, out: &mut String) {
        use std::fmt::Write;
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                write!(out, "{}", *n as i64).unwrap()
            }
            Json::Num(n) => write!(out, "{n}").unwrap(),
            Json::Str(s) => oracle_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    oracle(item, out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    oracle_escaped(key, out);
                    out.push(':');
                    oracle(value, out);
                }
                out.push('}');
            }
        }
    }

    fn oracle_escaped(s: &str, out: &mut String) {
        use std::fmt::Write;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// SplitMix64, enough to drive a seeded corpus without an RNG crate.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random string over every control character, the two quoting characters,
    /// plain ASCII and one- to four-byte UTF-8.
    fn random_string(rng: &mut Rng) -> String {
        const EXTRA: &[char] = &['"', '\\', '/', 'a', 'Z', ' ', '\u{7f}', 'é', '€', '😀'];
        (0..rng.below(12))
            .map(|_| {
                let pick = rng.below(32 + EXTRA.len());
                if pick < 32 {
                    char::from_u32(pick as u32).unwrap()
                } else {
                    EXTRA[pick - 32]
                }
            })
            .collect()
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Json {
        const NUMBERS: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -17.0,
            0.5,
            -2.25e-7,
            1e300,
            8_999_999_999_999_999.0,
            9e15,
            -9e15,
            1.5e16,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => match rng.below(3) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 0),
                _ => Json::Num(NUMBERS[rng.below(NUMBERS.len())]),
            },
            1 => Json::Num(rng.next() as i64 as f64 / (1 << rng.below(20)) as f64),
            2 | 3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn assert_matches_oracle(value: &Json) {
        let mut expected = String::new();
        oracle(value, &mut expected);
        let mut encoded = String::from("prefix");
        value.encode_into(&mut encoded);
        assert_eq!(&encoded["prefix".len()..], expected, "{value:?}");
        assert_eq!(value.to_string(), expected, "{value:?}");
    }

    #[test]
    fn encode_into_matches_the_per_character_oracle() {
        for code in 0..0x20u32 {
            let c = char::from_u32(code).unwrap();
            assert_matches_oracle(&Json::Str(format!("{c}")));
            assert_matches_oracle(&Json::Str(format!("é{c}x{c}{c}😀")));
        }
        assert_matches_oracle(&Json::Str(String::new()));
        assert_matches_oracle(&Json::Str("\"\\\"\\".to_string()));
        let mut rng = Rng(0x2005_0613);
        for _ in 0..2000 {
            assert_matches_oracle(&random_value(&mut rng, 4));
        }
    }

    /// Write `s` as a JSON string literal the way an arbitrary client might:
    /// each character is sent raw, as its short escape or as `\uXXXX` (a surrogate
    /// pair above the BMP), chosen at random.
    fn client_encoded(rng: &mut Rng, s: &str) -> String {
        use std::fmt::Write;
        let mut out = String::from("\"");
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
            match rng.below(3) {
                0 if !must_escape => out.push(c),
                1 if short.is_some() => out.push_str(short.unwrap()),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        // Mixed-case hex digits: both are valid.
                        if rng.below(2) == 0 {
                            write!(out, "\\u{unit:04x}").unwrap();
                        } else {
                            write!(out, "\\u{unit:04X}").unwrap();
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    /// A string made of long unescaped runs of multibyte text broken by single
    /// characters that need an escape, with each escape form.
    fn long_run_string(rng: &mut Rng) -> String {
        const RUN: &[char] = &['a', 'é', '€', '😀', '/', ' ', '\u{7f}'];
        const BREAK: &[char] = &['"', '\\', '\n', '\u{8}', '\u{c}', '\u{1}', '\u{1f}'];
        let mut s = String::new();
        for _ in 0..rng.below(4) {
            let c = RUN[rng.below(RUN.len())];
            s.extend(std::iter::repeat_n(c, rng.below(500)));
            s.push(BREAK[rng.below(BREAK.len())]);
        }
        s
    }

    #[test]
    fn strings_round_trip_through_every_escape_form() {
        let mut rng = Rng(0x1308_0769);
        for i in 0..2400 {
            let s = match i % 3 {
                0 => random_string(&mut rng),
                1 => long_run_string(&mut rng),
                _ => random_string(&mut rng) + &long_run_string(&mut rng),
            };
            let ours = Json::Str(s.clone()).to_string();
            assert_eq!(Json::parse(&ours), Ok(Json::Str(s.clone())), "{ours:?}");
            let theirs = client_encoded(&mut rng, &s);
            assert_eq!(Json::parse(&theirs), Ok(Json::Str(s.clone())), "{theirs:?}");
            let line = format!(r#"{{"op":"register_dtd","dtd":{theirs},"tenant":{ours}}}"#);
            let parsed = Json::parse(&line).unwrap();
            assert_eq!(parsed.get("dtd").and_then(Json::as_str), Some(s.as_str()));
            assert_eq!(
                parsed.get("tenant").and_then(Json::as_str),
                Some(s.as_str())
            );
        }
    }

    #[test]
    fn string_error_offsets_are_pinned() {
        let cases = [
            (r#""abc"#, 4, "unterminated string"),
            (r#"{"dtd":"r -> a*; é"#, 19, "unterminated string"),
            (r#""ab\x""#, 4, "invalid escape"),
            (r#"{"q":"é\q"}"#, 9, "invalid escape"),
            (r#""\u12"#, 3, "truncated \\u escape"),
            (r#"{"q":"ab\u00"}"#, 10, "invalid \\u escape"),
            (r#""\ud83dA""#, 7, "invalid \\u escape"),
            (r#""\ud83d\u0041""#, 13, "invalid low surrogate"),
            ("\"a\u{1}b\"", 2, "unescaped control character in string"),
            ("\"\u{0}\"", 1, "unescaped control character in string"),
            (
                "{\"q\":\"é\tx\"}",
                8,
                "unescaped control character in string",
            ),
            ("\"ab\ncd\"", 3, "unescaped control character in string"),
            ("\"\\n\u{1f}\"", 3, "unescaped control character in string"),
        ];
        for (text, offset, message) in cases {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{text}"
            );
        }
    }

    #[test]
    fn a_one_mebibyte_string_decodes_in_linear_time() {
        let line = format!(r#"{{"op":"health","pad":"{}"}}"#, "é".repeat(1 << 19));
        let start = std::time::Instant::now();
        let parsed = Json::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            parsed.get("pad").and_then(Json::as_str).map(str::len),
            Some(1 << 20)
        );
        assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nest deeper"), "{err}");
        let objects = format!(
            r#"{}1{}"#,
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Json::parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        // A hostile line of a million brackets answers the same error, without
        // recursing a million frames deep.
        let hostile = "[".repeat(1 << 20);
        assert_eq!(Json::parse(&hostile).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn control_characters_escape_on_output() {
        let s = Json::Str("a\u{1}b".to_string()).to_string();
        assert_eq!(s, "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\u{1}b"));
    }
}
