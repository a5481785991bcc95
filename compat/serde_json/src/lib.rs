//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`] and
//! [`from_str_with_unknown`].
//!
//! Writing and reading go straight between a type and JSON text: the
//! writer here is the `serde` stand-in's [`serde::Sink`], and the parser
//! is its [`serde::Source`], so no [`Value`] tree is built on the way.
//! `from_str::<Value>` and `to_string(&value)` still read and write
//! trees, for callers that want one.
//!
//! Numbers are written losslessly: integers keep full 64-bit precision and
//! floats use Rust's shortest-round-trip formatting, so
//! `from_str(&to_string(x))` reproduces every finite float exactly.
//! Non-finite floats serialize as `null` (JSON has no representation) and
//! deserialize back as NaN. Maps with non-string keys are arrays of
//! `[key, value]` pairs (see the `serde` stand-in's docs).
//!
//! Parsing accepts at most 128 levels of nesting, and checks the syntax
//! of every byte, also inside values the target type skips. A syntax
//! error is reported over any type error, as if the whole text had been
//! parsed before being read.

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Sink, Source, Token};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The value tree, under the name real `serde_json` exports it as.
pub use serde::Value;

/// Serialization or parse error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, None))
}

/// Serialize `value` to 2-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(write(value, Some(2)))
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let (value, _) = read(s, false)?;
    Ok(value?)
}

/// The raw entries of a top-level object that the target type does not
/// declare: each key, and its value's JSON text.
pub type Unknown<'s> = Vec<(Cow<'s, str>, &'s str)>;

/// Parse JSON text like [`from_str`], and also hand back the top-level
/// object's keys that `T` does not declare, each with its value's text,
/// in order.
///
/// The two failures stay apart: the outer error is a syntax error (the
/// text is not one JSON value), the inner one is `T`'s own type error.
/// The unknown keys are there either way.
pub fn from_str_with_unknown<T: Deserialize>(
    s: &str,
) -> Result<(Result<T, DeError>, Unknown<'_>), Error> {
    read(s, true)
}

fn read<T: Deserialize>(
    s: &str,
    keep_unknown: bool,
) -> Result<(Result<T, DeError>, Unknown<'_>), Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
        error: None,
        keep_unknown,
        unknown: Vec::new(),
    };
    let value = T::deserialize(&mut p);
    p.skip_ws();
    if p.pos != p.bytes.len() {
        p.fail(format!("trailing characters at byte {}", p.pos));
    }
    match p.error {
        Some(e) => Err(e),
        None => Ok((value, p.unknown)),
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write<T: Serialize + ?Sized>(value: &T, indent: Option<usize>) -> String {
    let mut w = Writer {
        out: String::new(),
        indent,
        depth: 0,
        empty: false,
    };
    value.serialize(&mut w);
    w.out
}

/// JSON text output, compact or indented.
struct Writer {
    out: String,
    /// Spaces per level, when pretty-printing.
    indent: Option<usize>,
    /// Arrays and objects currently open.
    depth: usize,
    /// Whether the innermost open array or object has no entry yet.
    empty: bool,
}

impl Writer {
    fn newline_indent(&mut self) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', w * self.depth));
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// Start an entry: a separator after the first, then the indent.
    fn entry(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline_indent();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline_indent();
        }
        self.empty = false;
        self.out.push(bracket);
    }

    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                b if b < 0x20 => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            run = i + 1;
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(esc);
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

impl Sink for Writer {
    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    fn int(&mut self, n: i64) {
        let _ = write!(self.out, "{n}");
    }

    fn uint(&mut self, n: u64) {
        let _ = write!(self.out, "{n}");
    }

    fn float(&mut self, f: f64) {
        if f.is_finite() {
            // `{}` on f64 is the shortest string that parses back to the
            // same bits, so floats round-trip exactly.
            let _ = write!(self.out, "{f}");
        } else {
            self.out.push_str("null");
        }
    }

    fn str(&mut self, s: &str) {
        self.escaped(s);
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn element(&mut self) {
        self.entry();
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn begin_object(&mut self) {
        self.open('{');
    }

    fn key(&mut self, key: &str) {
        self.entry();
        self.escaped(key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
    }

    fn end_object(&mut self) {
        self.close('}');
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts (upstream
/// serde_json's limit). Reading recurses once per level, so without a
/// cap one line of `[` bytes overflows the stack of whatever thread
/// decodes it.
const MAX_DEPTH: usize = 128;

/// JSON text as a [`Source`].
struct Parser<'de> {
    text: &'de str,
    bytes: &'de [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
    /// The first syntax error. Once set, the position sits at the end of
    /// the text, so every later call fails too.
    error: Option<Error>,
    /// Whether to keep the top-level object's undeclared keys.
    keep_unknown: bool,
    unknown: Unknown<'de>,
}

impl<'de> Parser<'de> {
    /// Record a syntax error (only the first counts) and stop parsing.
    fn fail(&mut self, msg: impl fmt::Display) -> DeError {
        let msg = msg.to_string();
        if self.error.is_none() {
            self.error = Some(Error(msg.clone()));
        }
        self.pos = self.bytes.len();
        DeError::msg(msg)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Leave the innermost array or object at its closing bracket.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    fn parse_string(&mut self) -> Result<Cow<'de, str>, DeError> {
        self.expect(b'"')?;
        // Borrowed from the text until the first escape.
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // `start` and `pos` both sit next to an ASCII byte, so they
            // are char boundaries.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.parse_unicode_escape()?),
                        other => return Err(self.fail(format!("bad escape '\\{}'", other as char))),
                    }
                }
                _ => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape (its `\u` already read), joining a
    /// surrogate pair. A high surrogate with no `\u` after it, or a lone
    /// low one, reads as U+FFFD.
    fn parse_unicode_escape(&mut self) -> Result<char, DeError> {
        let hi = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.eat_literal("\\u") {
                let lo = self.parse_hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(
                        self.fail(format!("\\u{hi:04x} is not followed by a low surrogate"))
                    );
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                0xFFFD
            }
        } else {
            hi
        };
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    /// Four ASCII hex digits. (`u32::from_str_radix` alone would also
    /// take a leading `+`.)
    fn parse_hex4(&mut self) -> Result<u32, DeError> {
        let end = self.pos + 4;
        let Some(digits) = self.bytes.get(self.pos..end) else {
            return Err(self.fail("truncated \\u escape"));
        };
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.fail("bad \\u escape"));
        }
        let v = u32::from_str_radix(&self.text[self.pos..end], 16).expect("four hex digits");
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Token<'de>, DeError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The digits' value, accumulated while lexing: `None` once it
        // overflows a `u64`.
        let mut digits = Some(0u64);
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    digits = digits
                        .and_then(|n| n.checked_mul(10))
                        .and_then(|n| n.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if let (false, false, Some(n)) = (is_float, negative, digits) {
            return Ok(Token::UInt(n));
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Token::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Token::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Token::Float(f)),
            Err(_) => Err(self.fail(format!("bad number {text:?}"))),
        }
    }
}

impl<'de> Source<'de> for Parser<'de> {
    type Mark = (usize, usize);

    fn token(&mut self) -> Result<Token<'de>, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Token::Null),
            Some(b't') if self.eat_literal("true") => Ok(Token::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Token::Bool(false)),
            Some(b'"') => self.parse_string().map(Token::Str),
            Some(b'[') => Ok(Token::Array),
            Some(b'{') => Ok(Token::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(self.fail(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn null(&mut self) -> Result<bool, DeError> {
        self.skip_ws();
        Ok(self.eat_literal("null"))
    }

    fn open(&mut self) -> Result<(), DeError> {
        if self.depth == MAX_DEPTH {
            return Err(self.fail(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn next_element(&mut self, first: bool) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.fail(format!("expected ',' or ']' at byte {}", self.pos))),
        }
    }

    fn next_key(&mut self, first: bool) -> Result<Option<Cow<'de, str>>, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.fail(format!("expected ',' or '}}' at byte {}", self.pos))),
        }
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    fn mark(&self) -> Self::Mark {
        (self.pos, self.depth)
    }

    fn rewind(&mut self, (pos, depth): Self::Mark) {
        self.pos = pos;
        self.depth = depth;
    }

    /// One pass over a run of plain integers, as `next_element` and
    /// `token` would read them, in one loop over a local position. At
    /// anything else (an error included) it steps back before the
    /// element's separator and leaves the element to them. Digits
    /// accumulate with wrapping arithmetic, exact up to 19 digits; a
    /// longer number goes to `parse_number` too.
    fn uint_run(&mut self, max: u64, mut push: impl FnMut(u64)) -> bool {
        let bytes = self.bytes;
        let mut pos = self.pos;
        let skip_ws = |pos: &mut usize| {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
                *pos += 1;
            }
        };
        let mut first = true;
        loop {
            let at = pos;
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b']') => {
                    self.pos = pos;
                    self.close();
                    return true;
                }
                Some(b',') if !first => {
                    pos += 1;
                    skip_ws(&mut pos);
                }
                _ if first => {}
                _ => {
                    self.pos = at;
                    return false;
                }
            }
            let start = pos;
            let mut n = 0u64;
            while let Some(&b @ b'0'..=b'9') = bytes.get(pos) {
                n = n.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                pos += 1;
            }
            // Where `parse_number` would read on, or make no `UInt`.
            let longer = matches!(bytes.get(pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
            if !(1..=19).contains(&(pos - start)) || longer || n > max {
                self.pos = at;
                return false;
            }
            push(n);
            first = false;
        }
    }

    fn skip_unknown(&mut self, key: Cow<'de, str>) -> Result<(), DeError> {
        if !(self.keep_unknown && self.depth == 1) {
            return self.skip();
        }
        self.skip_ws();
        let start = self.pos;
        self.skip()?;
        self.unknown.push((key, &self.text[start..self.pos]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(from_str::<i64>(&to_string(&-42i64).unwrap()).unwrap(), -42);
        let f = std::f64::consts::PI / 25.5;
        assert_eq!(from_str::<f64>(&to_string(&f).unwrap()).unwrap(), f);
        assert!(from_str::<f64>(&to_string(&f64::NAN).unwrap())
            .unwrap()
            .is_nan());
        let s = "a \"quoted\" line\nwith\ttabs and \u{1F600}".to_string();
        assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<(u32, String)>> =
            vec![Some((1, "one".into())), None, Some((2, "two".into()))];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<Option<(u32, String)>>>(&json).unwrap(), v);

        let mut m = std::collections::HashMap::new();
        m.insert((1u32, 2u32), 0.5f64);
        m.insert((3, 4), 1.5);
        let json = to_string_pretty(&m).unwrap();
        let back: std::collections::HashMap<(u32, u32), f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Objects count too, and the cap holds far past it: no stack
        // overflow, however deep the input.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_broken_pairs_are_errors() {
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00""#).unwrap(),
            "\u{1F600}"
        );
        for lo in ["0041", "d800", "e000"] {
            let text = format!(r#""\ud800\u{lo}""#);
            assert!(from_str::<String>(&text).is_err(), "{text}");
        }
        // Four hex digits, not a signed number.
        assert!(from_str::<String>(r#""\u+fff""#).is_err());
    }

    #[test]
    fn integer_runs_read_like_one_element_at_a_time() {
        // Text takes a run of plain integers in one pass; a tree reads
        // each element on its own. Both must give the same value or the
        // same error text.
        fn agree<T: Deserialize + Serialize>(text: &str) {
            let outcome = |read: Result<Vec<T>, Error>| {
                read.map(|v| to_string(&v).unwrap())
                    .map_err(|e| e.to_string())
            };
            let direct = outcome(from_str(text));
            let tree = outcome(
                from_str::<Value>(text).and_then(|v| Vec::<T>::from_value(&v).map_err(Error::from)),
            );
            assert_eq!(direct, tree, "{text:?}");
        }
        let lexemes = [
            "01",
            "-0",
            "-1",
            "1.0",
            "1e2",
            "255",
            "256",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            " 7 ",
            "\n7\n",
            "[]",
            "\"7\"",
            "null",
            "7,",
            "7 8",
            "7x",
            "",
        ];
        for lexeme in lexemes {
            for text in [
                format!("[{lexeme}]"),
                format!("[1,{lexeme}]"),
                format!("[1, 2,{lexeme},3]"),
                format!("[{lexeme},3]"),
                format!("[1,{lexeme}"),
            ] {
                agree::<u8>(&text);
                agree::<u32>(&text);
                agree::<u64>(&text);
            }
        }
        assert_eq!(from_str::<Vec<u32>>("[ 1 ,\n2 ]").unwrap(), vec![1, 2]);
        assert_eq!(from_str::<Vec<u32>>("[]").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn pretty_output_parses() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u8>>>(&pretty).unwrap(), v);
    }
}
