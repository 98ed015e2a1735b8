//! JSON text writer helpers and the pull parser the derived impls use.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Write};

/// Nesting allowed inside a skipped (unknown-key) value before the
/// input is rejected; typed values nest only as deep as their types.
const MAX_SKIP_DEPTH: u32 = 128;

/// A (de)serialization failure: message plus input byte offset.
#[derive(Debug)]
pub struct Error {
    msg: String,
    at: usize,
}

impl Error {
    /// An error at input offset `at`.
    pub fn new(msg: impl Into<String>, at: usize) -> Error {
        Error {
            msg: msg.into(),
            at,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::new(e.to_string(), 0)
    }
}

/// Write an unsigned integer in decimal.
pub fn write_u64<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.write_all(&buf[i..])
}

/// Write a JSON string literal, escaping quotes, backslashes and
/// control characters.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    w.write_all(b"\"")?;
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => {
                w.write_all(&bytes[run..i])?;
                w.write_all(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[(b >> 4) as usize],
                    HEX[(b & 15) as usize],
                ])?;
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        w.write_all(&bytes[run..i])?;
        w.write_all(esc)?;
        run = i + 1;
    }
    w.write_all(&bytes[run..])?;
    w.write_all(b"\"")
}

/// Pull parser over one JSON document held in a `&str`.
pub struct Parser<'de> {
    src: &'de str,
    pos: usize,
}

impl<'de> Parser<'de> {
    /// A parser at the start of `src`.
    pub fn new(src: &'de str) -> Parser<'de> {
        Parser { src, pos: 0 }
    }

    /// Current byte offset (for error messages).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// An error at the current offset.
    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error::new(msg, self.pos)
    }

    fn bytes(&self) -> &'de [u8] {
        self.src.as_bytes()
    }

    /// Skip whitespace and return the next byte without consuming it.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consume `want` (after whitespace) or fail.
    pub fn expect(&mut self, want: u8) -> Result<(), Error> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(self.error(format!(
                "expected `{}`, found `{}`",
                want as char, b as char
            ))),
            None => Err(self.error(format!("expected `{}`, found end of input", want as char))),
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Consume `null` if it is next; `Ok(false)` leaves the cursor.
    pub fn eat_null(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(true),
            Some(b'n') => Err(self.error("invalid literal")),
            Some(_) => Ok(false),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parse `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool, Error> {
        self.peek();
        if self.eat_word("true") {
            Ok(true)
        } else if self.eat_word("false") {
            Ok(false)
        } else {
            Err(self.error("expected a boolean"))
        }
    }

    fn digits(&mut self) -> Result<u64, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(d) = bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.error("integer overflow"))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected an integer"));
        }
        if matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.error("expected an integer, found a float"));
        }
        Ok(v)
    }

    /// Parse a non-negative integer.
    pub fn parse_u64(&mut self) -> Result<u64, Error> {
        self.peek();
        self.digits()
    }

    /// Parse a possibly negative integer.
    pub fn parse_i64(&mut self) -> Result<i64, Error> {
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let at = self.pos;
        let mag = self.digits()?;
        let v = if neg {
            0i64.checked_sub_unsigned(mag)
        } else {
            i64::try_from(mag).ok()
        };
        v.ok_or_else(|| Error::new("integer overflow", at))
    }

    /// Parse any JSON number as `f64` (`null` reads as NaN, the way
    /// non-finite values are written).
    pub fn parse_f64(&mut self) -> Result<f64, Error> {
        if self.eat_null()? {
            return Ok(f64::NAN);
        }
        let bytes = self.bytes();
        let start = self.pos;
        while matches!(
            bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| Error::new("expected a number", start))
    }

    /// Parse a string literal; borrows from the input unless it
    /// contains escapes.
    pub fn parse_str(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        let mut owned: Option<String> = None;
        let mut run = start;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    // Quote and backslash are ASCII, so `run..pos` sits
                    // on char boundaries of the source `&str`.
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                        None => Cow::Borrowed(tail),
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    owned.get_or_insert_with(String::new).push(c);
                    run = self.pos;
                }
                0x00..=0x1f => return Err(self.error("control character in string")),
                _ => self.pos += 1,
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let Some(&b) = self.bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.eat_word("\\u") {
                        return Err(self.error("lone surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid surrogate pair"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Inside `{ … }` (opening brace already consumed): the next key,
    /// with its `:` consumed, or `None` once the closing brace is.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'de, str>>, Error> {
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        if !std::mem::take(first) {
            self.expect(b',')?;
        }
        let key = self.parse_str()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Inside `[ … ]` (opening bracket already consumed): true when an
    /// element follows, false once the closing bracket is consumed.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        if !std::mem::take(first) {
            self.expect(b',')?;
        }
        Ok(true)
    }

    /// Skip one value of any shape (the value of an unknown key).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.skip_nested(0)
    }

    fn skip_nested(&mut self, depth: u32) -> Result<(), Error> {
        if depth > MAX_SKIP_DEPTH {
            return Err(self.error("value nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut first = true;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_nested(depth + 1)?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.pos += 1;
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_nested(depth + 1)?;
                }
                Ok(())
            }
            Some(b'"') => self.parse_str().map(drop),
            Some(b't' | b'f') => self.parse_bool().map(drop),
            Some(b'n') => self.eat_null().map(drop),
            Some(b'-' | b'0'..=b'9') => self.parse_f64().map(drop),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Fail unless only whitespace remains.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }
}
