//! Byte-level put/get primitives for hand-written record codecs: tag
//! bytes, LEB128 and zigzag integers, fixed little-endian words, and
//! length-prefixed strings and lists.
//!
//! Everything [`Put`] writes is escaped SLIP-style, so an encoded record
//! never contains [`END`] (`\n`) and can be delimited by that one byte:
//! `END` is written as `ESC ESC_END`, `ESC` (0xDB) as `ESC ESC_ESC`, and
//! every other byte as itself. [`Get`] undoes the escape as it reads, in
//! the same pass that decodes the fields, so a decoder never copies a
//! record into an unescaped intermediate. Most records hold no reserved
//! byte at all; `Get` finds that out once, up front, and then reads them
//! as they are.
//!
//! [`Get`] is the hostile-input half, and its reads cannot fail: a read
//! past the end, a malformed escape or an integer too wide for its field
//! yields a zero value and marks the record invalid, and [`Get::end`]
//! reports it. A decoder therefore reads straight into the value it
//! builds, with no error path per field, and checks once. A length field
//! is checked against the bytes left before anything is reserved: every
//! string byte and every list element takes at least one byte of the
//! record, so a length that lies reserves at most one element per byte
//! left. The error carries only its kind, so a rejected record allocates
//! nothing of its own.

use std::io;

/// The delimiter an encoded record never contains.
pub const END: u8 = b'\n';
/// The escape byte: the next byte names which reserved byte was meant.
pub const ESC: u8 = 0xDB;
/// `ESC ESC_END` stands for [`END`].
const ESC_END: u8 = 0xDC;
/// `ESC ESC_ESC` stands for [`ESC`].
const ESC_ESC: u8 = 0xDD;

/// The one error a decoder reports: the record is not a valid encoding.
pub fn invalid() -> io::Error {
    io::ErrorKind::InvalidData.into()
}

/// Appends escaped fields to a byte buffer.
#[derive(Debug)]
pub struct Put<'a>(pub &'a mut Vec<u8>);

impl Put<'_> {
    /// One byte, escaped if it is reserved.
    #[inline]
    pub fn u8(&mut self, b: u8) {
        match b {
            END => self.0.extend_from_slice(&[ESC, ESC_END]),
            ESC => self.0.extend_from_slice(&[ESC, ESC_ESC]),
            b => self.0.push(b),
        }
    }

    /// `false` as 0, `true` as 1.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.u8(b.into());
    }

    /// An unsigned integer as LEB128: seven bits a byte, low bits first,
    /// so small values take one byte.
    #[inline]
    pub fn var(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8);
    }

    /// A signed integer, zigzag-mapped onto [`Put::var`] so small
    /// magnitudes of either sign stay short.
    #[inline]
    pub fn zig(&mut self, v: i64) {
        self.var(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Eight little-endian bytes: for values that are all bits (hashes,
    /// ids minted by mixing), where LEB128 would spend ten.
    #[inline]
    pub fn u64le(&mut self, v: u64) {
        let word = v.to_le_bytes();
        match has_reserved(&word) {
            false => self.0.extend_from_slice(&word),
            true => word.iter().for_each(|&b| self.u8(b)),
        }
    }

    /// A list or string length.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.var(n as u64);
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        match has_reserved(b) {
            false => self.0.extend_from_slice(b),
            true => b.iter().for_each(|&c| self.u8(c)),
        }
    }

    /// Length-prefixed UTF-8.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Whether `buf` holds [`ESC`] or [`END`], a word at a time.
#[inline]
fn has_reserved(buf: &[u8]) -> bool {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let word = |w: &[u8]| u64::from_ne_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
    // Nonzero iff some byte of `w` is zero (the classic SWAR test).
    let zero_byte = |w: u64| w.wrapping_sub(ONES) & !w & HIGHS;
    let reserved =
        |w: u64| zero_byte(w ^ (ONES * u64::from(ESC))) | zero_byte(w ^ (ONES * u64::from(END)));
    if buf.len() < 8 {
        return buf.iter().any(|&b| b == ESC || b == END);
    }
    // The last word overlaps the one before it rather than leave a tail.
    let last = reserved(word(&buf[buf.len() - 8..]));
    buf.chunks_exact(8)
        .fold(last, |hit, w| hit | reserved(word(w)))
        != 0
}

/// Reads escaped fields off an encoded record, front to back. Reads
/// never fail; see the module documentation for how a bad record is
/// reported.
#[derive(Debug)]
pub struct Get<'a> {
    buf: &'a [u8],
    /// The next byte to read; past `buf.len()` once the record has proved
    /// invalid, so every later read comes up empty.
    pos: usize,
    /// The record holds a reserved byte, so reads must look for escapes.
    escaped: bool,
}

impl<'a> Get<'a> {
    /// A reader over one whole record (its delimiter already stripped).
    #[inline]
    pub fn new(buf: &'a [u8]) -> Get<'a> {
        Get {
            buf,
            pos: 0,
            escaped: has_reserved(buf),
        }
    }

    /// Mark the record invalid.
    #[cold]
    pub fn fail(&mut self) {
        self.pos = self.buf.len() + 1;
    }

    /// Bytes not read yet.
    fn left(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// One byte, unescaped. A bare [`END`] inside a record, and an escape
    /// at its end or followed by anything but the two escape codes, make
    /// it invalid.
    #[inline]
    pub fn u8(&mut self) -> u8 {
        match self.buf.get(self.pos) {
            Some(&b) if !self.escaped => {
                self.pos += 1;
                b
            }
            _ => self.u8_escaped(),
        }
    }

    #[cold]
    fn u8_escaped(&mut self) -> u8 {
        let Some(&b) = self.buf.get(self.pos) else {
            self.fail();
            return 0;
        };
        self.pos += 1;
        let code = match b {
            ESC => self.buf.get(self.pos).copied(),
            END => None,
            b => return b,
        };
        self.pos += 1;
        match code {
            Some(ESC_END) => END,
            Some(ESC_ESC) => ESC,
            _ => {
                self.fail();
                0
            }
        }
    }

    /// A byte that must be 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> bool {
        match self.u8() {
            0 => false,
            1 => true,
            _ => {
                self.fail();
                false
            }
        }
    }

    /// A LEB128 integer; more than 64 bits of value is invalid.
    #[inline]
    pub fn var(&mut self) -> u64 {
        // Most integers on the wire are one byte.
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 && !self.escaped => {
                self.pos += 1;
                b.into()
            }
            _ => self.var_long(),
        }
    }

    fn var_long(&mut self) -> u64 {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8();
            let bits = u64::from(b & 0x7F);
            // The tenth byte has room for one bit.
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return v;
            }
        }
        self.fail();
        0
    }

    /// A LEB128 integer that must fit 32 bits.
    #[inline]
    pub fn var_u32(&mut self) -> u32 {
        let v = self.var();
        u32::try_from(v).unwrap_or_else(|_| {
            self.fail();
            0
        })
    }

    /// A zigzag integer.
    #[inline]
    pub fn zig(&mut self) -> i64 {
        let v = self.var();
        (v >> 1) as i64 ^ -((v & 1) as i64)
    }

    /// A zigzag integer that must fit 32 bits.
    #[inline]
    pub fn zig_i32(&mut self) -> i32 {
        let v = self.zig();
        i32::try_from(v).unwrap_or_else(|_| {
            self.fail();
            0
        })
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn u64le(&mut self) -> u64 {
        let mut word = [0u8; 8];
        match self.buf.get(self.pos..self.pos + 8) {
            Some(raw) if !self.escaped => {
                self.pos += 8;
                word.copy_from_slice(raw);
            }
            _ => word.iter_mut().for_each(|b| *b = self.u8()),
        }
        u64::from_le_bytes(word)
    }

    /// A list or string length. One longer than the bytes left makes the
    /// record invalid and reads as 0 — the bound that keeps a lying length
    /// from reserving more than one element per byte left.
    #[inline]
    pub fn count(&mut self) -> usize {
        let n = self.var();
        if n > self.left() as u64 {
            self.fail();
            return 0;
        }
        n as usize
    }

    /// Length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self) -> Vec<u8> {
        let n = self.count();
        match self.buf.get(self.pos..self.pos + n) {
            Some(raw) if !self.escaped || !has_reserved(raw) => {
                self.pos += n;
                raw.to_vec()
            }
            _ => {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(self.u8());
                }
                out
            }
        }
    }

    /// Length-prefixed UTF-8.
    #[inline]
    pub fn str(&mut self) -> String {
        String::from_utf8(self.bytes()).unwrap_or_else(|_| {
            self.fail();
            String::new()
        })
    }

    /// A length-prefixed list whose elements `item` reads. Reading stops
    /// at the first element that makes the record invalid.
    #[inline(always)]
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.count();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n && self.pos <= self.buf.len() {
            out.push(item(self));
        }
        out
    }

    /// The record was valid and has been read to its last byte.
    #[inline]
    pub fn end(&self) -> io::Result<()> {
        match self.pos == self.buf.len() {
            true => Ok(()),
            false => Err(invalid()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdx::{check, SplitMix64};

    fn encoded(f: impl FnOnce(&mut Put<'_>)) -> Vec<u8> {
        let mut buf = Vec::new();
        f(&mut Put(&mut buf));
        buf
    }

    #[test]
    fn reserved_bytes_never_reach_the_record() {
        let buf = encoded(|p| {
            p.u8(END);
            p.u8(ESC);
            p.str("a\nb\u{DB}");
            p.bytes(&[END, ESC, ESC_END, ESC_ESC]);
            p.u64le(0x0A0A_DBDB_0A0A_DBDB);
        });
        assert!(!buf.contains(&END), "{buf:?}");
        let mut g = Get::new(&buf);
        assert_eq!((g.u8(), g.u8()), (END, ESC));
        assert_eq!(g.str(), "a\nb\u{DB}");
        assert_eq!(g.bytes(), [END, ESC, ESC_END, ESC_ESC]);
        assert_eq!(g.u64le(), 0x0A0A_DBDB_0A0A_DBDB);
        g.end().unwrap();
    }

    #[test]
    fn the_reserved_byte_scan_finds_them_anywhere() {
        for len in 0..40 {
            for at in 0..len {
                for b in [ESC, END] {
                    let mut buf = vec![b'x'; len];
                    buf[at] = b;
                    assert!(has_reserved(&buf), "{len} {at} {b}");
                }
            }
            assert!(!has_reserved(&vec![0xDA; len]));
        }
    }

    #[test]
    fn integers_round_trip_at_every_width() {
        check(0xC0DEC, 2_000, |rng: &mut SplitMix64| {
            // Every bit length, not just the ones a uniform draw favours.
            let v = rng.next_u64() >> rng.gen_range(0..64);
            let s = v as i64;
            let buf = encoded(|p| {
                p.var(v);
                p.zig(s);
                p.zig(s.wrapping_neg());
                p.u64le(v);
            });
            assert!(!buf.contains(&END));
            let mut g = Get::new(&buf);
            assert_eq!(g.var(), v);
            assert_eq!(g.zig(), s);
            assert_eq!(g.zig(), s.wrapping_neg());
            assert_eq!(g.u64le(), v);
            g.end().unwrap();
        });
        assert_eq!(encoded(|p| p.var(127)), [127]);
        assert_eq!(encoded(|p| p.zig(-1)), [1]);
        assert_eq!(encoded(|p| p.var(u64::MAX)).len(), 10);
    }

    #[test]
    fn malformed_records_are_invalid() {
        let bad: [&[u8]; 8] = [
            &[],          // nothing to read
            &[ESC],       // dangling escape
            &[ESC, 0x00], // unknown escape code
            &[END],       // bare delimiter
            &[0x80; 11],  // LEB128 past 64 bits
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[5, b'a', b'b'], // a length that lies
            &[2, 0xC3, 0x28], // not UTF-8
        ];
        for buf in bad {
            let mut g = Get::new(buf);
            assert_eq!(g.str(), "", "{buf:?}");
            assert_eq!(g.end().unwrap_err().kind(), io::ErrorKind::InvalidData);
            // Once invalid, every read comes up empty and it stays invalid.
            assert_eq!((g.var(), g.u64le(), g.bytes()), (0, 0, vec![]));
            assert!(g.end().is_err());
        }
        let wide = [0x80, 0x80, 0x80, 0x80, 0x10];
        let mut g = Get::new(&wide);
        assert_eq!(g.var_u32(), 0);
        assert!(g.end().is_err());
        let mut g = Get::new(&[2]);
        assert!(!g.bool());
        assert!(g.end().is_err());
        assert!(Get::new(&[0, 0]).end().is_err(), "unread bytes");
    }
}
