//! Generic hand-rolled little-endian byte codec.
//!
//! This is the bottom layer shared by the wire protocol (`scope-net`) and
//! the per-type `Codec` layouts in `cloudviews::codec`, which also produce
//! the opaque `&[u8]` payloads the durable store (`scope-store`) frames: an
//! infallible append-only encoder plus a bounds-checked cursor decoder. No
//! serde — the workspace's `serde` is a no-op shim, and both the front door
//! and the write-ahead log need byte-for-byte stable encodings (the loopback
//! acceptance test compares in-process and over-the-wire responses by their
//! encoded bytes; recovery compares state fingerprints over canonical
//! encodings).
//!
//! Conventions:
//!
//! * all integers little-endian; `usize` travels as `u64`;
//! * `f64` as IEEE bits (`to_bits`/`from_bits`) — exact round-trip;
//! * strings as `u32` length + UTF-8 bytes, capped at [`MAX_STR`];
//! * sequences as `u32` count + elements, capped at [`MAX_SEQ`];
//! * options as a `0`/`1` byte + payload;
//! * enums as a `u8` tag + variant payload;
//! * recursive structures are depth-limited at [`MAX_EXPR_DEPTH`] on
//!   decode ([`Dec::descend`]/[`Dec::ascend`]), so an adversarial payload
//!   cannot overflow the stack.
//!
//! Every decode is bounds-checked and returns [`CodecError`] rather than
//! panicking: the decoder is the first line of defense against hostile
//! bytes on the wire and torn records in the log.

use std::fmt;

/// Cap on any single encoded string (1 MiB).
pub const MAX_STR: u32 = 1 << 20;

/// Cap on any single sequence length (64 Ki elements).
pub const MAX_SEQ: u32 = 1 << 16;

/// Cap on recursive nesting depth accepted by the decoder.
pub const MAX_EXPR_DEPTH: u32 = 64;

/// A payload that did not decode (truncated, bad tag, trailing bytes, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Builds a [`CodecError`] from anything stringy (the decoder's error
/// constructor, shared by the typed layers above).
pub fn malformed(what: impl Into<String>) -> CodecError {
    CodecError(what.into())
}

/// Byte-buffer encoder. Infallible: callers build payloads by chaining
/// `put_*` calls and take [`Enc::buf`] at the end.
#[derive(Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty buffer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as IEEE bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a sequence length prefix.
    pub fn put_seq(&mut self, len: usize) {
        self.put_u32(len as u32);
    }
}

/// Bounds-checked cursor decoder over a payload slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Dec<'a> {
    /// Starts decoding at the head of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Fails unless every payload byte was consumed — trailing garbage is
    /// a protocol violation, not padding.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }

    /// Enters one level of recursive decoding, failing past
    /// [`MAX_EXPR_DEPTH`]. Pair every successful call with
    /// [`Dec::ascend`].
    pub fn descend(&mut self) -> Result<(), CodecError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(malformed(format!("expr nesting exceeds {MAX_EXPR_DEPTH}")));
        }
        Ok(())
    }

    /// Leaves one level of recursive decoding.
    pub fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(self.u32()? as i32)
    }

    /// Reads an `f64` from IEEE bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte; anything but 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bool byte {b}"))),
        }
    }

    /// Reads a `usize` encoded as `u64`, rejecting values above `cap`.
    pub fn usize_capped(&mut self, cap: usize) -> Result<usize, CodecError> {
        let v = self.u64()?;
        if v > cap as u64 {
            return Err(malformed(format!("usize {v} exceeds cap {cap}")));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()?;
        if len > MAX_STR {
            return Err(malformed(format!("string length {len} exceeds {MAX_STR}")));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }

    /// Reads a sequence length prefix, rejecting lengths above [`MAX_SEQ`].
    pub fn seq(&mut self) -> Result<usize, CodecError> {
        let len = self.u32()?;
        if len > MAX_SEQ {
            return Err(malformed(format!(
                "sequence length {len} exceeds {MAX_SEQ}"
            )));
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_i32(-7);
        e.put_f64(-0.125);
        e.put_bool(true);
        e.put_usize(99);
        e.put_str("héllo");
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.i32().unwrap(), -7);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert_eq!(d.usize_capped(1000).unwrap(), 99);
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Enc::new();
        e.put_u32(1);
        e.put_u8(0);
        let mut d = Dec::new(&e.buf);
        d.u32().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn truncation_and_caps_are_errors_not_panics() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u32().is_err());
        // Oversized string length.
        let mut e = Enc::new();
        e.put_u32(MAX_STR + 1);
        assert!(Dec::new(&e.buf).str().is_err());
        // Oversized sequence length.
        let mut e = Enc::new();
        e.put_u32(MAX_SEQ + 1);
        assert!(Dec::new(&e.buf).seq().is_err());
        // Bad bool byte.
        assert!(Dec::new(&[9]).bool().is_err());
        // usize over cap.
        let mut e = Enc::new();
        e.put_u64(11);
        assert!(Dec::new(&e.buf).usize_capped(10).is_err());
    }

    #[test]
    fn depth_guard_trips_past_limit() {
        let mut d = Dec::new(&[]);
        for _ in 0..MAX_EXPR_DEPTH {
            d.descend().unwrap();
        }
        assert!(d.descend().is_err());
    }
}
