//! Little byte codec used by the catalog, the log records and the engine's
//! record formats.
//!
//! Fixed-width little-endian integers, LEB128 varints, and length-prefixed
//! byte strings over a growable buffer / cursor pair.

use crate::error::{Result, StorageError};

/// Append-only encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(n),
        }
    }

    /// Finish, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                break;
            }
            self.buf.push(b | 0x80);
        }
        self
    }

    /// Write varint-length-prefixed bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Write a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Write raw bytes with no length prefix.
    pub fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(b);
        self
    }
}

/// Cursor decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Begin decoding `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StorageError::Catalog("decode past end of buffer".into()))?;
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(StorageError::Catalog("varint overflow".into()));
            }
        }
    }

    /// Read varint-length-prefixed bytes (borrowed).
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.varint()? as usize;
        self.take(n)
    }

    /// Read a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| StorageError::Catalog("invalid UTF-8 in stored string".into()))
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_everything() {
        let mut e = Enc::new();
        e.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(u64::MAX)
            .varint(0)
            .varint(127)
            .varint(128)
            .varint(u64::MAX)
            .bytes(b"hello")
            .str("wörld");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.varint().unwrap(), 0);
        assert_eq!(d.varint().unwrap(), 127);
        assert_eq!(d.varint().unwrap(), 128);
        assert_eq!(d.varint().unwrap(), u64::MAX);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "wörld");
        assert!(d.is_done());
    }

    #[test]
    fn decode_past_end_errors() {
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.u16().unwrap(), 0x0201);
        assert!(d.u8().is_err());
    }

    #[test]
    fn varint_sizes() {
        for (v, n) in [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut e = Enc::new();
            e.varint(v);
            assert_eq!(e.len(), n, "varint({v})");
        }
    }
}
