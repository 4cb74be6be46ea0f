//! Bounds-checked little-endian wire primitives.
//!
//! [`Writer`] appends fixed-width little-endian values to a growable
//! buffer; [`Reader`] consumes them with every read bounds-checked
//! against the remaining bytes, so a truncated or corrupted snapshot
//! yields a typed [`StoreError`] instead of a panic. Collection
//! lengths read from the wire are validated against the bytes that
//! could possibly back them *before* any allocation, which caps the
//! memory a hostile length field can demand. `f64` slices move in one
//! bounds check and one pass over the bytes, so a replay ring's row
//! block costs a copy, not a call per value.

use crate::error::StoreError;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with room for `bytes` bytes, so an encoder that
    /// knows its output size allocates once.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw byte append.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to u64 (the format is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// f64 by raw bit pattern — NaN payloads and signed zeros survive.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed f64 slice, by raw bit patterns.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (out, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
///
/// `ctx` names the structure being decoded; it is embedded in every
/// [`StoreError::Truncated`] so corruption reports say *where* the
/// bytes ran out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: &'static str,
}

impl<'a> Reader<'a> {
    /// Reader over `buf`, labelled `ctx` for error reporting.
    pub fn new(buf: &'a [u8], ctx: &'static str) -> Self {
        Self { buf, pos: 0, ctx }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`StoreError::Malformed`] if any bytes remain.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Malformed { context: self.ctx });
        }
        Ok(())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context: self.ctx });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Single byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u16.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// u64 narrowed to `usize`; out-of-range on this host is malformed.
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Malformed { context: self.ctx })
    }

    /// A count that must plausibly be backed by remaining bytes, each
    /// element occupying at least `elem_bytes` bytes. Rejecting here —
    /// before allocation — means a corrupted length field can never
    /// demand more memory than the file's own size.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.usize()?;
        let elem = elem_bytes.max(1);
        if n > self.remaining() / elem {
            return Err(StoreError::Truncated { context: self.ctx });
        }
        Ok(n)
    }

    /// f64 by raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed f64 vector (length validated before allocation).
    pub fn f64s(&mut self) -> Result<Vec<f64>, StoreError> {
        let n = self.count(8)?;
        let bytes = self.take(8 * n)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Malformed { context: self.ctx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive_bit_exactly() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_f64s(&[1.5, f64::NEG_INFINITY, f64::MIN_POSITIVE]);
        w.put_str("γ=6h α=2");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        let vs = r.f64s().unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[1], f64::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "γ=6h α=2");
        r.expect_end().unwrap();
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.put_u64(7);
        w.put_f64s(&[1.0, 2.0]);
        w.put_str("hello");
        let bytes = w.into_bytes();

        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "fuzz");
            let res = r.u64().and_then(|_| r.f64s()).and_then(|_| r.str());
            assert!(res.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn hostile_length_fields_do_not_allocate() {
        // Claims 2^60 f64s but carries 8 bytes of payload.
        let mut w = Writer::new();
        w.put_u64(1u64 << 60);
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "hostile");
        assert_eq!(r.f64s(), Err(StoreError::Truncated { context: "hostile" }));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.put_usize(2);
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "s");
        assert_eq!(r.str(), Err(StoreError::Malformed { context: "s" }));
    }
}
