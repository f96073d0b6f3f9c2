//! A small length-prefixed binary wire format used by the pinball files.
//!
//! PinPlay's on-disk pinball is a set of binary files; we mirror that with
//! a compact, versioned, little-endian format rather than a textual one.

use std::fmt;
use std::ops::RangeInclusive;

/// Error produced while decoding a pinball wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended early.
    Truncated { need: usize, have: usize },
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A length or enum tag was out of range.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated buffer: need {need} bytes, have {have}")
            }
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Corrupt(what) => write!(f, "corrupt field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates a writer beginning with 4 magic bytes and a version word.
    pub fn with_header(magic: &[u8; 4], version: u32) -> Writer {
        let mut w = Writer::new();
        w.buf.extend_from_slice(magic);
        w.u32(version);
        w
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, returning the buffer followed by a checksum
    /// trailer: the little-endian XXH64 of everything before it. See
    /// [`Reader::checksummed`].
    pub fn into_checksummed_bytes(self) -> Vec<u8> {
        let mut buf = self.buf;
        let sum = elfie_isa::xxh64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential reader over a wire buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Creates a reader, validating the magic and version header written by
    /// [`Writer::with_header`].
    pub fn with_header(
        buf: &'a [u8],
        magic: &[u8; 4],
        version: u32,
    ) -> Result<Reader<'a>, WireError> {
        Ok(Reader::with_any_header(buf, magic, version..=version)?.0)
    }

    /// Like [`Reader::with_header`], but accepts any version in
    /// `versions` and returns the one found alongside the reader, for
    /// formats that still read their older versions.
    pub fn with_any_header(
        buf: &'a [u8],
        magic: &[u8; 4],
        versions: RangeInclusive<u32>,
    ) -> Result<(Reader<'a>, u32), WireError> {
        let mut r = Reader::new(buf);
        let got = r.take(4)?;
        if got != magic {
            return Err(WireError::BadMagic);
        }
        let v = r.u32()?;
        if !versions.contains(&v) {
            return Err(WireError::BadVersion(v));
        }
        Ok((r, v))
    }

    /// Opens a buffer that ends in an 8-byte checksum trailer: validates
    /// the header (any version in `versions`), then the trailer, and
    /// returns a reader over the body.
    ///
    /// The newest version's trailer is the XXH64
    /// [`Writer::into_checksummed_bytes`] writes; every older accepted
    /// version predates it and carries FNV-64. `what` names the checksum
    /// in the [`WireError::Corrupt`] a mismatch returns.
    ///
    /// # Errors
    /// Bad magic and bad version keep their precise errors; a buffer too
    /// short for header and trailer is [`WireError::Truncated`].
    pub fn checksummed(
        buf: &'a [u8],
        magic: &[u8; 4],
        versions: RangeInclusive<u32>,
        what: &'static str,
    ) -> Result<Reader<'a>, WireError> {
        let (_, version) = Reader::with_any_header(buf, magic, versions.clone())?;
        let Some(body_len) = buf.len().checked_sub(8).filter(|&n| n >= 8) else {
            return Err(WireError::Truncated {
                need: 8 + 8,
                have: buf.len(),
            });
        };
        let (body, tail) = buf.split_at(body_len);
        let sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let hash = if version == *versions.end() {
            elfie_isa::xxh64
        } else {
            elfie_isa::fnv64
        };
        if hash(body) != sum {
            return Err(WireError::Corrupt(what));
        }
        Ok(Reader::with_any_header(body, magic, versions)?.0)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(WireError::Corrupt("byte-string length"));
        }
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Corrupt("utf-8 string"))
    }

    /// True when the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_validation() {
        let w = Writer::with_header(b"PBAL", 3);
        let buf = w.into_bytes();
        assert!(Reader::with_header(&buf, b"PBAL", 3).is_ok());
        assert_eq!(
            Reader::with_header(&buf, b"XXXX", 3).unwrap_err(),
            WireError::BadMagic
        );
        assert_eq!(
            Reader::with_header(&buf, b"PBAL", 4).unwrap_err(),
            WireError::BadVersion(3)
        );
    }

    #[test]
    fn any_header_accepts_a_range_and_reports_the_version() {
        let buf = Writer::with_header(b"PBAL", 2).into_bytes();
        let (_, v) = Reader::with_any_header(&buf, b"PBAL", 2..=3).unwrap();
        assert_eq!(v, 2);
        assert_eq!(
            Reader::with_any_header(&buf, b"PBAL", 3..=4).unwrap_err(),
            WireError::BadVersion(2)
        );
    }

    #[test]
    fn checksummed_reads_old_fnv_and_new_xxh64_trailers() {
        let mut w = Writer::with_header(b"TEST", 2);
        w.u64(42);
        let new = w.into_checksummed_bytes();
        let mut r = Reader::checksummed(&new, b"TEST", 1..=2, "sum").unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert!(r.is_exhausted());

        let mut old = Writer::with_header(b"TEST", 1);
        old.u64(42);
        let mut old = old.into_bytes();
        let sum = elfie_isa::fnv64(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        let mut r = Reader::checksummed(&old, b"TEST", 1..=2, "sum").unwrap();
        assert_eq!(r.u64().unwrap(), 42);

        // A trailer of the wrong hash for its version is a mismatch.
        let mut relabelled = new.clone();
        relabelled[4] = 1;
        assert_eq!(
            Reader::checksummed(&relabelled, b"TEST", 1..=2, "sum").unwrap_err(),
            WireError::Corrupt("sum")
        );
        assert!(matches!(
            Reader::checksummed(&new[..12], b"TEST", 1..=2, "sum"),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.u64(5);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_detected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd byte-string length
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn roundtrip_mixed(a in any::<u8>(), b in any::<u32>(), c in any::<u64>(),
                           d in any::<f64>(), s in ".*", v in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut w = Writer::with_header(b"TEST", 1);
            w.u8(a); w.u32(b); w.u64(c); w.f64(d); w.string(&s); w.bytes(&v);
            let buf = w.into_bytes();
            let mut r = Reader::with_header(&buf, b"TEST", 1).unwrap();
            prop_assert_eq!(r.u8().unwrap(), a);
            prop_assert_eq!(r.u32().unwrap(), b);
            prop_assert_eq!(r.u64().unwrap(), c);
            let got = r.f64().unwrap();
            prop_assert!(got == d || (got.is_nan() && d.is_nan()));
            prop_assert_eq!(r.string().unwrap(), s);
            prop_assert_eq!(r.bytes().unwrap(), v);
            prop_assert!(r.is_exhausted());
        }
    }
}
