//! Small fixed hashers: a stable content hasher (64-bit FNV-1a) and a
//! one-multiply [`Hasher`] for `u64` keys.
//!
//! The pipeline cache keys profiles and pinballs by the *content* of the
//! inputs that produced them (program bytes, machine configuration,
//! selection parameters). `std::hash` offers no stability guarantee across
//! releases or processes, so cache keys use this fixed algorithm instead.
//!
//! The per-instruction observers (the timing model's cache-line
//! footprints, the BBV collector's open slice) key hash tables by guest
//! addresses on every event; [`U64Hasher`] makes each lookup one multiply
//! instead of a SipHash round.

use std::hash::{BuildHasherDefault, Hasher};

/// Incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the standard FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Fnv64 {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(self, v: u64) -> Fnv64 {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn str(self, s: &str) -> Fnv64 {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot convenience over [`Fnv64`].
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().bytes(bytes).finish()
}

/// Odd 64-bit multiplier (2^64 / golden ratio) of [`U64Hasher`].
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiplicative [`Hasher`] for `u64` keys the program generates
/// itself (guest addresses, cache-line indices): one multiply per key,
/// with the product's high bits rotated down so the table index (low
/// bits) depends on every key bit — page- and line-strided keys, whose
/// low bits are all zero, still spread.
///
/// Not collision-resistant: keep `std`'s default hasher for keys that
/// arrive from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(GOLDEN);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for `HashMap<u64, _, U64BuildHasher>` and
/// `HashSet<u64, U64BuildHasher>`.
pub type U64BuildHasher = BuildHasherDefault<U64Hasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_separates_strings() {
        let ab_c = Fnv64::new().str("ab").str("c").finish();
        let a_bc = Fnv64::new().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let one = fnv64(b"hello world");
        let two = Fnv64::new().bytes(b"hello ").bytes(b"world").finish();
        assert_eq!(one, two);
    }

    #[test]
    fn u64_hasher_spreads_strided_keys_over_low_bits() {
        // Page-strided keys differ only above bit 12; the table index is
        // the low bits of the hash, so those must still take many values.
        let buckets: HashSet<u64> = (0..1024u64)
            .map(|i| U64BuildHasher::default().hash_one(i << 12) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} distinct buckets", buckets.len());
    }
}
