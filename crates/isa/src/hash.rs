//! Small fixed hashers: two stable content hashes (64-bit FNV-1a and
//! XXH64) and a one-multiply [`Hasher`] for `u64` keys.
//!
//! `std::hash` offers no stability guarantee across releases or
//! processes, so everything that must hash the same tomorrow uses one of
//! the fixed algorithms here, each for one job:
//!
//! * [`xxh64`] checks and names *persisted* content: store blob ids and
//!   manifest ids, and the checksum trailers of pinball bundles and
//!   snapshots. It reads 32-byte stripes a word at a time, so it runs at
//!   memory speed, and it is the published XXH64 (seed 0) that zstd's
//!   frame checksum uses, so its reference vectors can be checked
//!   offline. Files written before it (store format 1, bundle format 2,
//!   snapshot format 1) carry FNV-64 and are still read.
//! * [`Fnv64`] builds cache keys from the *inputs* that produced an
//!   artifact (program bytes, machine configuration, selection
//!   parameters), plus state digests and shard homes. Its incremental,
//!   length-prefixed form suits those small structured inputs, and
//!   changing it would orphan every persistent-cache entry.
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

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte slice"))
}

/// XXH64 with seed 0: the digest that names and checks persisted content
/// (see the module docs). Four lanes consume 32-byte stripes; the tail is
/// folded in 8-, 4- and 1-byte steps, then avalanched.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes(rest[..4].try_into().expect("4-byte slice"));
        h = (h ^ u64::from(half).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
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
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 (seed 0) test vectors.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn xxh64_striped_path_matches_zstd_frame_checksums() {
        // The low 32 bits of each value equal the frame checksum `zstd
        // --check` writes for the same bytes: 37 covers one stripe plus
        // 4- and 1-byte tail steps, 100 three stripes plus an 8-byte
        // step, 4096 a whole page.
        let bytes = |n: usize| (0..n).map(|i| (i * 7 % 251) as u8).collect::<Vec<u8>>();
        assert_eq!(xxh64(&bytes(37)), 0x4788_90c6_0739_0313);
        assert_eq!(xxh64(&bytes(100)), 0xb7fe_1d84_b2f2_3a05);
        assert_eq!(xxh64(&bytes(4096)), 0x3012_88ff_32d5_defc);
    }

    #[test]
    fn xxh64_changes_under_every_single_byte_change_of_a_page() {
        // Every position of one fixed page, changed by each single-bit
        // flip and by complementing the byte: no such edit may leave the
        // digest unchanged.
        let page: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let orig = xxh64(&page);
        let mut edited = page.clone();
        for at in 0..page.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                edited[at] = page[at] ^ flip;
                assert_ne!(xxh64(&edited), orig, "byte {at} ^ {flip:#x}");
            }
            edited[at] = page[at];
        }
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
