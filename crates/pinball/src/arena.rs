//! Content-addressed page arena: every 4 KiB page payload in the process
//! is an immutable, reference-counted blob deduplicated by content.
//!
//! The paper's fat pinballs pre-load *every* mapped page into each
//! region's memory image, and the batch-validation engine replays many
//! regions of the same workload concurrently — so most page payloads in
//! flight are identical. The store already exploits that on disk; the
//! arena exploits it in RAM: decoding a pinball, snapshotting a logger
//! image, loading an ELFie, or streaming pages out of the store all
//! intern payloads here, and every consumer (other pinballs, replay
//! machines booted zero-copy, section writers) holds an [`Arc`] into the
//! same allocation.
//!
//! Interning is keyed by a private, in-process page key: four
//! independent multiply-xor lanes over the page's 512 little-endian
//! words, folded and finalised into 64 bits. It reads every byte, a word
//! at a time, so it costs a fraction of byte-serial FNV-64, and every
//! step is a bijection of the lane state, so a change confined to one
//! word always changes the key. The key never leaves the process, and a
//! hash bucket keeps every live payload with that key and compares
//! contents on lookup, so a key collision costs a bucket entry, never a
//! wrong page. Persisted content — store ids and the bundle and
//! snapshot checksum trailers — is named by the published XXH64
//! ([`elfie_isa::xxh64`]) instead, since a collision there would return
//! wrong bytes.
//!
//! Entries are weak: when the last consumer drops a page, the next
//! intern of those bytes re-creates it. A dead entry's `Weak` still pins
//! the page's allocation, so the arena counts its entries and sweeps
//! every bucket once they outnumber twice the live entries of the last
//! sweep plus a small constant: dead pages are freed in amortised O(1)
//! per intern, and the table never tracks more than about twice the
//! pages that are alive.

use elfie_isa::PAGE_SIZE;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// A page payload in bytes (`PAGE_SIZE` as a `usize`).
pub const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// An immutable, shareable page payload. Cloning is a reference-count
/// bump; equality compares contents.
pub type PageData = Arc<[u8; PAGE_BYTES]>;

/// Arena usage counters (see [`PageArena::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct page payloads currently alive (strongly referenced).
    pub live_pages: u64,
    /// Total intern calls served.
    pub interned: u64,
    /// Intern calls that returned an existing payload instead of
    /// allocating — RAM-level dedup hits.
    pub dedup_hits: u64,
}

impl ArenaStats {
    /// Folds another snapshot into this one, field-wise maximum.
    ///
    /// Arena counters are *process-global* gauges, so per-worker
    /// snapshots of the same arena overlap; the max — not the sum — is
    /// the honest combined figure. Max is commutative and associative,
    /// so merges are order-independent (see the `stats_merge` proptest
    /// in `elfie`).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.live_pages = self.live_pages.max(other.live_pages);
        self.interned = self.interned.max(other.interned);
        self.dedup_hits = self.dedup_hits.max(other.dedup_hits);
    }
}

/// Entries the table may gain beyond twice the live count of the last
/// sweep before it sweeps again.
const SWEEP_SLACK: usize = 64;

/// The in-process bucket key of a page: four multiply-xor lanes, one per
/// word of each 32-byte stripe, folded and finalised. Every step maps
/// the state bijectively for a fixed input word and the input word
/// injectively for a fixed state, so pages that differ in exactly one
/// word always get different keys.
fn page_key(bytes: &[u8; PAGE_BYTES]) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    for stripe in bytes.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(M).rotate_left(31);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = h.wrapping_mul(M) ^ lane;
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 29)
}

#[derive(Debug, Default)]
struct Inner {
    /// `page_key(contents)` → payloads with that key, live or not yet
    /// swept. More than one live entry in a bucket means a genuine key
    /// collision.
    buckets: HashMap<u64, Vec<Weak<[u8; PAGE_BYTES]>>>,
    /// Entries across every bucket.
    tracked: usize,
    /// `tracked` above which the next intern sweeps every bucket.
    sweep_at: usize,
    interned: u64,
    dedup_hits: u64,
}

impl Inner {
    /// Drops every dead entry and empty bucket, then re-arms the sweep
    /// at twice the surviving entries plus [`SWEEP_SLACK`]. Called only
    /// after at least that many interns since the last sweep, so its
    /// cost is amortised O(1) per intern.
    fn sweep(&mut self) {
        self.buckets.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.tracked = self.buckets.values().map(Vec::len).sum();
        self.sweep_at = 2 * self.tracked + SWEEP_SLACK;
    }
}

/// A content-addressed interner for page payloads.
///
/// All pipeline decode paths use the process-wide [`PageArena::global`]
/// arena so pages dedup across pinballs, workers and threads; separate
/// arenas exist only for tests.
#[derive(Debug, Default)]
pub struct PageArena {
    inner: Mutex<Inner>,
}

impl PageArena {
    /// Creates an empty arena.
    pub fn new() -> PageArena {
        PageArena::default()
    }

    /// The process-wide arena all decode paths share.
    pub fn global() -> &'static PageArena {
        static GLOBAL: OnceLock<PageArena> = OnceLock::new();
        GLOBAL.get_or_init(PageArena::new)
    }

    /// Interns a page payload: returns the existing allocation when these
    /// exact bytes are already alive in the arena, else copies them into
    /// a fresh one.
    pub fn intern(&self, bytes: &[u8; PAGE_BYTES]) -> PageData {
        let key = page_key(bytes);
        let mut guard = self.inner.lock().expect("arena lock");
        let inner = &mut *guard;
        inner.interned += 1;
        let bucket = inner.buckets.entry(key).or_default();
        let before = bucket.len();
        bucket.retain(|w| w.strong_count() > 0);
        inner.tracked -= before - bucket.len();
        for w in bucket.iter() {
            if let Some(existing) = w.upgrade() {
                if existing[..] == bytes[..] {
                    inner.dedup_hits += 1;
                    return existing;
                }
            }
        }
        let fresh: PageData = Arc::new(*bytes);
        bucket.push(Arc::downgrade(&fresh));
        inner.tracked += 1;
        if inner.tracked > inner.sweep_at {
            inner.sweep();
        }
        fresh
    }

    /// Interns a page payload from a slice, which must be exactly
    /// [`PAGE_BYTES`] long.
    pub fn intern_slice(&self, bytes: &[u8]) -> Option<PageData> {
        let arr: &[u8; PAGE_BYTES] = bytes.try_into().ok()?;
        Some(self.intern(arr))
    }

    /// The all-zero page (interned like any other payload, so every
    /// zero-page consumer shares one allocation).
    pub fn zero_page(&self) -> PageData {
        self.intern(&[0u8; PAGE_BYTES])
    }

    /// Current usage counters. `live_pages` walks the table, so this is
    /// for reporting, not hot paths.
    pub fn stats(&self) -> ArenaStats {
        let inner = self.inner.lock().expect("arena lock");
        let live = inner
            .buckets
            .values()
            .flat_map(|b| b.iter())
            .filter(|w| w.strong_count() > 0)
            .count() as u64;
        ArenaStats {
            live_pages: live,
            interned: inner.interned,
            dedup_hits: inner.dedup_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_share_one_allocation() {
        let arena = PageArena::new();
        let mut page = [0u8; PAGE_BYTES];
        page[17] = 0xaa;
        let a = arena.intern(&page);
        let b = arena.intern(&page);
        assert!(Arc::ptr_eq(&a, &b));
        let s = arena.stats();
        assert_eq!(s.live_pages, 1);
        assert_eq!(s.interned, 2);
        assert_eq!(s.dedup_hits, 1);
    }

    #[test]
    fn different_pages_get_distinct_allocations() {
        let arena = PageArena::new();
        let a = arena.intern(&[1u8; PAGE_BYTES]);
        let b = arena.intern(&[2u8; PAGE_BYTES]);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(arena.stats().live_pages, 2);
        assert_eq!(arena.stats().dedup_hits, 0);
    }

    #[test]
    fn dropped_pages_are_reclaimed_and_reinterned() {
        let arena = PageArena::new();
        let page = [7u8; PAGE_BYTES];
        let a = arena.intern(&page);
        drop(a);
        assert_eq!(arena.stats().live_pages, 0, "weak entry died with it");
        let b = arena.intern(&page);
        assert_eq!(b[0], 7);
        assert_eq!(arena.stats().live_pages, 1);
    }

    /// A page whose every word is distinct per `seed`.
    fn distinct_page(seed: u64) -> [u8; PAGE_BYTES] {
        let mut page = [0u8; PAGE_BYTES];
        for (i, word) in page.chunks_exact_mut(8).enumerate() {
            word.copy_from_slice(&(seed ^ ((i as u64) << 40)).to_le_bytes());
        }
        page
    }

    #[test]
    fn dead_pages_do_not_pile_up_in_the_table() {
        let arena = PageArena::new();
        let keep: Vec<PageData> = (0..100).map(|s| arena.intern(&distinct_page(s))).collect();
        for seed in 100..10_100 {
            drop(arena.intern(&distinct_page(seed)));
        }
        let tracked = arena.inner.lock().unwrap().tracked;
        let live = arena.stats().live_pages as usize;
        assert_eq!(live, keep.len());
        // The page being interned is alive while a sweep counts.
        assert!(
            tracked <= 2 * (live + 1) + SWEEP_SLACK,
            "{tracked} entries tracked for {live} live pages"
        );
    }

    #[test]
    fn flipping_any_byte_changes_the_key() {
        let page = distinct_page(0x5eed);
        let key = page_key(&page);
        for i in 0..PAGE_BYTES {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut other = page;
                other[i] ^= flip;
                assert_ne!(page_key(&other), key, "byte {i} flipped by {flip:#x}");
            }
        }
    }

    #[test]
    fn intern_slice_enforces_page_size() {
        let arena = PageArena::new();
        assert!(arena.intern_slice(&[0u8; 100]).is_none());
        assert!(arena.intern_slice(&vec![0u8; PAGE_BYTES]).is_some());
    }

    #[test]
    fn zero_page_is_shared() {
        let arena = PageArena::new();
        let a = arena.zero_page();
        let b = arena.zero_page();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.iter().all(|&x| x == 0));
    }

    #[test]
    fn concurrent_interns_agree() {
        let arena = Arc::new(PageArena::new());
        let mut page = [0u8; PAGE_BYTES];
        page[0] = 0x5a;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || arena.intern(&page))
            })
            .collect();
        let pages: Vec<PageData> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(pages.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert_eq!(arena.stats().live_pages, 1);
    }
}
