//! Set-associative caches, TLBs and a next-line prefetcher — the memory
//! hierarchy building blocks shared by the Sniper-like, CoreSim-like and
//! gem5-like simulators.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways).
    pub ways: usize,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        (self.size / self.line / self.ways as u64).max(1)
    }
}

/// An LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    /// `log2(line)`: the line index of an address is one shift.
    line_shift: u32,
    /// `sets − 1` when the set count is a power of two (the set is one
    /// mask); `None` falls back to `% sets`.
    set_mask: Option<u64>,
    sets: u64,
    /// `sets × ways` tags; `u64::MAX` = invalid. LRU order per set: index
    /// 0 is most recent.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if the line size is not a power of two or ways is zero.
    pub fn new(params: CacheParams) -> Cache {
        assert!(params.line.is_power_of_two() && params.ways > 0);
        let sets = params.sets();
        Cache {
            params,
            line_shift: params.line.trailing_zeros(),
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            sets,
            tags: vec![INVALID; sets as usize * params.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        };
        (set as usize * self.params.ways, line)
    }

    /// Accesses `addr`; returns true on hit. Misses fill with LRU
    /// eviction.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (base, line) = self.set_range(addr);
        let ways = self.params.ways;
        let set = &mut self.tags[base..base + ways];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            set.rotate_right(1);
            set[0] = line;
            self.misses += 1;
            false
        }
    }

    /// Inserts a line without counting an access (prefetch fill).
    pub fn fill(&mut self, addr: u64) {
        let (base, line) = self.set_range(addr);
        let ways = self.params.ways;
        let set = &mut self.tags[base..base + ways];
        if !set.contains(&line) {
            set.rotate_right(1);
            set[0] = line;
        }
    }

    /// True if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, line) = self.set_range(addr);
        self.tags[base..base + self.params.ways].contains(&line)
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A TLB is a cache of page translations.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
}

impl Tlb {
    /// Creates a TLB with `entries` entries of `page` bytes each,
    /// `ways`-associative.
    pub fn new(entries: u64, page: u64, ways: usize) -> Tlb {
        Tlb {
            inner: Cache::new(CacheParams {
                size: entries * page,
                line: page,
                ways,
            }),
        }
    }

    /// Looks up the page containing `addr`; true on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access(addr)
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        self.inner.stats()
    }
}

/// A simple next-line prefetcher: every demand miss triggers a prefetch of
/// the following line into the target cache.
#[derive(Debug, Clone, Default)]
pub struct NextLinePrefetcher {
    /// Number of prefetches issued.
    pub issued: u64,
}

impl NextLinePrefetcher {
    /// Reacts to a demand miss at `addr`, filling `cache` with the next
    /// line and returning the prefetched address.
    pub fn on_miss(&mut self, cache: &mut Cache, addr: u64) -> u64 {
        let line = cache.params().line;
        let next = (addr / line + 1) * line;
        cache.fill(next);
        self.issued += 1;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook model `Cache` must match: line and set by division,
    /// one most-recent-first list per set.
    struct NaiveLru {
        line: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl NaiveLru {
        fn new(p: CacheParams) -> NaiveLru {
            let sets = (p.size / p.line / p.ways as u64).max(1);
            NaiveLru {
                line: p.line,
                ways: p.ways,
                sets: vec![Vec::new(); sets as usize],
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, addr: u64) -> (&mut Vec<u64>, u64) {
            let line = addr / self.line;
            let n = self.sets.len() as u64;
            (&mut self.sets[(line % n) as usize], line)
        }

        fn insert(set: &mut Vec<u64>, ways: usize, line: u64) {
            set.insert(0, line);
            set.truncate(ways);
        }

        fn access(&mut self, addr: u64) -> bool {
            let ways = self.ways;
            let (set, line) = self.set(addr);
            let hit = match set.iter().position(|&t| t == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => false,
            };
            Self::insert(set, ways, line);
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            hit
        }

        fn fill(&mut self, addr: u64) {
            let ways = self.ways;
            let (set, line) = self.set(addr);
            if !set.contains(&line) {
                Self::insert(set, ways, line);
            }
        }

        fn probe(&mut self, addr: u64) -> bool {
            let (set, line) = self.set(addr);
            set.contains(&line)
        }
    }

    /// Addresses that mostly collide in a few sets, plus arbitrary ones.
    fn addr() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1 << 14, any::<u64>()]
    }

    proptest! {
        #[test]
        fn cache_matches_naive_lru_reference(
            size in 0u64..40_000,
            line_log in 4u32..8,
            ways in 1usize..9,
            ops in proptest::collection::vec((0u8..3, addr()), 1..400),
        ) {
            // Random sizes give set counts that are and are not powers of
            // two (the mask path and the `%` fallback).
            let params = CacheParams { size, line: 1 << line_log, ways };
            let mut cache = Cache::new(params);
            let mut naive = NaiveLru::new(params);
            for (op, a) in ops {
                match op {
                    0 => prop_assert_eq!(cache.access(a), naive.access(a)),
                    1 => {
                        cache.fill(a);
                        naive.fill(a);
                    }
                    _ => prop_assert_eq!(cache.probe(a), naive.probe(a)),
                }
                prop_assert_eq!(cache.stats(), (naive.hits, naive.misses));
            }
        }

        #[test]
        fn tlb_matches_naive_lru_reference(
            entries in 1u64..48,
            page_log in 12u32..14,
            ways in 1usize..5,
            addrs in proptest::collection::vec(
                prop_oneof![0u64..1 << 20, any::<u64>()],
                1..400,
            ),
        ) {
            let page = 1u64 << page_log;
            let mut tlb = Tlb::new(entries, page, ways);
            let mut naive = NaiveLru::new(CacheParams { size: entries * page, line: page, ways });
            for a in addrs {
                prop_assert_eq!(tlb.access(a), naive.access(a));
                prop_assert_eq!(tlb.stats(), (naive.hits, naive.misses));
            }
        }
    }

    #[test]
    fn non_power_of_two_set_counts_use_every_set() {
        // 3 sets × 1 way × 64 B lines: lines 0, 1, 2 map to distinct sets
        // and coexist; line 3 wraps onto line 0's set.
        let mut c = Cache::new(CacheParams {
            size: 3 * 64,
            line: 64,
            ways: 1,
        });
        for l in 0..3u64 {
            assert!(!c.access(l * 64));
        }
        for l in 0..3u64 {
            assert!(c.access(l * 64), "line {l} resident");
        }
        assert!(!c.access(3 * 64));
        assert!(!c.probe(0), "line 0 evicted by line 3");
        assert!(c.probe(64) && c.probe(128));
    }

    fn small() -> Cache {
        Cache::new(CacheParams {
            size: 1024,
            line: 64,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f), "same line");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small(); // 8 sets, 2 ways; set stride = 512 bytes
        let a = 0x0;
        let b = 0x200; // same set as a (8 sets × 64B lines)
        let d = 0x400; // same set again
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a), "two ways hold a and b");
        assert!(!c.access(d), "evicts LRU (b)");
        assert!(c.access(a), "a was MRU, still resident");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = small();
        c.access(0x40);
        let (h, m) = c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0x9940));
        assert_eq!(c.stats(), (h, m));
    }

    #[test]
    fn prefetcher_fills_next_line() {
        let mut c = small();
        let mut pf = NextLinePrefetcher::default();
        assert!(!c.access(0x80));
        let next = pf.on_miss(&mut c, 0x80);
        assert_eq!(next, 0xc0);
        assert!(c.probe(0xc0), "next line resident");
        assert_eq!(pf.issued, 1);
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = Tlb::new(4, 4096, 4);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same page");
        assert!(!t.access(0x2000));
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(64 * 1024);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
