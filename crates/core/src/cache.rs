//! Content-addressed caching of expensive pipeline artifacts.
//!
//! The two dominant costs in validation are BBV profiling (a full guest
//! run per workload) and fat-pinball capture (a logging run per workload,
//! plus one per alternate tried). Both are deterministic functions of their inputs,
//! so [`PipelineCache`] stores them under stable content hashes: a profile
//! under [`elfie_simpoint::ProfileKey`] (workload content, machine
//! fingerprint, slice size, fuel) and a pinball under the workload content
//! plus the exact region coordinates. Repeating a validation — a second
//! trial with a different clustering seed, an ablation over warm-up sizes,
//! a re-run of the same experiment — then reuses the artifacts instead of
//! re-executing the guest.
//!
//! The cache is `Sync`; the parallel batch engine shares one instance
//! across all workers. Values are handed out as `Arc`s, so hits are
//! O(1) and never clone page data.
//!
//! With [`PipelineCache::persistent`] the in-memory tier is backed by a
//! content-addressed [`elfie_store::Store`] on disk: artifacts computed in
//! one process are reloaded by the next, so `elfie validate --store DIR`
//! warm-starts across runs. Lookups go memory → store → compute; store
//! hits count as cache hits (plus a separate `store_hits` counter), and a
//! corrupt or unreadable store entry silently degrades to a recompute.

use elfie_pinball::Pinball;
use elfie_pinplay::CaptureError;
use elfie_simpoint::{BbvProfile, PinPoint, ProfileKey};
use elfie_vm::MachineConfig;
use elfie_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared store for BBV profiles and captured pinballs.
#[derive(Debug, Default)]
pub struct PipelineCache {
    profiles: Mutex<HashMap<u64, Arc<BbvProfile>>>,
    pinballs: Mutex<HashMap<u64, Arc<Pinball>>>,
    store: Option<elfie_store::Store>,
    /// Persistent-tier ref prefix (`{tenant}--`), empty for the default
    /// namespace. Memory-tier keys are *not* prefixed: one cache instance
    /// serves one namespace, so they cannot collide.
    namespace: String,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    pinball_hits: AtomicU64,
    pinball_misses: AtomicU64,
    store_hits: AtomicU64,
    store_puts: AtomicU64,
    /// Set once via [`PipelineCache::attach_tracer`]; lock-free to read,
    /// so untraced caches pay one pointer load per lookup.
    tracer: std::sync::OnceLock<Arc<elfie_trace::Tracer>>,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Profile lookups served from the cache.
    pub profile_hits: u64,
    /// Profile lookups that had to profile the guest.
    pub profile_misses: u64,
    /// Pinball lookups served from the cache.
    pub pinball_hits: u64,
    /// Pinball lookups that had to capture.
    pub pinball_misses: u64,
    /// Hits (profile or pinball) served from the persistent store rather
    /// than memory — i.e. warm starts inherited from an earlier process.
    pub store_hits: u64,
    /// Artifacts written through to the persistent store.
    pub store_puts: u64,
}

impl CacheStats {
    /// Total hits across both stores.
    pub fn hits(&self) -> u64 {
        self.profile_hits.saturating_add(self.pinball_hits)
    }

    /// Total misses across both stores.
    pub fn misses(&self) -> u64 {
        self.profile_misses.saturating_add(self.pinball_misses)
    }

    /// Total profile lookups.
    pub fn profile_lookups(&self) -> u64 {
        self.profile_hits.saturating_add(self.profile_misses)
    }

    /// Total pinball lookups.
    pub fn pinball_lookups(&self) -> u64 {
        self.pinball_hits.saturating_add(self.pinball_misses)
    }

    /// Fraction of profile lookups served from cache, `[0, 1]` (0 when
    /// there were none).
    pub fn profile_hit_rate(&self) -> f64 {
        elfie_vm::hit_rate(self.profile_hits, self.profile_misses)
    }

    /// Fraction of pinball lookups served from cache, `[0, 1]` (0 when
    /// there were none).
    pub fn pinball_hit_rate(&self) -> f64 {
        elfie_vm::hit_rate(self.pinball_hits, self.pinball_misses)
    }

    /// Overall hit fraction across both artifact kinds, `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        elfie_vm::hit_rate(self.hits(), self.misses())
    }

    /// The counter deltas accumulated since an `earlier` snapshot —
    /// windows lifetime counters to one run.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            profile_hits: self.profile_hits.saturating_sub(earlier.profile_hits),
            profile_misses: self.profile_misses.saturating_sub(earlier.profile_misses),
            pinball_hits: self.pinball_hits.saturating_sub(earlier.pinball_hits),
            pinball_misses: self.pinball_misses.saturating_sub(earlier.pinball_misses),
            store_hits: self.store_hits.saturating_sub(earlier.store_hits),
            store_puts: self.store_puts.saturating_sub(earlier.store_puts),
        }
    }

    /// Folds another window's counters into this one (saturating sums;
    /// commutative and associative, so per-worker windows merge to the
    /// same totals in any order).
    pub fn merge(&mut self, other: &CacheStats) {
        self.profile_hits = self.profile_hits.saturating_add(other.profile_hits);
        self.profile_misses = self.profile_misses.saturating_add(other.profile_misses);
        self.pinball_hits = self.pinball_hits.saturating_add(other.pinball_hits);
        self.pinball_misses = self.pinball_misses.saturating_add(other.pinball_misses);
        self.store_hits = self.store_hits.saturating_add(other.store_hits);
        self.store_puts = self.store_puts.saturating_add(other.store_puts);
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::render::write_cache(f, self)
    }
}

impl PipelineCache {
    /// An empty in-memory cache.
    pub fn new() -> PipelineCache {
        PipelineCache::default()
    }

    /// A cache backed by a persistent [`elfie_store::Store`] at `dir`, so
    /// artifacts survive the process and later runs warm-start.
    ///
    /// # Errors
    /// Returns [`elfie_store::StoreError`] if the store cannot be opened.
    pub fn persistent(dir: impl AsRef<Path>) -> Result<PipelineCache, elfie_store::StoreError> {
        Ok(PipelineCache::new().with_store(elfie_store::Store::open(dir)?))
    }

    /// Attaches a persistent store to this cache.
    pub fn with_store(mut self, store: elfie_store::Store) -> PipelineCache {
        self.store = Some(store);
        self
    }

    /// Scopes the persistent tier to a tenant namespace: store refs gain
    /// a `{tenant}--` prefix, so many tenants can share one store without
    /// seeing (or overwriting) each other's artifacts. The empty tenant
    /// is the default namespace — refs keep their historical names, so
    /// existing `--store` directories stay readable.
    ///
    /// `tenant` must be a valid store ref fragment (no `/`, no `..`);
    /// [`elfie_store::Store::valid_ref_name`] is the authoritative check
    /// and callers (the serve admission layer) reject invalid tenants
    /// before a cache is ever built.
    pub fn with_namespace(mut self, tenant: &str) -> PipelineCache {
        self.namespace = if tenant.is_empty() {
            String::new()
        } else {
            format!("{tenant}--")
        };
        self
    }

    /// The tenant this cache's persistent tier is scoped to (empty for
    /// the default namespace).
    pub fn namespace(&self) -> &str {
        self.namespace.strip_suffix("--").unwrap_or(&self.namespace)
    }

    /// The persistent store backing this cache, if any.
    pub fn store(&self) -> Option<&elfie_store::Store> {
        self.store.as_ref()
    }

    /// Attributes every hit/miss/put to `tracer` from now on: instants
    /// (`profile_hit`, `pinball_store_hit`, `store_put`, …) on the thread
    /// that performed the lookup, plus `cache_hits` / `cache_misses` /
    /// `store_puts` counter tracks. No-op if a tracer is already attached.
    pub fn attach_tracer(&self, tracer: Arc<elfie_trace::Tracer>) {
        let _ = self.tracer.set(tracer);
    }

    fn trace_event(&self, name: &'static str, args: &[(&'static str, u64)]) {
        if let Some(tracer) = self.tracer.get() {
            tracer.instant("cache", name, args);
            tracer.counter("cache", "cache_hits", self.hits_now());
            tracer.counter("cache", "cache_misses", self.misses_now());
            tracer.counter(
                "cache",
                "store_puts",
                self.store_puts.load(Ordering::Relaxed),
            );
        }
    }

    fn hits_now(&self) -> u64 {
        self.profile_hits
            .load(Ordering::Relaxed)
            .saturating_add(self.pinball_hits.load(Ordering::Relaxed))
    }

    fn misses_now(&self) -> u64 {
        self.profile_misses
            .load(Ordering::Relaxed)
            .saturating_add(self.pinball_misses.load(Ordering::Relaxed))
    }

    fn profile_ref(&self, key: u64) -> String {
        format!("{}profile-{key:016x}", self.namespace)
    }

    fn pinball_ref(&self, key: u64) -> String {
        format!("{}pinball-{key:016x}", self.namespace)
    }

    /// Tries the persistent tier for a profile. Any store failure —
    /// missing, corrupt, unreadable — degrades to `None` (recompute).
    fn store_profile(&self, key: u64) -> Option<BbvProfile> {
        let store = self.store.as_ref()?;
        let bytes = store.get_raw(&self.profile_ref(key)).ok()?;
        elfie_store::profiles::from_bytes(&bytes).ok()
    }

    /// Tries the persistent tier for a pinball.
    fn store_pinball(&self, key: u64) -> Option<Pinball> {
        self.store
            .as_ref()?
            .get_pinball(&self.pinball_ref(key))
            .ok()
    }

    /// The cache key of a profiling run.
    pub fn profile_key(w: &Workload, machine: &MachineConfig, slice_size: u64, fuel: u64) -> u64 {
        ProfileKey::new(w.content_hash(), machine, slice_size, fuel).digest()
    }

    /// The cache key of a region capture. Capture replays the workload
    /// from the start, so the pinball is fully determined by the workload
    /// content and the region coordinates (no machine config or fuel —
    /// the logger runs its own machine to the region end).
    pub fn pinball_key(w: &Workload, point: &PinPoint) -> u64 {
        elfie_isa::Fnv64::new()
            .u64(w.content_hash())
            .u64(point.start_icount)
            .u64(point.warmup)
            .u64(point.length)
            .u64(point.weight.to_bits())
            .u64(point.slice_index)
            .finish()
    }

    /// Returns the cached profile under `key`, or runs `compute`, stores
    /// and returns its result.
    ///
    /// The lock is *not* held across `compute`, so concurrent workers can
    /// profile different workloads at the same time. Two workers racing on
    /// the same key may both compute; profiling is deterministic, so both
    /// produce the same value and either insert wins.
    pub fn profile(&self, key: u64, compute: impl FnOnce() -> BbvProfile) -> Arc<BbvProfile> {
        if let Some(hit) = self.profiles.lock().unwrap().get(&key) {
            self.profile_hits.fetch_add(1, Ordering::Relaxed);
            let hit = Arc::clone(hit);
            self.trace_event("profile_hit", &[("key", key)]);
            return hit;
        }
        if let Some(found) = self.store_profile(key) {
            self.profile_hits.fetch_add(1, Ordering::Relaxed);
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            self.trace_event("profile_store_hit", &[("key", key)]);
            let value = Arc::new(found);
            let mut mem = self.profiles.lock().unwrap();
            return Arc::clone(mem.entry(key).or_insert(value));
        }
        self.profile_misses.fetch_add(1, Ordering::Relaxed);
        self.trace_event("profile_miss", &[("key", key)]);
        let value = Arc::new(compute());
        if let Some(store) = &self.store {
            let bytes = elfie_store::profiles::to_bytes(&value);
            if store.put_raw(&self.profile_ref(key), &bytes).is_ok() {
                self.store_puts.fetch_add(1, Ordering::Relaxed);
                self.trace_event("store_put", &[("key", key), ("bytes", bytes.len() as u64)]);
            }
        }
        let mut mem = self.profiles.lock().unwrap();
        Arc::clone(mem.entry(key).or_insert(value))
    }

    /// Returns the cached pinball under `key`, or runs `compute`.
    /// Failed captures are returned as-is and never cached. This is the
    /// one-key case of [`PipelineCache::pinballs`].
    ///
    /// # Errors
    /// Propagates the [`CaptureError`] from `compute` on a miss.
    pub fn pinball(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Pinball, CaptureError>,
    ) -> Result<Arc<Pinball>, CaptureError> {
        self.pinballs(&[key], |_| vec![compute()])
            .pop()
            .expect("one result per key")
    }

    /// Looks up every key in turn — memory, then store — and computes all
    /// the misses in one `compute_missing` call, which receives the
    /// missing positions in `keys` (ascending) and returns one result per
    /// position, in that order. Each key counts one hit or one miss, and
    /// each computed pinball one store put when written through. Failed
    /// captures are returned as-is and never cached. Results come back in
    /// `keys` order.
    ///
    /// # Panics
    /// Panics if `compute_missing` returns a different number of results
    /// than it was given positions.
    pub fn pinballs(
        &self,
        keys: &[u64],
        compute_missing: impl FnOnce(&[usize]) -> Vec<Result<Pinball, CaptureError>>,
    ) -> Vec<Result<Arc<Pinball>, CaptureError>> {
        let mut results: Vec<Option<Result<Arc<Pinball>, CaptureError>>> =
            keys.iter().map(|&key| self.lookup(key).map(Ok)).collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
        if !missing.is_empty() {
            let computed = compute_missing(&missing);
            assert_eq!(computed.len(), missing.len(), "one result per missing key");
            for (&i, result) in missing.iter().zip(computed) {
                results[i] = Some(result.map(|pb| self.insert(keys[i], pb)));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("looked up or computed"))
            .collect()
    }

    /// One pinball lookup: memory, then store. Counts the hit, or the
    /// miss when neither tier has `key`.
    fn lookup(&self, key: u64) -> Option<Arc<Pinball>> {
        if let Some(hit) = self.pinballs.lock().unwrap().get(&key) {
            self.pinball_hits.fetch_add(1, Ordering::Relaxed);
            let hit = Arc::clone(hit);
            self.trace_event("pinball_hit", &[("key", key)]);
            return Some(hit);
        }
        if let Some(found) = self.store_pinball(key) {
            self.pinball_hits.fetch_add(1, Ordering::Relaxed);
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            self.trace_event("pinball_store_hit", &[("key", key)]);
            let value = Arc::new(found);
            let mut mem = self.pinballs.lock().unwrap();
            return Some(Arc::clone(mem.entry(key).or_insert(value)));
        }
        self.pinball_misses.fetch_add(1, Ordering::Relaxed);
        self.trace_event("pinball_miss", &[("key", key)]);
        None
    }

    /// Stores a computed pinball: writes it through to the store, if
    /// any, then keeps it in memory.
    fn insert(&self, key: u64, pinball: Pinball) -> Arc<Pinball> {
        let value = Arc::new(pinball);
        if let Some(store) = &self.store {
            if store.put_pinball(&self.pinball_ref(key), &value).is_ok() {
                self.store_puts.fetch_add(1, Ordering::Relaxed);
                self.trace_event("store_put", &[("key", key)]);
            }
        }
        let mut mem = self.pinballs.lock().unwrap();
        Arc::clone(mem.entry(key).or_insert(value))
    }

    /// Opens the pinball stored under `key` in the persistent tier
    /// *lazily*: the returned handle carries only the skeleton (metadata,
    /// registers, logs), and page payloads stream in from the store on
    /// first touch — hand the handle to
    /// `Replayer::replay_full_with_source` as the fault [`PageSource`].
    /// Returns `None` when no store is attached or it has no such
    /// pinball. A hit counts as a pinball + store hit but deliberately
    /// skips the in-memory tier: the point is *not* holding the pages.
    ///
    /// [`PageSource`]: elfie_pinball::PageSource
    pub fn lazy_pinball(&self, key: u64) -> Option<elfie_store::LazyPinball> {
        let lazy = self
            .store
            .as_ref()?
            .get_pinball_lazy(&self.pinball_ref(key))
            .ok()?;
        self.pinball_hits.fetch_add(1, Ordering::Relaxed);
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        self.trace_event("pinball_lazy_hit", &[("key", key)]);
        Some(lazy)
    }

    /// Number of stored profiles.
    pub fn profile_count(&self) -> usize {
        self.profiles.lock().unwrap().len()
    }

    /// Number of stored pinballs.
    pub fn pinball_count(&self) -> usize {
        self.pinballs.lock().unwrap().len()
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            profile_hits: self.profile_hits.load(Ordering::Relaxed),
            profile_misses: self.profile_misses.load(Ordering::Relaxed),
            pinball_hits: self.pinball_hits.load(Ordering::Relaxed),
            pinball_misses: self.pinball_misses.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_puts: self.store_puts.load(Ordering::Relaxed),
        }
    }

    /// Drops every in-memory artifact and resets the counters. The
    /// persistent store, if any, is untouched.
    pub fn clear(&self) {
        self.profiles.lock().unwrap().clear();
        self.pinballs.lock().unwrap().clear();
        self.profile_hits.store(0, Ordering::Relaxed);
        self.profile_misses.store(0, Ordering::Relaxed);
        self.pinball_hits.store(0, Ordering::Relaxed);
        self.pinball_misses.store(0, Ordering::Relaxed);
        self.store_hits.store(0, Ordering::Relaxed);
        self.store_puts.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(total: u64) -> BbvProfile {
        BbvProfile {
            slice_size: 100,
            slices: Vec::new(),
            total_insns: total,
        }
    }

    #[test]
    fn profile_hits_after_first_compute() {
        let cache = PipelineCache::new();
        let a = cache.profile(7, || profile_with(1));
        let b = cache.profile(7, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.profile_hits, s.profile_misses), (1, 1));
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache = PipelineCache::new();
        cache.profile(1, || profile_with(1));
        cache.profile(2, || profile_with(2));
        assert_eq!(cache.profile_count(), 2);
        assert_eq!(cache.stats().profile_misses, 2);
    }

    #[test]
    fn failed_captures_are_not_cached() {
        let cache = PipelineCache::new();
        let r = cache.pinball(3, || Err(CaptureError::NoLiveThreads));
        assert!(r.is_err());
        assert_eq!(cache.pinball_count(), 0);
        // A later successful compute still runs.
        assert_eq!(cache.stats().pinball_misses, 1);
    }

    /// A small captured pinball named `name`.
    fn pinball_named(name: &str) -> Pinball {
        let w = elfie_workloads::gcc_like(0);
        elfie_pinplay::Logger::new(elfie_pinplay::LoggerConfig::fat(
            name,
            elfie_pinball::RegionTrigger::GlobalIcount(100),
            100,
        ))
        .capture(&w.program, |m| w.setup(m))
        .expect("captures")
    }

    #[test]
    fn pinballs_compute_every_miss_in_one_call() {
        let cache = PipelineCache::new();
        cache.pinball(2, || Ok(pinball_named("two"))).unwrap();
        let mut calls = 0;
        let got = cache.pinballs(&[1, 2, 3, 4], |missing| {
            calls += 1;
            assert_eq!(missing, &[0, 2, 3]);
            vec![
                Ok(pinball_named("one")),
                Err(CaptureError::NoLiveThreads),
                Ok(pinball_named("four")),
            ]
        });
        assert_eq!(calls, 1);
        let names: Vec<String> = got
            .iter()
            .map(|r| r.as_ref().map_or("err".into(), |pb| pb.meta.name.clone()))
            .collect();
        assert_eq!(names, ["one", "two", "err", "four"]);
        let s = cache.stats();
        assert_eq!((s.pinball_hits, s.pinball_misses), (1, 1 + 3));
        assert_eq!(cache.pinball_count(), 3, "the failure is not cached");

        // All hits now but the failed key: only it is computed again.
        let again = cache.pinballs(&[4, 1, 3], |missing| {
            assert_eq!(missing, &[2]);
            vec![Ok(pinball_named("three"))]
        });
        assert!(again.iter().all(Result::is_ok));
        let s = cache.stats();
        assert_eq!((s.pinball_hits, s.pinball_misses), (3, 5));
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let cache = PipelineCache::new();
        cache.profile(1, || profile_with(1));
        cache.profile(1, || profile_with(1));
        cache.clear();
        assert_eq!(cache.profile_count(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn persistent_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("elfie-cache-persist-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // First "process": computes and writes through.
        let cold = PipelineCache::persistent(&dir).unwrap();
        cold.profile(42, || profile_with(77));
        let s = cold.stats();
        assert_eq!((s.profile_misses, s.store_hits, s.store_puts), (1, 0, 1));

        // Second "process": fresh instance, same store — no recompute.
        let warm = PipelineCache::persistent(&dir).unwrap();
        let p = warm.profile(42, || panic!("must come from the store"));
        assert_eq!(p.total_insns, 77);
        let s = warm.stats();
        assert_eq!((s.profile_hits, s.profile_misses, s.store_hits), (1, 0, 1));

        // Third lookup in the same instance hits memory, not the store.
        warm.profile(42, || panic!("must come from memory"));
        assert_eq!(warm.stats().store_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_pinball_streams_pages_from_the_persistent_tier() {
        use elfie_pinball::PageSource;
        let dir = std::env::temp_dir().join(format!("elfie-cache-lazy-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cache = PipelineCache::persistent(&dir).unwrap();
        assert!(cache.lazy_pinball(9).is_none(), "nothing stored yet");

        // Capture a real fat pinball and write it through the cache.
        let w = elfie_workloads::gcc_like(0);
        let logger = elfie_pinplay::Logger::new(elfie_pinplay::LoggerConfig::fat(
            "lazy",
            elfie_pinball::RegionTrigger::GlobalIcount(1_000),
            2_000,
        ));
        let pb = cache
            .pinball(9, || logger.capture(&w.program, |m| w.setup(m)))
            .expect("captures");

        let lazy = cache.lazy_pinball(9).expect("stored and lazily openable");
        assert_eq!(
            lazy.page_count(),
            pb.image.pages.len() + pb.lazy_pages.len()
        );
        assert!(
            lazy.skeleton.image.pages.is_empty(),
            "skeleton has no pages"
        );
        let (&addr, page) = pb.image.pages.iter().next().expect("fat image");
        let fetched = lazy.fetch_page(addr).expect("page streams in");
        assert_eq!(fetched.data[..], page.data[..]);
        assert_eq!(fetched.perm, page.perm);
        assert!(lazy.fetch_page(0xdead_f000).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_namespaces_isolate_one_shared_store() {
        let dir = std::env::temp_dir().join(format!("elfie-cache-tenant-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Tenant A computes and writes through under its namespace.
        let a = PipelineCache::persistent(&dir).unwrap().with_namespace("a");
        assert_eq!(a.namespace(), "a");
        a.profile(5, || profile_with(11));
        assert_eq!((a.stats().store_puts, a.stats().store_hits), (1, 0));

        // Tenant B shares the store but must not see A's artifact.
        let b = PipelineCache::persistent(&dir).unwrap().with_namespace("b");
        let p = b.profile(5, || profile_with(22));
        assert_eq!(p.total_insns, 22, "b computed its own artifact");
        assert_eq!((b.stats().store_hits, b.stats().store_puts), (0, 1));

        // A second instance of tenant A warm-starts from A's namespace.
        let a2 = PipelineCache::persistent(&dir).unwrap().with_namespace("a");
        let p = a2.profile(5, || panic!("must come from a's namespace"));
        assert_eq!(p.total_insns, 11);
        assert_eq!(a2.stats().store_hits, 1);

        // The default (empty) namespace keeps historical ref names: it
        // sees neither tenant and writes plain `profile-…` refs.
        let plain = PipelineCache::persistent(&dir).unwrap();
        assert_eq!(plain.namespace(), "");
        let p = plain.profile(5, || profile_with(33));
        assert_eq!(p.total_insns, 33);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_separate_workloads_and_parameters() {
        let a = elfie_workloads::gcc_like(1);
        let b = elfie_workloads::mcf_like(1);
        let m = MachineConfig::default();
        let k1 = PipelineCache::profile_key(&a, &m, 1000, 1_000_000);
        assert_eq!(k1, PipelineCache::profile_key(&a, &m, 1000, 1_000_000));
        assert_ne!(k1, PipelineCache::profile_key(&b, &m, 1000, 1_000_000));
        assert_ne!(k1, PipelineCache::profile_key(&a, &m, 2000, 1_000_000));
        assert_ne!(k1, PipelineCache::profile_key(&a, &m, 1000, 2_000_000));
        let m2 = MachineConfig {
            seed: 99,
            ..MachineConfig::default()
        };
        assert_ne!(k1, PipelineCache::profile_key(&a, &m2, 1000, 1_000_000));
    }
}
