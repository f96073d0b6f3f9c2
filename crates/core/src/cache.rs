//! Content-addressed caching of expensive pipeline artifacts.
//!
//! The three dominant costs in validation are BBV profiling (a full guest
//! run per workload), the whole-program reference run (another full guest
//! run per workload, the "true value" side of the comparison) and
//! fat-pinball capture (a logging run per workload, plus one per alternate
//! tried). All three are deterministic functions of their inputs, so
//! [`PipelineCache`] stores them under stable content hashes: a profile
//! under [`elfie_simpoint::ProfileKey`] (workload content, machine
//! fingerprint, slice size, fuel), a whole run under the workload content,
//! the measuring machine's fingerprint and the fuel, and a pinball under
//! the workload content plus the exact region coordinates. Repeating a
//! validation — a second trial with a different clustering seed, an
//! ablation over warm-up sizes, a re-run of the same experiment — then
//! reuses the artifacts instead of re-executing the guest.
//!
//! The cache is `Sync`; the parallel batch engine shares one instance
//! across all workers. Values are handed out as `Arc`s, so hits are
//! O(1) and never clone page data.
//!
//! With [`PipelineCache::persistent`] the in-memory tier is backed by a
//! content-addressed [`elfie_store::Store`] on disk: artifacts computed in
//! one process are reloaded by the next, so `elfie validate --store DIR`
//! warm-starts across runs. Every artifact kind takes one path, memory →
//! store → compute → write-through; a kind supplies only how it loads
//! from and saves to the store. A pinball is stored as a pinball (pages
//! deduplicated by the store); a profile as a raw `ESPF` stream and a
//! whole run as a raw `EWRN` stream, whose codecs live in this module.
//! Store hits count as cache hits (plus a separate `store_hits` counter),
//! and a missing, corrupt or unreadable store entry silently degrades to
//! a recompute.
//!
//! Admission: memory holds what was read back, the store what was
//! computed. A computed artifact that the store accepted is handed out
//! but not kept in memory; the next lookup of its key is a store hit,
//! which memory then keeps. Without a store, or when the write fails, a
//! computed artifact stays in memory. So artifacts computed once and
//! never asked for again — a long-lived daemon's fresh `record` jobs —
//! cost disk, not resident memory.

use elfie_pinball::Pinball;
use elfie_pinplay::CaptureError;
use elfie_simpoint::{BbvProfile, PinPoint, ProfileKey};
use elfie_store::{Store, StoreError};
use elfie_vm::MachineConfig;
use elfie_workloads::Workload;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared store for BBV profiles, whole-program runs and captured
/// pinballs.
#[derive(Debug, Default)]
pub struct PipelineCache {
    profiles: Tier<BbvProfile>,
    wholes: Tier<WholeRun>,
    pinballs: Tier<Pinball>,
    store: Option<Store>,
    /// Persistent-tier ref prefix (`{tenant}--`), empty for the default
    /// namespace. Memory-tier keys are *not* prefixed: one cache instance
    /// serves one namespace, so they cannot collide.
    namespace: String,
    store_hits: AtomicU64,
    store_puts: AtomicU64,
    /// Set once via [`PipelineCache::attach_tracer`]; lock-free to read,
    /// so untraced caches pay one pointer load per lookup.
    tracer: std::sync::OnceLock<Arc<elfie_trace::Tracer>>,
}

/// The memory tier and lookup counters of one artifact kind.
#[derive(Debug)]
struct Tier<T> {
    mem: Mutex<HashMap<u64, Arc<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Tier<T> {
    fn default() -> Tier<T> {
        Tier {
            mem: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T> Tier<T> {
    fn get(&self, key: u64) -> Option<Arc<T>> {
        self.mem
            .lock()
            .expect("no lookup panics holding the lock")
            .get(&key)
            .cloned()
    }

    /// Keeps `value` under `key`, unless a racing insert got there first:
    /// then both callers get that one.
    fn keep(&self, key: u64, value: Arc<T>) -> Arc<T> {
        Arc::clone(
            self.mem
                .lock()
                .expect("no lookup panics holding the lock")
                .entry(key)
                .or_insert(value),
        )
    }
}

/// One kind of cached artifact: its store ref prefix, its trace
/// instants, and how it loads from and saves to the persistent store.
trait Artifact: Sized {
    /// Store ref prefix, after the namespace.
    const PREFIX: &'static str;
    /// Trace instants for a memory hit, a store hit and a miss.
    const EVENTS: [&'static str; 3];

    /// The artifact stored under `name`; any store failure is `None`.
    fn load(store: &Store, name: &str) -> Option<Self>;

    /// Writes the artifact under `name`. Returns the encoded size when
    /// the kind reports it in its `store_put` instant.
    fn save(&self, store: &Store, name: &str) -> Result<Option<u64>, StoreError>;
}

impl Artifact for BbvProfile {
    const PREFIX: &'static str = "profile-";
    const EVENTS: [&'static str; 3] = ["profile_hit", "profile_store_hit", "profile_miss"];

    fn load(store: &Store, name: &str) -> Option<BbvProfile> {
        espf::from_bytes(&store.get_raw(name).ok()?).ok()
    }

    fn save(&self, store: &Store, name: &str) -> Result<Option<u64>, StoreError> {
        let bytes = espf::to_bytes(self);
        store.put_raw(name, &bytes)?;
        Ok(Some(bytes.len() as u64))
    }
}

/// A whole-program reference run: what the guest retired from start to
/// exit (or to the fuel bound), summed over its threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WholeRun {
    /// Instructions retired.
    pub insns: u64,
    /// Cycles elapsed.
    pub cycles: u64,
}

impl WholeRun {
    /// Cycles per instruction — the same figure
    /// [`crate::perf::NativeMeasurement::cpi`] holds for this run.
    pub fn cpi(&self) -> f64 {
        crate::perf::cpi(self.insns, self.cycles)
    }
}

impl Artifact for WholeRun {
    const PREFIX: &'static str = "whole-";
    const EVENTS: [&'static str; 3] = ["whole_hit", "whole_store_hit", "whole_miss"];

    fn load(store: &Store, name: &str) -> Option<WholeRun> {
        ewrn::from_bytes(&store.get_raw(name).ok()?).ok()
    }

    fn save(&self, store: &Store, name: &str) -> Result<Option<u64>, StoreError> {
        let bytes = ewrn::to_bytes(self);
        store.put_raw(name, &bytes)?;
        Ok(Some(bytes.len() as u64))
    }
}

impl Artifact for Pinball {
    const PREFIX: &'static str = "pinball-";
    const EVENTS: [&'static str; 3] = ["pinball_hit", "pinball_store_hit", "pinball_miss"];

    fn load(store: &Store, name: &str) -> Option<Pinball> {
        store.get_pinball(name).ok()
    }

    fn save(&self, store: &Store, name: &str) -> Result<Option<u64>, StoreError> {
        store.put_pinball(name, self).map(|_| None)
    }
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
    /// Whole-program run lookups served from the cache.
    pub whole_hits: u64,
    /// Whole-program run lookups that had to run the program.
    pub whole_misses: u64,
    /// Hits (of any kind) served from the persistent store rather than
    /// memory — i.e. warm starts inherited from an earlier process.
    pub store_hits: u64,
    /// Artifacts written through to the persistent store.
    pub store_puts: u64,
}

impl CacheStats {
    /// Total hits across every artifact kind.
    pub fn hits(&self) -> u64 {
        self.profile_hits
            .saturating_add(self.pinball_hits)
            .saturating_add(self.whole_hits)
    }

    /// Total misses across every artifact kind.
    pub fn misses(&self) -> u64 {
        self.profile_misses
            .saturating_add(self.pinball_misses)
            .saturating_add(self.whole_misses)
    }

    /// Total profile lookups.
    pub fn profile_lookups(&self) -> u64 {
        self.profile_hits.saturating_add(self.profile_misses)
    }

    /// Total pinball lookups.
    pub fn pinball_lookups(&self) -> u64 {
        self.pinball_hits.saturating_add(self.pinball_misses)
    }

    /// Total whole-program run lookups.
    pub fn whole_lookups(&self) -> u64 {
        self.whole_hits.saturating_add(self.whole_misses)
    }

    /// Overall hit fraction across every artifact kind, `[0, 1]`.
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
            whole_hits: self.whole_hits.saturating_sub(earlier.whole_hits),
            whole_misses: self.whole_misses.saturating_sub(earlier.whole_misses),
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
        self.whole_hits = self.whole_hits.saturating_add(other.whole_hits);
        self.whole_misses = self.whole_misses.saturating_add(other.whole_misses);
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
    pub fn persistent(dir: impl AsRef<Path>) -> Result<PipelineCache, StoreError> {
        Ok(PipelineCache::new().with_store(Store::open(dir)?))
    }

    /// Attaches a persistent store to this cache.
    pub fn with_store(mut self, store: Store) -> PipelineCache {
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
            let s = self.stats();
            tracer.counter("cache", "cache_hits", s.hits());
            tracer.counter("cache", "cache_misses", s.misses());
            tracer.counter("cache", "store_puts", s.store_puts);
        }
    }

    /// The cache key of a profiling run.
    pub fn profile_key(w: &Workload, machine: &MachineConfig, slice_size: u64, fuel: u64) -> u64 {
        ProfileKey::new(w.content_hash(), machine, slice_size, fuel).digest()
    }

    /// The cache key of a whole-program reference run on `machine`, the
    /// configuration [`crate::perf::measure_program`] measures on, bounded
    /// by `fuel`.
    pub fn whole_key(w: &Workload, machine: &MachineConfig, fuel: u64) -> u64 {
        elfie_isa::Fnv64::new()
            .u64(w.content_hash())
            .u64(machine.fingerprint())
            .u64(fuel)
            .finish()
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
        self.fetch_one(&self.profiles, key, compute)
    }

    /// Returns the whole-program run cached under `key`, or runs
    /// `compute`, stores and returns its result — as
    /// [`PipelineCache::profile`] does for profiles.
    pub fn whole(&self, key: u64, compute: impl FnOnce() -> WholeRun) -> WholeRun {
        *self.fetch_one(&self.wholes, key, compute)
    }

    /// The one-key, infallible case of [`PipelineCache::fetch`].
    fn fetch_one<T: Artifact>(
        &self,
        tier: &Tier<T>,
        key: u64,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        self.fetch(tier, &[key], |_| vec![Ok::<_, Infallible>(compute())])
            .pop()
            .expect("one result per key")
            .unwrap_or_else(|never| match never {})
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
        self.fetch(&self.pinballs, keys, compute_missing)
    }

    /// The one lookup path of every artifact kind, as documented on
    /// [`PipelineCache::pinballs`]. No lock is held across
    /// `compute_missing`, and only `Ok` results are kept.
    fn fetch<T: Artifact, E>(
        &self,
        tier: &Tier<T>,
        keys: &[u64],
        compute_missing: impl FnOnce(&[usize]) -> Vec<Result<T, E>>,
    ) -> Vec<Result<Arc<T>, E>> {
        let mut results: Vec<Option<Result<Arc<T>, E>>> = keys
            .iter()
            .map(|&key| self.lookup(tier, key).map(Ok))
            .collect();
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| results[i].is_none()).collect();
        if !missing.is_empty() {
            let computed = compute_missing(&missing);
            assert_eq!(computed.len(), missing.len(), "one result per missing key");
            for (&i, result) in missing.iter().zip(computed) {
                results[i] = Some(result.map(|value| self.insert(tier, keys[i], value)));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("looked up or computed"))
            .collect()
    }

    fn store_ref<T: Artifact>(&self, key: u64) -> String {
        format!("{}{}{key:016x}", self.namespace, T::PREFIX)
    }

    /// One lookup: memory, then store. Counts the hit, or the miss when
    /// neither tier has `key`.
    fn lookup<T: Artifact>(&self, tier: &Tier<T>, key: u64) -> Option<Arc<T>> {
        let [hit, store_hit, miss] = T::EVENTS;
        if let Some(found) = tier.get(key) {
            tier.hits.fetch_add(1, Ordering::Relaxed);
            self.trace_event(hit, &[("key", key)]);
            return Some(found);
        }
        let stored = self
            .store
            .as_ref()
            .and_then(|store| T::load(store, &self.store_ref::<T>(key)));
        if let Some(found) = stored {
            tier.hits.fetch_add(1, Ordering::Relaxed);
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            self.trace_event(store_hit, &[("key", key)]);
            return Some(tier.keep(key, Arc::new(found)));
        }
        tier.misses.fetch_add(1, Ordering::Relaxed);
        self.trace_event(miss, &[("key", key)]);
        None
    }

    /// Keeps a computed artifact: writes it through to the store, if
    /// any. Memory keeps it only when no store took it; otherwise the
    /// next lookup reads it back (see the module doc's admission rule).
    fn insert<T: Artifact>(&self, tier: &Tier<T>, key: u64, value: T) -> Arc<T> {
        if let Some(store) = &self.store {
            if let Ok(size) = value.save(store, &self.store_ref::<T>(key)) {
                self.store_puts.fetch_add(1, Ordering::Relaxed);
                match size {
                    Some(bytes) => self.trace_event("store_put", &[("key", key), ("bytes", bytes)]),
                    None => self.trace_event("store_put", &[("key", key)]),
                }
                return Arc::new(value);
            }
        }
        tier.keep(key, Arc::new(value))
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            profile_hits: self.profiles.hits.load(Ordering::Relaxed),
            profile_misses: self.profiles.misses.load(Ordering::Relaxed),
            pinball_hits: self.pinballs.hits.load(Ordering::Relaxed),
            pinball_misses: self.pinballs.misses.load(Ordering::Relaxed),
            whole_hits: self.wholes.hits.load(Ordering::Relaxed),
            whole_misses: self.wholes.misses.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_puts: self.store_puts.load(Ordering::Relaxed),
        }
    }
}

/// The persisted profile format: one `ESPF` version 1 stream per
/// profile, stored raw.
mod espf {
    use elfie_pinball::wire::{Reader, WireError, Writer};
    use elfie_simpoint::{Bbv, BbvProfile};

    const PROFILE_MAGIC: &[u8; 4] = b"ESPF";
    const PROFILE_VERSION: u32 = 1;

    /// Serialises a BBV profile into a self-describing wire buffer.
    pub(super) fn to_bytes(profile: &BbvProfile) -> Vec<u8> {
        let mut w = Writer::with_header(PROFILE_MAGIC, PROFILE_VERSION);
        w.u64(profile.slice_size);
        w.u64(profile.total_insns);
        w.u64(profile.slices.len() as u64);
        for slice in &profile.slices {
            w.u64(slice.len() as u64);
            for (&pc, &count) in slice {
                w.u64(pc);
                w.u64(count);
            }
        }
        w.into_bytes()
    }

    /// Inverse of [`to_bytes`].
    ///
    /// # Errors
    /// Returns [`WireError`] if the buffer is truncated, has trailing bytes,
    /// or carries an unknown magic/version.
    pub(super) fn from_bytes(buf: &[u8]) -> Result<BbvProfile, WireError> {
        let mut r = Reader::with_header(buf, PROFILE_MAGIC, PROFILE_VERSION)?;
        let slice_size = r.u64()?;
        let total_insns = r.u64()?;
        let n_slices = r.u64()?;
        let mut slices = Vec::with_capacity(n_slices.min(1 << 20) as usize);
        for _ in 0..n_slices {
            let n = r.u64()?;
            let mut slice = Bbv::new();
            for _ in 0..n {
                let pc = r.u64()?;
                let count = r.u64()?;
                slice.insert(pc, count);
            }
            slices.push(slice);
        }
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing profile bytes"));
        }
        Ok(BbvProfile {
            slice_size,
            slices,
            total_insns,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn sample() -> BbvProfile {
            let mut a = Bbv::new();
            a.insert(0x1000, 17);
            a.insert(0x1040, 3);
            let mut b = Bbv::new();
            b.insert(0x2000, 99);
            BbvProfile {
                slice_size: 10_000,
                slices: vec![a, b, Bbv::new()],
                total_insns: 23_456,
            }
        }

        #[test]
        fn roundtrip_preserves_everything() {
            let p = sample();
            let back = from_bytes(&to_bytes(&p)).unwrap();
            assert_eq!(back.slice_size, p.slice_size);
            assert_eq!(back.total_insns, p.total_insns);
            assert_eq!(back.slices, p.slices);
            assert_eq!(back.fingerprint(), p.fingerprint());
        }

        #[test]
        fn truncation_and_trailing_bytes_rejected() {
            let mut bytes = to_bytes(&sample());
            assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err());
            bytes.push(0);
            assert!(matches!(
                from_bytes(&bytes),
                Err(WireError::Corrupt("trailing profile bytes"))
            ));
        }

        /// The persisted `ESPF` v1 encoding of [`sample`], byte for byte: a
        /// warm `--store` directory depends on it.
        #[test]
        fn encoding_matches_the_pinned_bytes() {
            #[rustfmt::skip]
            const PINNED: &[u8] = &[
                b'E', b'S', b'P', b'F', 1, 0, 0, 0,
                0x10, 0x27, 0, 0, 0, 0, 0, 0, // slice_size 10000
                0xa0, 0x5b, 0, 0, 0, 0, 0, 0, // total_insns 23456
                3, 0, 0, 0, 0, 0, 0, 0, // 3 slices
                2, 0, 0, 0, 0, 0, 0, 0, // slice 0: 2 blocks
                0x00, 0x10, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0,
                0x40, 0x10, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
                1, 0, 0, 0, 0, 0, 0, 0, // slice 1: 1 block
                0x00, 0x20, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, // slice 2: empty
            ];
            assert_eq!(to_bytes(&sample()), PINNED);
            let back = from_bytes(PINNED).unwrap();
            assert_eq!(back.slices, sample().slices);
        }
    }
}

/// The persisted whole-run format: one `EWRN` version 1 stream per run,
/// stored raw — the two counters and an XXH64 trailer.
mod ewrn {
    use super::WholeRun;
    use elfie_pinball::wire::{Reader, WireError, Writer};

    const WHOLE_MAGIC: &[u8; 4] = b"EWRN";
    const WHOLE_VERSION: u32 = 1;

    /// Serialises a whole run.
    pub(super) fn to_bytes(run: &WholeRun) -> Vec<u8> {
        let mut w = Writer::with_header(WHOLE_MAGIC, WHOLE_VERSION);
        w.u64(run.insns);
        w.u64(run.cycles);
        w.into_checksummed_bytes()
    }

    /// Inverse of [`to_bytes`].
    ///
    /// # Errors
    /// Returns [`WireError`] if the buffer is truncated, has trailing
    /// bytes, fails its checksum, or carries an unknown magic/version.
    pub(super) fn from_bytes(buf: &[u8]) -> Result<WholeRun, WireError> {
        let mut r = Reader::checksummed(
            buf,
            WHOLE_MAGIC,
            WHOLE_VERSION..=WHOLE_VERSION,
            "whole-run checksum",
        )?;
        let run = WholeRun {
            insns: r.u64()?,
            cycles: r.u64()?,
        };
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing whole-run bytes"));
        }
        Ok(run)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SAMPLE: WholeRun = WholeRun {
            insns: 1_000_000,
            cycles: 1_234_567,
        };

        /// The persisted `EWRN` v1 encoding of [`SAMPLE`], byte for byte:
        /// a warm `--store` directory depends on it.
        #[test]
        fn encoding_matches_the_pinned_bytes() {
            #[rustfmt::skip]
            const PINNED: &[u8] = &[
                b'E', b'W', b'R', b'N', 1, 0, 0, 0,
                0x40, 0x42, 0x0f, 0, 0, 0, 0, 0, // insns 1000000
                0x87, 0xd6, 0x12, 0, 0, 0, 0, 0, // cycles 1234567
                0xeb, 0xe0, 0x9c, 0xf6, 0xcf, 0xa2, 0x14, 0x92, // XXH64 of the above
            ];
            assert_eq!(to_bytes(&SAMPLE), PINNED);
            assert_eq!(from_bytes(PINNED).unwrap(), SAMPLE);
        }

        #[test]
        fn truncated_trailing_and_flipped_bytes_are_rejected() {
            let bytes = to_bytes(&SAMPLE);
            for len in 0..bytes.len() {
                assert!(from_bytes(&bytes[..len]).is_err(), "truncated to {len}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(from_bytes(&long).is_err(), "trailing byte");
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 0x01;
                assert!(from_bytes(&flipped).is_err(), "flipped byte {i}");
            }
        }
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
        assert_eq!(cache.profile(1, || panic!("cached")).total_insns, 1);
        assert_eq!(cache.profile(2, || panic!("cached")).total_insns, 2);
        let s = cache.stats();
        assert_eq!((s.profile_hits, s.profile_misses), (2, 2));
    }

    #[test]
    fn failed_captures_are_not_cached() {
        let cache = PipelineCache::new();
        let r = cache.pinball(3, || Err(CaptureError::NoLiveThreads));
        assert!(r.is_err());
        assert_eq!(cache.stats().pinball_misses, 1);
        // A later successful compute still runs.
        let pb = cache.pinball(3, || Ok(pinball_named("three"))).unwrap();
        assert_eq!(pb.meta.name, "three");
        assert_eq!(cache.stats().pinball_misses, 2);
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

        // All hits now but the failed key, which was not cached: only it
        // is computed again.
        let again = cache.pinballs(&[4, 1, 3], |missing| {
            assert_eq!(missing, &[2]);
            vec![Ok(pinball_named("three"))]
        });
        assert!(again.iter().all(Result::is_ok));
        let s = cache.stats();
        assert_eq!((s.pinball_hits, s.pinball_misses), (3, 5));
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

    /// Flips one byte in the middle of every blob file under `dir`, and
    /// returns how many it flipped.
    fn corrupt_every_blob(dir: &Path) -> usize {
        let mut flipped = 0;
        for shard in std::fs::read_dir(dir.join("blobs")).unwrap() {
            for blob in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let path = blob.unwrap().path();
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5a;
                std::fs::write(&path, bytes).unwrap();
                flipped += 1;
            }
        }
        flipped
    }

    #[test]
    fn corrupt_store_entries_degrade_to_a_recompute() {
        let dir = std::env::temp_dir().join(format!("elfie-cache-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let profile = || BbvProfile {
            slice_size: 100,
            slices: vec![[(0x1000, 60), (0x1040, 40)].into(), [(0x2000, 100)].into()],
            total_insns: 200,
        };

        // Write a profile and a pinball through a persistent cache, then
        // flip a byte in each of their blob files.
        let cold = PipelineCache::persistent(&dir).unwrap();
        let p0 = cold.profile(1, profile);
        let pb0 = cold.pinball(2, || Ok(pinball_named("pb"))).unwrap();
        assert_eq!(cold.stats().store_puts, 2);
        assert!(corrupt_every_blob(&dir) >= 2);

        // A fresh cache over the same store recomputes both.
        let warm = PipelineCache::persistent(&dir).unwrap();
        let p1 = warm.profile(1, profile);
        let pb1 = warm.pinball(2, || Ok(pinball_named("pb"))).unwrap();
        let s = warm.stats();
        assert_eq!((s.profile_hits, s.profile_misses), (0, 1));
        assert_eq!((s.pinball_hits, s.pinball_misses), (0, 1));
        assert_eq!(s.store_hits, 0);
        assert_eq!(
            (p1.slice_size, &p1.slices, p1.total_insns),
            (p0.slice_size, &p0.slices, p0.total_insns)
        );
        assert_eq!(pb1.to_bytes(), pb0.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recompute_repairs_corrupt_store_blobs() {
        let dir = std::env::temp_dir().join(format!("elfie-cache-repair-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let profile = || profile_with(7);

        // The corrupt-store scenario: write through, flip every blob.
        let cold = PipelineCache::persistent(&dir).unwrap();
        cold.profile(1, profile);
        cold.pinball(2, || Ok(pinball_named("pb"))).unwrap();
        assert!(corrupt_every_blob(&dir) >= 2);

        // One cache recomputes each artifact once; its write-through
        // rewrites the corrupt blobs instead of deduplicating against them.
        let repair = PipelineCache::persistent(&dir).unwrap();
        repair.profile(1, profile);
        repair.pinball(2, || Ok(pinball_named("pb"))).unwrap();
        let s = repair.stats();
        assert_eq!(
            (s.profile_misses, s.pinball_misses, s.store_hits),
            (1, 1, 0)
        );

        // The next cache over the same store finds both intact.
        let warm = PipelineCache::persistent(&dir).unwrap();
        let p = warm.profile(1, || panic!("must come from the store"));
        assert_eq!(p.total_insns, 7);
        warm.pinball(2, || panic!("must come from the store"))
            .unwrap();
        let s = warm.stats();
        assert_eq!(
            (s.profile_misses, s.pinball_misses, s.store_hits),
            (0, 0, 2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenant_namespaces_isolate_one_shared_store() {
        let dir = std::env::temp_dir().join(format!("elfie-cache-tenant-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Tenant A computes and writes through under its namespace.
        let a = PipelineCache::persistent(&dir).unwrap().with_namespace("a");
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
        let p = plain.profile(5, || profile_with(33));
        assert_eq!(p.total_insns, 33);
        let refs: Vec<String> = elfie_store::Store::open(&dir)
            .unwrap()
            .list()
            .unwrap()
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(
            refs,
            [
                "a--profile-0000000000000005",
                "b--profile-0000000000000005",
                "profile-0000000000000005"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    const RUN: WholeRun = WholeRun {
        insns: 1_000,
        cycles: 2_500,
    };

    /// A fresh store directory for one test.
    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("elfie-cache-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn whole_keys_separate_seed_and_fuel_and_count_each_lookup_once() {
        let w = elfie_workloads::gcc_like(1);
        let key =
            |seed, fuel| PipelineCache::whole_key(&w, &crate::perf::native_machine(seed), fuel);
        let k = key(1, 1_000_000);
        assert_eq!(k, key(1, 1_000_000));
        assert_ne!(k, key(2, 1_000_000));
        assert_ne!(k, key(1, 2_000_000));
        let other = elfie_workloads::mcf_like(1);
        assert_ne!(
            k,
            PipelineCache::whole_key(&other, &crate::perf::native_machine(1), 1_000_000)
        );

        let cache = PipelineCache::new();
        assert_eq!(cache.whole(k, || RUN), RUN);
        assert_eq!(cache.whole(k, || panic!("must not rerun")), RUN);
        cache.whole(key(2, 1_000_000), || RUN);
        let s = cache.stats();
        assert_eq!((s.whole_hits, s.whole_misses), (1, 2));
        assert_eq!((s.hits(), s.misses()), (1, 2));
        assert_eq!(s.profile_lookups() + s.pinball_lookups(), 0);
        assert_eq!(RUN.cpi(), 2.5);
    }

    #[test]
    fn with_a_store_a_computed_artifact_is_read_back_from_it() {
        let dir = store_dir("admit");
        let cache = PipelineCache::persistent(&dir).unwrap();
        cache.whole(1, || RUN);
        let first = cache.pinball(2, || Ok(pinball_named("pb"))).unwrap();
        assert_eq!(cache.whole(1, || panic!("must come from the store")), RUN);
        let second = cache
            .pinball(2, || panic!("must come from the store"))
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &second), "memory did not keep it");
        assert_eq!(second.to_bytes(), first.to_bytes());
        let s = cache.stats();
        assert_eq!((s.whole_hits, s.whole_misses), (1, 1));
        assert_eq!((s.pinball_hits, s.pinball_misses), (1, 1));
        assert_eq!((s.store_hits, s.store_puts), (2, 2));

        // What was read back stays in memory.
        cache.whole(1, || panic!("must come from memory"));
        let third = cache
            .pinball(2, || panic!("must come from memory"))
            .unwrap();
        assert!(Arc::ptr_eq(&second, &third));
        assert_eq!(cache.stats().store_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_a_store_a_computed_artifact_stays_in_memory() {
        let cache = PipelineCache::new();
        cache.whole(1, || RUN);
        assert_eq!(cache.whole(1, || panic!("must come from memory")), RUN);
        let s = cache.stats();
        assert_eq!((s.whole_hits, s.whole_misses), (1, 1));
        assert_eq!((s.store_hits, s.store_puts), (0, 0));
    }

    #[test]
    fn after_a_failed_store_write_a_computed_artifact_stays_in_memory() {
        let dir = store_dir("failed-put");
        let cache = PipelineCache::persistent(&dir).unwrap();
        // A file where the refs directory belongs fails every ref write,
        // even for a user whom file permissions do not stop.
        std::fs::remove_dir_all(dir.join("refs")).unwrap();
        std::fs::write(dir.join("refs"), b"").unwrap();
        cache.whole(1, || RUN);
        assert_eq!(cache.whole(1, || panic!("must come from memory")), RUN);
        let s = cache.stats();
        assert_eq!((s.whole_hits, s.whole_misses), (1, 1));
        assert_eq!((s.store_hits, s.store_puts), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_malformed_whole_run_stream_degrades_to_a_recompute() {
        let dir = store_dir("bad-whole");
        let good = ewrn::to_bytes(&RUN);
        let truncated = good[..good.len() - 1].to_vec();
        let mut trailing = good.clone();
        trailing.push(0);
        let mut flipped = good.clone();
        flipped[10] ^= 0x01;
        for bad in [truncated, trailing, flipped] {
            let store = Store::open(&dir).unwrap();
            store.put_raw("whole-0000000000000001", &bad).unwrap();
            let cache = PipelineCache::new().with_store(store);
            assert_eq!(cache.whole(1, || RUN), RUN);
            let s = cache.stats();
            assert_eq!((s.whole_misses, s.store_hits, s.store_puts), (1, 0, 1));
            // The recompute rewrote the entry: the next cache reads it.
            let warm = PipelineCache::persistent(&dir).unwrap();
            assert_eq!(warm.whole(1, || panic!("must come from the store")), RUN);
        }
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
