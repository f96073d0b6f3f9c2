//! Warm-starting validation across "process" boundaries: two runs that
//! share nothing in memory — only the on-disk store — must produce
//! identical reports, with the second run served from the store.

use elfie::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn small_cfg() -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 5_000,
        warmup: 10_000,
        max_k: 5,
        alternates: 2,
        ..PinPointsConfig::default()
    }
}

const FUEL: u64 = 50_000_000;
const SEED: u64 = 42;

#[test]
fn second_run_with_fresh_cache_warm_starts_from_the_store() {
    let dir = std::env::temp_dir().join(format!("elfie-persist-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let w = elfie::workloads::gcc_like(1);
    let cfg = small_cfg();

    // "Process" 1: cold store — everything computes, everything persists.
    let cache1 = Arc::new(PipelineCache::persistent(&dir).expect("opens store"));
    let engine1 = BatchValidator::new().with_workers(2).with_cache(cache1);
    let (first, s1) = engine1.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
    assert_eq!(s1.cache.profile_misses, 1, "cold run must profile");
    assert_eq!(s1.cache.whole_misses, 1, "cold run must run the program");
    assert!(s1.cache.pinball_misses > 0, "cold run must capture");
    assert_eq!(s1.cache.store_hits, 0);
    assert!(s1.cache.store_puts > 0, "artifacts must persist");

    // "Process" 2: a brand-new cache instance over the same directory.
    // Nothing is in memory, so every hit below comes off the disk store
    // and is visible in the PipelineStats as a store hit.
    let cache2 = Arc::new(PipelineCache::persistent(&dir).expect("opens store"));
    let engine2 = BatchValidator::new().with_workers(2).with_cache(cache2);
    let (second, s2) = engine2.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
    assert_eq!(second, first, "warm-started report must be identical");
    assert_eq!(
        elfie::render::validation_report(&w.name, &second),
        elfie::render::validation_report(&w.name, &first),
        "and so must its text"
    );
    assert_eq!(s2.cache.profile_misses, 0, "profile must come from store");
    assert_eq!(s2.cache.profile_hits, 1);
    assert_eq!(
        (s2.cache.whole_hits, s2.cache.whole_misses),
        (1, 0),
        "the reference run must come from store"
    );
    // Every region the cold run measured to completion is measured once:
    // the warm run reads each measurement from the store, so it fetches
    // no pinball, converts nothing and executes no guest instruction.
    assert_eq!(
        (s2.cache.measure_hits, s2.cache.measure_misses),
        (s2.regions_attempted, 0),
        "every measurement must come from store"
    );
    assert_eq!(
        s2.cache.pinball_lookups(),
        0,
        "a warm run fetches no pinball"
    );
    assert_eq!(
        s2.cache.store_hits,
        s2.cache.hits(),
        "every hit must be a store hit"
    );
    assert_eq!(s2.cache.store_puts, 0, "a warm run computes nothing");
    assert_eq!(s2.vm.insns, 0, "a warm run executes no guest code");
    assert_eq!(
        (s2.capture_time, s2.convert_time, s2.measure_time),
        (Duration::ZERO, Duration::ZERO, Duration::ZERO)
    );

    // The store holds a verifiable, deduplicated artifact corpus.
    let store = elfie::store::Store::open(&dir).expect("reopens");
    assert!(store.verify().expect("verifies").is_ok());
    let stats = store.stats().expect("stats");
    assert!(stats.objects > 0);
    assert!(
        stats.total_ratio() > 1.0,
        "fat pinballs should dedup+compress, got {:.2}x",
        stats.total_ratio()
    );
    std::fs::remove_dir_all(&dir).ok();
}
