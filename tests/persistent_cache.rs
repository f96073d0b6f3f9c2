//! Warm-starting validation across "process" boundaries: two runs that
//! share nothing in memory — only the on-disk store — must produce
//! identical reports, with the second run served from the store.

use elfie::prelude::*;
use std::sync::Arc;

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
    assert_eq!(s2.cache.profile_misses, 0, "profile must come from store");
    assert_eq!(s2.cache.profile_hits, 1);
    assert_eq!(
        (s2.cache.whole_hits, s2.cache.whole_misses),
        (1, 0),
        "the reference run must come from store"
    );
    // The warm run executes region ELFies only: fewer guest instructions
    // than one whole-program run.
    let whole = elfie::perf::measure_program(&w, SEED, FUEL);
    assert!(
        s2.vm.insns < whole.insns,
        "warm run executed {} guest insns, a whole run is {}",
        s2.vm.insns,
        whole.insns
    );
    assert!(s2.cache.pinball_hits > 0, "pinballs must come from store");
    assert!(
        s2.cache.store_hits > 0,
        "stats must attribute the warm start"
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
