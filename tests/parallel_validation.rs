//! The parallel batch engine's two contracts, asserted end to end:
//! determinism (any worker count produces the serial report, bit for bit)
//! and artifact reuse (a repeated run is served from the cache).

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
fn parallel_reports_identical_to_serial_across_worker_counts() {
    let w = elfie::workloads::gcc_like(1);
    let cfg = small_cfg();
    let reference =
        elfie::pipeline::validate_with_elfies(&w, &cfg, SEED, FUEL).expect("serial pipeline");
    assert!(
        reference.k >= 2,
        "want a multi-cluster workload, got k={}",
        reference.k
    );

    for workers in [1usize, 2, 8] {
        let engine = BatchValidator::new().with_workers(workers);
        // Run twice on the same engine: the first run exercises the worker
        // pool cold, the second exercises it against a warm cache. Both
        // must reproduce the serial report exactly — including the order
        // of `regions` and the float summation behind `predicted_cpi`.
        for run in 1..=2 {
            let (report, stats) = engine.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
            assert_eq!(
                report, reference,
                "report differs from serial (workers={workers}, run={run})"
            );
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.regions_attempted as usize, reference.regions.len());
        }
    }
}

#[test]
fn second_identical_run_is_served_from_the_cache() {
    let w = elfie::workloads::mcf_like(1);
    let cfg = small_cfg();
    let engine = BatchValidator::new().with_workers(2);

    let (first, s1) = engine.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
    assert_eq!(s1.cache.profile_hits, 0, "cold cache must profile");
    assert_eq!(s1.cache.profile_misses, 1);
    assert!(s1.cache.pinball_misses > 0, "cold cache must capture");

    let (second, s2) = engine.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
    assert_eq!(second, first);
    // Stats are windowed per run: the second window must show pure reuse.
    assert_eq!(
        s2.cache.profile_misses, 0,
        "second run re-profiled the guest"
    );
    assert_eq!(s2.cache.profile_hits, 1);
    // Every measurement the first run completed is a hit, and a hit
    // touches no pinball: only what the first run could not complete
    // (never cached) is fetched and measured again.
    assert!(
        s2.cache.measure_hits > 0,
        "second run re-measured every region"
    );
    assert_eq!(s2.cache.measure_hits, completed(&first));
    assert_eq!(s2.cache.pinball_lookups(), s2.cache.measure_misses);
    // Only captures that failed outright the first time (never cached) may
    // run again.
    assert!(s2.cache.pinball_misses <= s1.cache.pinball_misses);
    assert!(s2.cache.hits() > s1.cache.hits());
}

/// Regions whose measurement ran to completion — the ones a cache keeps.
fn completed(report: &ValidationReport) -> u64 {
    report
        .regions
        .iter()
        .filter(|r| r.measurement.is_some_and(|m| m.completed))
        .count() as u64
}

#[test]
fn cache_shared_between_engines_carries_artifacts_over() {
    let w = elfie::workloads::xz_like(1);
    let cfg = small_cfg();
    let cache = Arc::new(PipelineCache::new());

    let serial = BatchValidator::serial().with_cache(Arc::clone(&cache));
    let (r1, _) = serial.validate(&w, &cfg, SEED, FUEL).expect("pipeline");

    let pooled = BatchValidator::new().with_workers(4).with_cache(cache);
    let (r2, s2) = pooled.validate(&w, &cfg, SEED, FUEL).expect("pipeline");
    assert_eq!(
        r2, r1,
        "shared-cache run must still match the serial report"
    );
    assert_eq!(s2.cache.profile_misses, 0);
    assert!(s2.cache.measure_hits > 0);
    assert_eq!(s2.cache.measure_hits, completed(&r1));
    assert_eq!(s2.cache.pinball_lookups(), s2.cache.measure_misses);
}

/// The fleet contract behind `elfie bench`'s fleet scenario: many
/// concurrent validates racing through ONE persistent store produce
/// reports bit-identical to the serial pipeline, at every worker count.
/// Workers share a single `PipelineCache::persistent` whose memory tier
/// starts empty, so every job hydrates from the store tier while its
/// neighbours do the same.
#[test]
fn concurrent_fleet_against_one_store_matches_serial_reports() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workloads = [elfie::workloads::gcc_like(1), elfie::workloads::mcf_like(1)];
    let cfg = small_cfg();
    let dir = std::env::temp_dir().join(format!("elfie-fleet-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Serial references through their own store-less engines.
    let refs: Vec<ValidationReport> = workloads
        .iter()
        .map(|w| elfie::pipeline::validate_with_elfies(w, &cfg, SEED, FUEL).expect("serial"))
        .collect();

    // Seed the store once; the cache (and its memory tier) is dropped
    // afterwards so only the on-disk artifacts survive.
    {
        let cache = Arc::new(PipelineCache::persistent(&dir).expect("open store"));
        let seeder = BatchValidator::new()
            .with_workers(2)
            .with_cache(Arc::clone(&cache));
        for w in &workloads {
            seeder.validate(w, &cfg, SEED, FUEL).expect("seed");
        }
    }

    const JOBS: usize = 12;
    for fleet_workers in [2usize, 8] {
        let cache = Arc::new(PipelineCache::persistent(&dir).expect("reopen store"));
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<ValidationReport>>> =
            (0..JOBS).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..fleet_workers {
                scope.spawn(|| {
                    let engine = BatchValidator::serial().with_cache(Arc::clone(&cache));
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= JOBS {
                            break;
                        }
                        let w = &workloads[job % workloads.len()];
                        let (report, _) = engine.validate(w, &cfg, SEED, FUEL).expect("fleet job");
                        *results[job].lock().unwrap() = Some(report);
                    }
                });
            }
        });
        for (job, slot) in results.iter().enumerate() {
            let report = slot.lock().unwrap().take().expect("job was run");
            assert_eq!(
                report,
                refs[job % workloads.len()],
                "job {job} diverged from serial (workers={fleet_workers})"
            );
        }
        // The fleet ran entirely from the store: nothing was re-captured.
        let stats = cache.stats();
        assert_eq!(
            stats.store_puts, 0,
            "fleet re-captured artifacts (workers={fleet_workers}): {stats}"
        );
        assert!(
            stats.store_hits > 0,
            "fleet never touched the store (workers={fleet_workers}): {stats}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
