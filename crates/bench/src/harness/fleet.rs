//! The **fleet** scenario: hundreds of concurrent validates against one
//! persistent store — the deployment shape the paper's SPEC-scale
//! PinPoints release implies (one artifact store, many consumers).
//!
//! The scenario has two phases. A *seeding* phase runs each workload
//! once through a write-through [`PipelineCache::persistent`], so the
//! store holds every BBV profile and pinball. The *fleet* phase then
//! opens a **fresh** cache over the same store (empty memory tier, warm
//! store tier) and fires `jobs` validates at it from a worker pool:
//! every artifact fetch must be a store hit, zero captures may run, and
//! same-workload jobs must produce bit-identical reports (the engine's
//! determinism contract, which `tests/parallel_validation.rs` asserts
//! at unit scale). Per-job latency comes from `elfie-trace` spans —
//! one labelled `job` span per validate — folded into p50/p95 with
//! [`elfie_trace::percentile_ns`].

use super::doc::{Metric, ScenarioResult};
use super::{ms, BenchKnobs};
use elfie::prelude::*;
use elfie_trace::{percentile_ns, span_durations_ns};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sizing for one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total validates to fire.
    pub jobs: usize,
    /// Worker threads pulling jobs.
    pub workers: usize,
    /// Per-validate PinPoints configuration.
    pub cfg: PinPointsConfig,
    /// SimPoint seed (shared by every job so reports are comparable).
    pub seed: u64,
    /// Per-run fuel.
    pub fuel: u64,
}

impl FleetConfig {
    /// Profile-sized config: 120 jobs / 8 workers for smoke (the CI
    /// gate), 400 jobs / all cores for full.
    pub fn for_knobs(knobs: &BenchKnobs) -> FleetConfig {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        FleetConfig {
            jobs: knobs.profile.pick(120, 400),
            workers: knobs.profile.pick(8, cores.max(8)),
            cfg: PinPointsConfig {
                slice_size: 5_000,
                warmup: 2_000,
                max_k: 3,
                alternates: 1,
                ..PinPointsConfig::default()
            },
            seed: 17,
            fuel: 50_000_000,
        }
    }
}

/// Everything one fleet run measured.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Fleet-phase wall clock.
    pub wall: Duration,
    /// Per-job [`PipelineStats`] merged into fleet totals.
    pub merged: PipelineStats,
    /// Ascending per-job latencies from the `job` trace spans.
    pub job_ns: Vec<u64>,
    /// Same-workload jobs produced bit-identical reports.
    pub deterministic: bool,
    /// Store counters over the fleet phase only.
    pub store_hits: u64,
    /// Store puts over the fleet phase only (must be 0: seeding put
    /// everything).
    pub store_puts: u64,
    /// Jobs completed (== `cfg.jobs`).
    pub jobs: usize,
}

/// Seeds `dir` with every artifact the workloads need, then runs the
/// concurrent fleet phase against a fresh cache over that store.
///
/// # Errors
/// Propagates store-open and pipeline errors from either phase.
pub fn run_fleet(
    cfg: &FleetConfig,
    workloads: &[Workload],
    dir: &std::path::Path,
) -> Result<FleetOutcome, String> {
    assert!(!workloads.is_empty());
    // Phase 1: seed the store (write-through persistent cache).
    {
        let seed_cache =
            Arc::new(PipelineCache::persistent(dir).map_err(|e| format!("open store: {e}"))?);
        let engine = BatchValidator::new()
            .with_workers(cfg.workers.min(4))
            .with_cache(seed_cache);
        engine
            .validate_batch(workloads, &cfg.cfg, cfg.seed, cfg.fuel)
            .map_err(|e| format!("seeding validate: {e}"))?;
    }

    // Phase 2: the fleet. Fresh cache = empty memory tier over the warm
    // store; every artifact fetch must come from the store tier.
    let cache = Arc::new(PipelineCache::persistent(dir).map_err(|e| format!("open store: {e}"))?);
    let tracer = Arc::new(Tracer::with_capacity(TraceMode::Full, 1 << 16));
    cache.attach_tracer(Arc::clone(&tracer));

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<(ValidationReport, PipelineStats)>>> =
        (0..cfg.jobs).map(|_| Mutex::new(None)).collect();
    let first_error: Mutex<Option<String>> = Mutex::new(None);

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..cfg.workers {
            let tracer = Arc::clone(&tracer);
            let cache = Arc::clone(&cache);
            let (next, results, first_error) = (&next, &results, &first_error);
            s.spawn(move || {
                tracer.set_thread_name(&format!("fleet-{worker}"));
                let engine = BatchValidator::serial().with_cache(cache);
                loop {
                    let job = next.fetch_add(1, Ordering::Relaxed);
                    if job >= cfg.jobs {
                        break;
                    }
                    let w = &workloads[job % workloads.len()];
                    let outcome = {
                        let _span =
                            tracer.span_labeled("fleet", "job", format!("{}#{job}", w.name));
                        engine.validate(w, &cfg.cfg, cfg.seed, cfg.fuel)
                    };
                    match outcome {
                        Ok(pair) => *results[job].lock().unwrap() = Some(pair),
                        Err(e) => {
                            first_error
                                .lock()
                                .unwrap()
                                .get_or_insert_with(|| format!("job {job} ({}): {e}", w.name));
                            break;
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }

    // Fold the per-job stats and check determinism: every job on the
    // same workload must report exactly what job #i (i < workloads.len())
    // reported.
    let mut merged: Option<PipelineStats> = None;
    let mut references: Vec<Option<ValidationReport>> = vec![None; workloads.len()];
    let mut deterministic = true;
    for (job, slot) in results.into_iter().enumerate() {
        let (report, stats) = slot.into_inner().unwrap().expect("job ran");
        match &mut merged {
            None => merged = Some(stats),
            Some(m) => m.merge(&stats),
        }
        match &references[job % workloads.len()] {
            None => references[job % workloads.len()] = Some(report),
            Some(reference) => deterministic &= *reference == report,
        }
    }
    let merged = merged.expect("at least one job");

    let data = tracer.collect();
    let job_ns = span_durations_ns(&data, "job");

    // The fleet cache was born fresh, so its cumulative counters are the
    // fleet phase alone (the per-job windows overlap under concurrency
    // and would double-count).
    let cache_totals = cache.stats();
    Ok(FleetOutcome {
        wall,
        merged,
        job_ns,
        deterministic,
        store_hits: cache_totals.store_hits,
        store_puts: cache_totals.store_puts,
        jobs: cfg.jobs,
    })
}

/// The registered scenario: seeds + runs the fleet in a temp store and
/// translates the outcome into gate metrics.
pub fn fleet(knobs: &BenchKnobs) -> ScenarioResult {
    let cfg = FleetConfig::for_knobs(knobs);
    let f = InputScale::Test.factor();
    let workloads = vec![elfie::workloads::gcc_like(f), elfie::workloads::mcf_like(f)];
    let dir = std::env::temp_dir().join(format!("elfie-bench-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let outcome = run_fleet(&cfg, &workloads, &dir).expect("fleet runs");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        outcome.job_ns.len(),
        outcome.jobs,
        "every job must leave a span"
    );
    let wall_s = outcome.wall.as_secs_f64();
    let hit_rate =
        outcome.store_hits as f64 / (outcome.store_hits + outcome.store_puts).max(1) as f64;

    ScenarioResult {
        name: "fleet".to_string(),
        runs: 1,
        notes: format!(
            "{} jobs on {} workers, {} workloads, one store; {} store hits, {} puts, {} spans",
            outcome.jobs,
            cfg.workers,
            workloads.len(),
            outcome.store_hits,
            outcome.store_puts,
            outcome.job_ns.len(),
        ),
        metrics: vec![
            Metric::higher("jobs_completed", outcome.jobs as f64, "jobs", 0.0).uncalibrated(),
            // Guest instructions the warm fleet executed: 0, since every
            // artifact a job needs, region measurements included, was
            // seeded, so any guest code run here is a cache regression.
            Metric::lower(
                "guest_minsns",
                outcome.merged.vm.insns as f64 / 1e6,
                "Minsn",
                0.0,
            )
            .uncalibrated(),
            Metric::higher("jobs_per_sec", outcome.jobs as f64 / wall_s, "jobs/s", 0.50),
            Metric::lower(
                "p50_job_ms",
                ms(Duration::from_nanos(percentile_ns(&outcome.job_ns, 50.0))),
                "ms",
                0.60,
            ),
            Metric::lower(
                "p95_job_ms",
                ms(Duration::from_nanos(percentile_ns(&outcome.job_ns, 95.0))),
                "ms",
                0.75,
            ),
            Metric::higher("store_hit_rate", hit_rate, "frac", 0.0).uncalibrated(),
            Metric::lower("store_puts", outcome.store_puts as f64, "count", 0.0).uncalibrated(),
            Metric::lower(
                "peak_rss_bytes",
                outcome.merged.vm.mat.peak_owned_bytes as f64,
                "bytes",
                0.25,
            )
            .uncalibrated(),
            // Residual privately-owned page bytes after every job tore
            // down — 0 unless a machine leaks frames, so this gates
            // leaks, not throughput.
            Metric::lower(
                "owned_rss_bytes",
                outcome.merged.vm.mat.owned_bytes as f64,
                "bytes",
                0.25,
            )
            .uncalibrated(),
            Metric::higher(
                "deterministic_reports",
                f64::from(u8::from(outcome.deterministic)),
                "bool",
                0.0,
            )
            .uncalibrated(),
        ],
    }
}
