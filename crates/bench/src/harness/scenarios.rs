//! The measured scenarios behind `elfie bench run`.
//!
//! Each scenario is the one measuring implementation of a perf claim:
//! `elfie bench` gates it, and `paper_tables` prints the same-named
//! ablation from it ([`crate::experiments::scenario`]). Scenarios are
//! sized by [`BenchKnobs`], measured with [`interleaved_min`], and
//! return a [`ScenarioResult`] whose metrics carry their own direction,
//! tolerance band, and calibration flag, so the comparator needs no
//! out-of-band knowledge.
//!
//! Tolerance bands follow one rule: **deterministic figures get tight
//! bands** (ratios, hit rates, byte counts — any drift is a real
//! behaviour change that should force a baseline update), **wall-clock
//! figures get wide bands** (they are probe-calibrated, but scheduling
//! noise survives even min-of-runs).

use super::doc::{Metric, ScenarioResult};
use super::{counted_loop, interleaved_min, ms, BenchKnobs};
use super::{fleet, serve};
use elfie::pinplay::BootMode;
use elfie::prelude::*;
use elfie::vm::NullObserver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named scenario entry: its baseline key and the measuring function.
pub type ScenarioEntry = (&'static str, fn(&BenchKnobs) -> ScenarioResult);

/// Every scenario `elfie bench` knows, in the order `run` executes them.
pub const SCENARIOS: &[ScenarioEntry] = &[
    ("vm_fastpath", vm_fastpath),
    ("mem_materialize", mem_materialize),
    ("trace_overhead", trace_overhead),
    ("store_dedup", store_dedup),
    ("parallel_scaling", parallel_scaling),
    ("fleet", fleet::fleet),
    ("daemon_serve", serve::daemon_serve),
    ("sharded_simulate", sharded_simulate),
];

/// **vm_fastpath** — the PR 3 headline: decoded-block cache + software
/// TLB vs the plain per-step interpreter, same counted loop,
/// bit-identical architectural results.
pub fn vm_fastpath(knobs: &BenchKnobs) -> ScenarioResult {
    let iters = knobs.profile.pick(150_000u64, 300_000);
    let prog = counted_loop(iters);
    let run = |block_cache: bool, tlb: bool| {
        let mut m = Machine::new(MachineConfig {
            block_cache,
            ..MachineConfig::default()
        });
        m.load_program(&prog);
        m.mem.set_tlb_enabled(tlb);
        let t0 = Instant::now();
        let summary = m.run(100_000_000);
        let wall = t0.elapsed();
        assert_eq!(summary.reason, ExitReason::AllExited(0), "loop must exit");
        (m.fastpath_stats(), wall, m.threads[0].regs.clone())
    };
    // Warm both paths, and pin the fast path's functional equivalence
    // while we are at it.
    let (fp, _, interp_regs) = run(false, false);
    let (fast_fp, _, fast_regs) = run(true, true);
    assert_eq!(interp_regs, fast_regs, "fast path diverged architecturally");
    let insns = fp.insns;

    let mut interp = || run(false, false).1;
    let mut fast = || run(true, true).1;
    let minima = interleaved_min(knobs.runs, &mut [&mut interp, &mut fast]);
    let mips = |wall: Duration| insns as f64 / 1e6 / wall.as_secs_f64();
    let (interp_mips, fast_mips) = (mips(minima[0]), mips(minima[1]));

    ScenarioResult {
        name: "vm_fastpath".to_string(),
        runs: knobs.runs as u64,
        notes: format!("{iters} loop iterations, {insns} guest insns per run"),
        metrics: vec![
            Metric::higher("interp_mips", interp_mips, "mips", 0.40),
            Metric::higher("fast_mips", fast_mips, "mips", 0.40),
            Metric::higher("fastpath_speedup", fast_mips / interp_mips, "x", 0.40).uncalibrated(),
            Metric::higher("block_hit_rate", fast_fp.block_hit_rate(), "frac", 0.02).uncalibrated(),
            Metric::higher("tlb_hit_rate", fast_fp.tlb_hit_rate(), "frac", 0.02).uncalibrated(),
        ],
    }
}

/// **mem_materialize** — the PR 4 headline: an 8-worker fleet booting
/// one fat checkpoint, deep-copy vs shared CoW arena, plus the
/// (deterministic) residency reduction per machine.
pub fn mem_materialize(knobs: &BenchKnobs) -> ScenarioResult {
    const WORKERS: usize = 8;
    let w = elfie::workloads::gcc_like(4);
    let region_len = knobs.profile.pick(20_000u64, 40_000);
    let logger = Logger::new(LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(50_000),
        region_len,
    ));
    let pb = logger
        .capture(&w.program, |m| w.setup(m))
        .expect("captures");

    let replayer = |boot: BootMode| {
        Replayer::new(ReplayConfig {
            boot,
            ..ReplayConfig::default()
        })
    };
    let fleet_boot = |boot: BootMode| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let pb = &pb;
                    let replayer = &replayer;
                    s.spawn(move || {
                        let (m, _tids) = replayer(boot).build_machine_with(pb, NullObserver);
                        m.mem.materialize_stats().pages_mapped
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .sum::<u64>()
        })
    };
    fleet_boot(BootMode::Shared); // warm thread machinery + arena

    let mut deep = || {
        let t0 = Instant::now();
        fleet_boot(BootMode::DeepCopy);
        t0.elapsed()
    };
    let mut shared = || {
        let t0 = Instant::now();
        fleet_boot(BootMode::Shared);
        t0.elapsed()
    };
    let minima = interleaved_min(knobs.runs, &mut [&mut deep, &mut shared]);

    // Per-machine residency is deterministic: one boot each way.
    let (deep_m, _) = replayer(BootMode::DeepCopy).build_machine_with(&pb, NullObserver);
    let (shared_m, _) = replayer(BootMode::Shared).build_machine_with(&pb, NullObserver);
    let deep_stats = deep_m.mem.materialize_stats();
    let shared_stats = shared_m.mem.materialize_stats();
    assert_eq!(deep_stats.pages_mapped, shared_stats.pages_mapped);

    ScenarioResult {
        name: "mem_materialize".to_string(),
        runs: knobs.runs as u64,
        notes: format!(
            "{WORKERS}-worker boot of one fat {} checkpoint ({} pages)",
            w.name, deep_stats.pages_mapped
        ),
        metrics: vec![
            Metric::lower("boot_shared_ms", ms(minima[1]), "ms", 0.60),
            Metric::higher(
                "boot_speedup_shared",
                minima[0].as_secs_f64() / minima[1].as_secs_f64(),
                "x",
                0.50,
            )
            .uncalibrated(),
            Metric::lower(
                "shared_peak_owned_bytes",
                shared_stats.peak_owned_bytes as f64,
                "bytes",
                0.02,
            )
            .uncalibrated(),
            Metric::higher(
                "residency_reduction",
                deep_stats.peak_owned_bytes as f64 / shared_stats.peak_owned_bytes.max(1) as f64,
                "x",
                0.02,
            )
            .uncalibrated(),
        ],
    }
}

/// **trace_overhead** — the PR 5 headline: a disabled tracer must leave
/// the VM fast path alone, and full-mode tracing must actually record.
pub fn trace_overhead(knobs: &BenchKnobs) -> ScenarioResult {
    let iters = knobs.profile.pick(120_000u64, 200_000);
    let prog = counted_loop(iters);
    let timed = |tracer: Option<Arc<Tracer>>| {
        let mut sim = Simulator::new(elfie::sim::CoreParams::haswell_like());
        if let Some(tracer) = tracer {
            sim = sim.with_tracer(tracer);
        }
        let t0 = Instant::now();
        let out = simulate_program(&prog, &sim, |_| {});
        let wall = t0.elapsed();
        assert_eq!(out.exit, ExitReason::AllExited(0));
        (wall, out.fastpath.insns)
    };
    // Warm both arms (page-ins, lazy statics, branch predictors).
    let (_, insns) = timed(None);
    timed(Some(Arc::new(Tracer::new(TraceMode::Disabled))));

    let mut base = || timed(None).0;
    let mut disabled = || timed(Some(Arc::new(Tracer::new(TraceMode::Disabled)))).0;
    let minima = interleaved_min(knobs.runs.max(5), &mut [&mut base, &mut disabled]);
    let ratio = minima[1].as_secs_f64() / minima[0].as_secs_f64();
    let base_mips = insns as f64 / 1e6 / minima[0].as_secs_f64();

    // Full mode must record the run (deterministic event count).
    let full = Arc::new(Tracer::new(TraceMode::Full));
    let sim = Simulator::new(elfie::sim::CoreParams::haswell_like()).with_tracer(Arc::clone(&full));
    simulate_program(&prog, &sim, |_| {});
    let events = full.collect().event_count();

    ScenarioResult {
        name: "trace_overhead".to_string(),
        runs: knobs.runs.max(5) as u64,
        notes: format!("{iters} loop iterations under the cycle simulator"),
        metrics: vec![
            Metric::lower("disabled_overhead_ratio", ratio, "x", 0.08).uncalibrated(),
            Metric::higher("sim_base_mips", base_mips, "mips", 0.40),
            Metric::higher("full_trace_events", events as f64, "events", 0.0).uncalibrated(),
        ],
    }
}

/// **store_dedup** — the PR 2 headline: fat regions of one workload
/// share almost every page, and the content-addressed store keeps one
/// blob per distinct page. Everything here is deterministic.
pub fn store_dedup(knobs: &BenchKnobs) -> ScenarioResult {
    let w = elfie::workloads::gcc_like(4);
    let dir = std::env::temp_dir().join(format!("elfie-bench-dedup-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("opens store");
    let starts = [20_000u64, 60_000, 100_000];
    let mut names = Vec::new();
    for &start in &starts {
        let cfg = LoggerConfig::fat(
            &format!("{}@{start}", w.name),
            RegionTrigger::GlobalIcount(start),
            40_000,
        );
        let pb = Logger::new(cfg)
            .capture(&w.program, |m| w.setup(m))
            .expect("captures");
        store
            .put_pinball(&pb.region.name, &pb)
            .expect("stores pinball");
        names.push(pb.region.name);
    }
    let stats = store.stats().expect("stats");
    assert_eq!(stats.objects, starts.len());
    assert!(store.verify().expect("verifies").is_ok());
    // Blob files one eager get of each region reads: a get reads each
    // distinct blob once, however many pages share it.
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let reader = store.clone().with_tracer(Arc::clone(&tracer));
    for name in &names {
        reader.get_pinball(name).expect("reads pinball");
    }
    let get_blob_reads: u64 = tracer
        .collect()
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.cat == "store" && e.name == "get_pinball")
        .flat_map(|e| e.args.entries())
        .filter(|(key, _)| *key == "blobs_read")
        .map(|&(_, n)| n)
        .sum();
    std::fs::remove_dir_all(&dir).ok();

    ScenarioResult {
        name: "store_dedup".to_string(),
        runs: knobs.runs as u64,
        notes: format!(
            "{} fat regions of {}, {} logical bytes, {} blob(s)",
            starts.len(),
            w.name,
            stats.logical_bytes,
            stats.blobs
        ),
        metrics: vec![
            Metric::higher("dedup_ratio", stats.dedup_ratio(), "x", 0.02).uncalibrated(),
            Metric::higher("compression_ratio", stats.compression_ratio(), "x", 0.02)
                .uncalibrated(),
            Metric::higher("total_ratio", stats.total_ratio(), "x", 0.02).uncalibrated(),
            Metric::lower("physical_bytes", stats.physical_bytes as f64, "bytes", 0.02)
                .uncalibrated(),
            Metric::lower("get_blob_reads", get_blob_reads as f64, "blobs", 0.02).uncalibrated(),
        ],
    }
}

/// **parallel_scaling** — the batch engine's scheduling: the same
/// validation batch serial vs 4 workers, reports bit-identical.
pub fn parallel_scaling(knobs: &BenchKnobs) -> ScenarioResult {
    let f = knobs
        .profile
        .pick(InputScale::Test.factor(), InputScale::Train.factor());
    let workloads: Vec<Workload> = knobs.profile.pick(
        vec![elfie::workloads::gcc_like(f), elfie::workloads::mcf_like(f)],
        vec![
            elfie::workloads::gcc_like(f),
            elfie::workloads::mcf_like(f),
            elfie::workloads::xalancbmk_like(f),
            elfie::workloads::x264_like(f),
        ],
    );
    let cfg = knobs.profile.pick(
        PinPointsConfig {
            slice_size: 5_000,
            warmup: 10_000,
            max_k: 4,
            alternates: 2,
            ..PinPointsConfig::default()
        },
        PinPointsConfig {
            slice_size: 25_000,
            warmup: 50_000,
            max_k: 8,
            alternates: 2,
            ..PinPointsConfig::default()
        },
    );
    let fuel = knobs.profile.pick(50_000_000u64, 1_000_000_000);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let run = |workers: usize| {
        // Fresh engine per run: cold caches make it a pure scheduling
        // comparison.
        let engine = BatchValidator::new().with_workers(workers);
        let (reports, stats) = engine
            .validate_batch(&workloads, &cfg, 17, fuel)
            .expect("pipeline");
        (reports, stats.total)
    };
    run(4); // warm thread machinery and the page arena

    let mut serial_reports = Vec::new();
    let mut parallel_reports = Vec::new();
    let mut serial = || {
        let (reports, total) = run(1);
        serial_reports = reports;
        total
    };
    let mut pooled = || {
        let (reports, total) = run(4);
        parallel_reports = reports;
        total
    };
    let minima = interleaved_min(knobs.runs, &mut [&mut serial, &mut pooled]);
    let identical = serial_reports == parallel_reports;
    let speedup = minima[0].as_secs_f64() / minima[1].as_secs_f64();
    // The speedup target only holds where 4 workers actually get 4 cores;
    // smaller boxes still gate on the recorded figure and on identity.
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >= 2x at 4 workers on {cores} core(s), got {speedup:.2}x"
        );
    }

    ScenarioResult {
        name: "parallel_scaling".to_string(),
        runs: knobs.runs as u64,
        notes: format!(
            "{} workloads, maxK {}, serial vs 4 workers, {cores} core(s) available",
            workloads.len(),
            cfg.max_k
        ),
        metrics: vec![
            Metric::lower("serial_wall_ms", ms(minima[0]), "ms", 0.60),
            Metric::higher("speedup_4workers", speedup, "x", 0.90).uncalibrated(),
            Metric::higher(
                "reports_identical",
                f64::from(u8::from(identical)),
                "bool",
                0.0,
            )
            .uncalibrated(),
        ],
    }
}

/// **sharded_simulate** — the PR 8 headline: interval snapshots turn
/// one region's detailed simulation into independent slices, so the
/// simulate wall drops from O(region) to O(region/workers). One serial
/// `simulate_pinball` vs `simulate_pinball_sharded` at 8 shards, with
/// the functional bit-identity pinned in-scenario (the differential
/// suite proves the full contract).
pub fn sharded_simulate(knobs: &BenchKnobs) -> ScenarioResult {
    const SHARDS: usize = 8;
    let w = elfie::workloads::gcc_like(knobs.profile.pick(4, 8));
    let region_len = knobs.profile.pick(60_000u64, 400_000);
    let pb = Logger::new(LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(50_000),
        region_len,
    ))
    .capture(&w.program, |m| w.setup(m))
    .expect("captures");
    let sim = Simulator::new(elfie::sim::CoreParams::haswell_like());
    let cfg = ShardConfig {
        shards: SHARDS,
        interval: region_len / 10,
    };

    // Warm both arms, and pin the sharded path's functional equivalence
    // while we are at it.
    let serial_out = simulate_pinball(&pb, &sim);
    let out = simulate_pinball_sharded(&pb, &sim, &cfg);
    assert!(out.summary.completed, "sharded replay diverged");
    let identical = out.outcome.machine_icounts == serial_out.machine_icounts
        && out.outcome.fastpath.insns == serial_out.fastpath.insns;

    let mut serial = || {
        let t0 = Instant::now();
        simulate_pinball(&pb, &sim);
        t0.elapsed()
    };
    let mut stitch_ns = u64::MAX;
    let mut profile_ns = u64::MAX;
    let mut sharded = || {
        let t0 = Instant::now();
        let o = simulate_pinball_sharded(&pb, &sim, &cfg);
        stitch_ns = stitch_ns.min(o.stitch_wall_ns);
        profile_ns = profile_ns.min(o.profile_wall_ns);
        t0.elapsed()
    };
    let minima = interleaved_min(knobs.runs, &mut [&mut serial, &mut sharded]);
    let speedup = minima[0].as_secs_f64() / minima[1].as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The O(region/workers) claim is only measurable when real cores sit
    // under the workers; smaller boxes still gate on the recorded figure
    // and on bit-identity.
    if cores >= SHARDS {
        assert!(
            speedup >= 3.0,
            "expected >= 3x at {SHARDS} shards on {cores} core(s), got {speedup:.2}x"
        );
    }
    // Snapshot overhead: the fast-path profiling pass that places the
    // snapshots, relative to the detailed serial simulation it replaces.
    // Both sides are minima over the same interleaved runs.
    let overhead = profile_ns as f64 / minima[0].as_nanos().max(1) as f64;

    ScenarioResult {
        name: "sharded_simulate".to_string(),
        runs: knobs.runs as u64,
        notes: format!(
            "{region_len}-insn {} region, {} slice(s) on {} worker(s), {cores} core(s) available",
            w.name,
            out.slices.len(),
            out.workers
        ),
        metrics: vec![
            Metric::lower("serial_wall_ms", ms(minima[0]), "ms", 0.60),
            Metric::higher("speedup_8shards", speedup, "x", 0.90).uncalibrated(),
            Metric::lower("snapshot_overhead_frac", overhead, "frac", 0.90).uncalibrated(),
            // The stitch is single-digit µs — below timer noise even
            // min-of-runs. Floored so the band gates order-of-magnitude
            // regressions, not scheduler jitter.
            Metric::lower("stitch_ms", (stitch_ns as f64 / 1e6).max(0.02), "ms", 0.90)
                .uncalibrated(),
            Metric::lower("snapshot_bytes", out.snapshot_bytes as f64, "bytes", 0.02)
                .uncalibrated(),
            Metric::higher("snapshots", out.snapshots.len() as f64, "count", 0.0).uncalibrated(),
            Metric::lower(
                "peak_rss_bytes",
                out.outcome.fastpath.mat.peak_owned_bytes as f64,
                "bytes",
                0.25,
            )
            .uncalibrated(),
            Metric::higher(
                "functional_identical",
                f64::from(u8::from(identical)),
                "bool",
                0.0,
            )
            .uncalibrated(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario name");
        assert_eq!(
            names,
            vec![
                "vm_fastpath",
                "mem_materialize",
                "trace_overhead",
                "store_dedup",
                "parallel_scaling",
                "fleet",
                "daemon_serve",
                "sharded_simulate"
            ]
        );
    }

    // The scenarios themselves are exercised release-built via
    // `elfie bench` in CI (they are deliberately too slow for debug
    // unit tests); store_dedup is the cheapest and stands in here.
    #[test]
    fn store_dedup_scenario_emits_deterministic_metrics() {
        let a = store_dedup(&BenchKnobs::smoke());
        let b = store_dedup(&BenchKnobs::smoke());
        assert_eq!(a.metrics, b.metrics, "store metrics must be deterministic");
        assert!(a.metric("dedup_ratio").unwrap().value > 1.0);
        assert!(a.metric("physical_bytes").unwrap().value > 0.0);
    }
}
