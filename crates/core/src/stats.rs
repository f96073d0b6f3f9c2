//! Pipeline instrumentation: per-stage wall time, cache effectiveness and
//! region success counts, threaded from the validation engine out to the
//! CLI and the benchmark harness.
//!
//! [`PipelineStats`] is the only store of these counts. A
//! [`StatsCollector`] is that struct behind a lock: workers fold into it
//! through the same rules [`PipelineStats::merge`] uses, and built with
//! [`StatsCollector::with_tracer`] it also emits stage spans and
//! guest-run counter tracks. The frozen struct is what [`crate::render`]
//! serialises to both the `--stats` text and the versioned `stats.json`
//! schema — one struct, two renderings, so they can never drift.

use crate::cache::CacheStats;
use elfie_pinball::{ArenaStats, PageArena};
use elfie_trace::Tracer;
use elfie_vm::FastPathStats;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The four measured pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// BBV profiling (one whole guest run per workload).
    Profile,
    /// Fat-pinball capture (one guest run per candidate region).
    Capture,
    /// pinball2elf conversion (includes sysstate extraction).
    Convert,
    /// Native measurement of the ELFie or the whole program.
    Measure,
}

impl Stage {
    /// The stable lower-case name of the stage's trace span.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Profile => "profile",
            Stage::Capture => "capture",
            Stage::Convert => "convert",
            Stage::Measure => "measure",
        }
    }
}

/// Thread-safe accumulator the validation engine updates as it runs.
/// Workers on different threads add into the same collector; stage times
/// are therefore *summed across workers* (total work), while
/// [`PipelineStats::total`] is the end-to-end wall time.
#[derive(Debug, Default)]
pub struct StatsCollector {
    stats: Mutex<PipelineStats>,
    tracer: Option<Arc<Tracer>>,
}

impl StatsCollector {
    /// A zeroed collector.
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// Emits stage spans and guest-run counter tracks through `tracer`
    /// as the collector accumulates. A [`elfie_trace::TraceMode::Disabled`] tracer
    /// costs one branch per call.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> StatsCollector {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    fn stats(&self) -> MutexGuard<'_, PipelineStats> {
        self.stats
            .lock()
            .expect("no thread panics while folding into the stats")
    }

    /// Runs `f`, charging its wall time to `stage`. With a tracer
    /// attached the stage also appears as a span on the calling thread's
    /// timeline.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let _span = elfie_trace::maybe_span(self.tracer.as_ref(), "stage", stage.name());
        let t0 = Instant::now();
        let out = f();
        self.add_time(stage, t0.elapsed());
        out
    }

    /// Charges an already-measured `elapsed` to `stage` (saturating);
    /// [`StatsCollector::time`] measures and charges in one call.
    pub fn add_time(&self, stage: Stage, elapsed: Duration) {
        let mut stats = self.stats();
        let slot = match stage {
            Stage::Profile => &mut stats.profile_time,
            Stage::Capture => &mut stats.capture_time,
            Stage::Convert => &mut stats.convert_time,
            Stage::Measure => &mut stats.measure_time,
        };
        *slot = slot.saturating_add(elapsed);
    }

    /// Records one candidate region attempt.
    pub fn region_attempted(&self) {
        let mut stats = self.stats();
        stats.regions_attempted = stats.regions_attempted.saturating_add(1);
    }

    /// Records a candidate that failed to produce a usable measurement.
    pub fn region_failed(&self) {
        {
            let mut stats = self.stats();
            stats.regions_failed = stats.regions_failed.saturating_add(1);
        }
        if let Some(tracer) = &self.tracer {
            tracer.instant("pipeline", "region_failed", &[]);
        }
    }

    /// Accumulates one guest machine run's fast-path counters and the host
    /// wall time it took, for block-cache/TLB hit rates and guest MIPS.
    ///
    /// This — not the VM hot loop — is where VM counters become trace
    /// events: the interpreter stays tracer-free by construction, so its
    /// disabled-mode overhead is structurally zero, and each finished run
    /// contributes one batch of cumulative counter samples.
    pub fn record_vm(&self, mut fp: FastPathStats, wall: Duration) {
        // The pipeline carries no per-run residual owned bytes: the
        // summed report keeps `owned_bytes` at 0 (see `PipelineStats::vm`).
        fp.mat.owned_bytes = 0;
        let (insns_total, lazy_total) = {
            let mut stats = self.stats();
            stats.add_vm(fp, wall.as_nanos() as u64);
            (stats.vm.insns, stats.vm.mat.lazy_faults)
        };
        if let Some(tracer) = &self.tracer {
            tracer.counter("vm", "guest_insns", insns_total);
            tracer.counter("vm", "lazy_faults", lazy_total);
            tracer.instant(
                "vm",
                "guest_run",
                &[
                    ("insns", fp.insns),
                    ("block_hits", fp.block_hits),
                    ("tlb_hits", fp.tlb_hits),
                    ("pages_mapped", fp.mat.pages_mapped),
                ],
            );
        }
    }

    /// Freezes the collector into a report.
    pub fn finish(&self, total: Duration, workers: usize, cache: CacheStats) -> PipelineStats {
        PipelineStats {
            workers,
            total,
            arena: PageArena::global().stats(),
            cache,
            ..*self.stats()
        }
    }
}

/// What one validation run cost, stage by stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Worker threads the engine ran with (1 = serial).
    pub workers: usize,
    /// End-to-end wall time of the run.
    pub total: Duration,
    /// Summed wall time spent profiling (cache misses only).
    pub profile_time: Duration,
    /// Summed wall time spent capturing pinballs (cache misses only).
    pub capture_time: Duration,
    /// Summed wall time spent converting pinballs to ELFies.
    pub convert_time: Duration,
    /// Summed wall time spent in native measurement.
    pub measure_time: Duration,
    /// Candidate regions tried (representatives + alternates).
    pub regions_attempted: u64,
    /// Candidates that produced no usable measurement.
    pub regions_failed: u64,
    /// VM fast-path counters summed over all instrumented guest runs —
    /// the same struct one `Machine` reports, so hit rates come from one
    /// definition. `vm.mat.owned_bytes` is structurally 0 here: the
    /// pipeline does not carry per-run residual owned bytes (what that
    /// figure should mean is ROADMAP item 1). `vm.mat.peak_owned_bytes`
    /// is the *summed* per-machine peak (the fleet's private-page
    /// residency bound), unlike a single machine's max-folded peak.
    pub vm: FastPathStats,
    /// Host wall nanoseconds spent inside instrumented guest runs (the
    /// denominator of [`PipelineStats::guest_mips`]).
    pub guest_ns: u64,
    /// Process-wide page-arena counters at the end of the run.
    pub arena: ArenaStats,
    /// Cache effectiveness over the run.
    pub cache: CacheStats,
}

impl PipelineStats {
    /// Guest instructions retired across all instrumented guest runs.
    pub fn guest_insns(&self) -> u64 {
        self.vm.insns
    }

    /// Guest millions-of-instructions-per-second over the VM wall time,
    /// 0 when no guest time was recorded. Derived, never stored — so a
    /// serialised round-trip cannot disagree with the counters.
    pub fn guest_mips(&self) -> f64 {
        if self.guest_ns == 0 {
            0.0
        } else {
            self.vm.insns as f64 / 1e6 / (self.guest_ns as f64 / 1e9)
        }
    }

    /// Fraction of guest instructions served by the block cache, `[0, 1]`.
    pub fn block_cache_hit_rate(&self) -> f64 {
        self.vm.block_hit_rate()
    }

    /// Fraction of page translations served by the TLB, `[0, 1]`.
    pub fn tlb_hit_rate(&self) -> f64 {
        self.vm.tlb_hit_rate()
    }

    /// Folds another run's stats into this one, per-field:
    ///
    /// * stage times, regions, VM counters, guest time: saturating sums
    ///   (total work) — with VM peak residency also summed (fleet bound);
    /// * `workers`: saturating sum (per-worker shards merge to the pool);
    /// * `total`: maximum (concurrent shards' end-to-end wall);
    /// * `arena`: field-wise maximum (process-global gauges overlap);
    /// * `cache`: [`CacheStats::merge`] saturating sums.
    ///
    /// Every fold is commutative and associative, so merging per-worker
    /// shards in any order equals the serial totals (proptested in
    /// `tests/stats_merge.rs`).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.workers = self.workers.saturating_add(other.workers);
        self.total = self.total.max(other.total);
        self.profile_time = self.profile_time.saturating_add(other.profile_time);
        self.capture_time = self.capture_time.saturating_add(other.capture_time);
        self.convert_time = self.convert_time.saturating_add(other.convert_time);
        self.measure_time = self.measure_time.saturating_add(other.measure_time);
        self.regions_attempted = self
            .regions_attempted
            .saturating_add(other.regions_attempted);
        self.regions_failed = self.regions_failed.saturating_add(other.regions_failed);
        self.add_vm(other.vm, other.guest_ns);
        self.arena.merge(&other.arena);
        self.cache.merge(&other.cache);
    }

    /// Folds guest-run counters in — the one rule shared by
    /// [`StatsCollector::record_vm`] and [`PipelineStats::merge`]: VM
    /// counters and guest time are saturating sums, and so are the
    /// per-machine peaks (`FastPathStats::accumulate` max-folds them,
    /// single-machine semantics; see the `vm` docs).
    fn add_vm(&mut self, vm: FastPathStats, guest_ns: u64) {
        let peak = self
            .vm
            .mat
            .peak_owned_bytes
            .saturating_add(vm.mat.peak_owned_bytes);
        self.vm.accumulate(vm);
        self.vm.mat.peak_owned_bytes = peak;
        self.guest_ns = self.guest_ns.saturating_add(guest_ns);
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::render::write_pipeline(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elfie_trace::TraceMode;
    use elfie_vm::MaterializeStats;

    #[test]
    fn time_accumulates_into_the_right_stage() {
        let c = StatsCollector::new();
        let v = c.time(Stage::Capture, || 42);
        assert_eq!(v, 42);
        c.time(Stage::Capture, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let s = c.finish(Duration::from_millis(5), 2, CacheStats::default());
        assert!(s.capture_time >= Duration::from_millis(2));
        assert_eq!(s.profile_time, Duration::ZERO);
        assert_eq!(s.workers, 2);
    }

    #[test]
    fn region_counters_accumulate() {
        let c = StatsCollector::new();
        c.region_attempted();
        c.region_attempted();
        c.region_failed();
        let s = c.finish(Duration::ZERO, 1, CacheStats::default());
        assert_eq!((s.regions_attempted, s.regions_failed), (2, 1));
    }

    #[test]
    fn record_vm_feeds_hit_rates_and_mips() {
        let c = StatsCollector::new();
        c.record_vm(
            FastPathStats {
                block_hits: 90,
                block_misses: 10,
                tlb_hits: 30,
                tlb_misses: 10,
                insns: 2_000_000,
                ..FastPathStats::default()
            },
            Duration::from_secs(1),
        );
        let s = c.finish(Duration::ZERO, 1, CacheStats::default());
        assert_eq!((s.vm.block_hits, s.vm.block_misses), (90, 10));
        assert!((s.block_cache_hit_rate() - 0.9).abs() < 1e-9);
        assert!((s.tlb_hit_rate() - 0.75).abs() < 1e-9);
        assert!(
            (s.guest_mips() - 2.0).abs() < 1e-6,
            "mips = {}",
            s.guest_mips()
        );
        let text = s.to_string();
        assert!(text.contains("block cache 90.0% hit"), "{text}");
        assert!(text.contains("2.0 MIPS"), "{text}");
    }

    #[test]
    fn record_vm_accumulates_materialization_counters() {
        let c = StatsCollector::new();
        let mat = MaterializeStats {
            pages_mapped: 10,
            shared_pages: 8,
            cow_breaks: 2,
            lazy_faults: 1,
            owned_bytes: 8192,
            peak_owned_bytes: 8192,
        };
        let fp = FastPathStats {
            mat,
            ..FastPathStats::default()
        };
        c.record_vm(fp, Duration::ZERO);
        c.record_vm(fp, Duration::ZERO);
        let s = c.finish(Duration::ZERO, 1, CacheStats::default());
        assert_eq!(s.vm.mat.pages_mapped, 20);
        assert_eq!(s.vm.mat.shared_pages, 16);
        assert_eq!(s.vm.mat.cow_breaks, 4);
        assert_eq!(s.vm.mat.lazy_faults, 2);
        assert_eq!(s.vm.mat.peak_owned_bytes, 16384, "per-machine peaks sum");
        let text = s.to_string();
        assert!(text.contains("20 pages mapped"), "{text}");
        assert!(text.contains("peak resident 16384 bytes"), "{text}");
    }

    #[test]
    fn display_renders_all_sections() {
        let s = StatsCollector::new().finish(
            Duration::from_secs(1),
            4,
            CacheStats {
                profile_hits: 1,
                profile_misses: 2,
                pinball_hits: 3,
                pinball_misses: 4,
                whole_hits: 7,
                whole_misses: 8,
                measure_hits: 9,
                measure_misses: 11,
                store_hits: 5,
                store_puts: 6,
            },
        );
        let text = s.to_string();
        assert!(text.contains("4 workers"));
        assert!(text.contains("profiles 1/3 hit"));
        assert!(text.contains("whole runs 7/15 hit"));
        assert!(text.contains("pinballs 3/7 hit, measurements 9/20 hit"));
        assert!(text.contains("store: 5 hit, 6 put"));
    }

    #[test]
    fn collector_with_tracer_emits_stage_spans_and_vm_counters() {
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        let c = StatsCollector::new().with_tracer(Arc::clone(&tracer));
        c.time(Stage::Measure, || ());
        c.record_vm(
            FastPathStats {
                insns: 500,
                ..FastPathStats::default()
            },
            Duration::from_millis(1),
        );
        c.region_failed();
        let data = tracer.collect();
        let events: Vec<_> = data.tracks.iter().flat_map(|t| &t.events).collect();
        assert!(events
            .iter()
            .any(|e| e.name == "measure" && e.ph == elfie_trace::Phase::Span));
        let counter = events
            .iter()
            .find(|e| e.name == "guest_insns" && e.ph == elfie_trace::Phase::Counter)
            .expect("guest_insns counter sample");
        assert_eq!(counter.args.entries(), &[("value", 500)]);
        assert!(events.iter().any(|e| e.name == "region_failed"));
    }

    #[test]
    fn disabled_tracer_collector_emits_nothing() {
        let tracer = Arc::new(Tracer::new(TraceMode::Disabled));
        let c = StatsCollector::new().with_tracer(Arc::clone(&tracer));
        c.time(Stage::Profile, || ());
        c.record_vm(FastPathStats::default(), Duration::ZERO);
        assert_eq!(tracer.collect().event_count(), 0);
    }

    #[test]
    fn merge_sums_work_and_maxes_wall() {
        let mut a = StatsCollector::new().finish(
            Duration::from_secs(3),
            1,
            CacheStats {
                profile_hits: 1,
                ..CacheStats::default()
            },
        );
        a.regions_attempted = 2;
        a.vm.insns = 10;
        a.vm.mat.peak_owned_bytes = 100;
        a.guest_ns = 5;
        let mut b = a;
        b.total = Duration::from_secs(5);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.workers, 2);
        assert_eq!(merged.total, Duration::from_secs(5));
        assert_eq!(merged.regions_attempted, 4);
        assert_eq!(merged.vm.insns, 20);
        assert_eq!(merged.vm.mat.peak_owned_bytes, 200, "pipeline peaks sum");
        assert_eq!(merged.guest_ns, 10);
        assert_eq!(merged.cache.profile_hits, 2);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = StatsCollector::new().finish(Duration::ZERO, 1, CacheStats::default());
        a.regions_attempted = u64::MAX - 1;
        a.vm.insns = u64::MAX;
        a.guest_ns = u64::MAX;
        let b = a;
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.regions_attempted, u64::MAX);
        assert_eq!(merged.vm.insns, u64::MAX);
        assert_eq!(merged.guest_ns, u64::MAX);
        // Rates and MIPS stay finite on saturated counters.
        assert!(merged.guest_mips().is_finite());
        assert!(merged.block_cache_hit_rate() >= 0.0);
    }
}
