//! End-to-end pipelines: PinPoints selection → pinball capture → ELFie
//! generation → native measurement → validation. This is the glue the
//! paper's Fig. 1 draws: *Region Selection → Region Capture → ELFie
//! Generation → (Simulation | Dynamic Program Analysis | Native
//! Performance Analysis)*.

use crate::cache::{PipelineCache, WholeRun};
use crate::perf::{self, NativeMeasurement};
use crate::stats::{Stage, StatsCollector};
use elfie_isa::MarkerKind;
use elfie_pinball::{Pinball, RegionTrigger};
use elfie_pinball2elf::{convert, ConvertError, ConvertOptions, Elfie};
use elfie_pinplay::{CaptureError, Logger, LoggerConfig};
use elfie_simpoint::{
    pick, prediction_error, profile_program, profile_program_stats, weighted_prediction, PinPoint,
    PinPoints, PinPointsConfig,
};
use elfie_sysstate::SysState;
use elfie_vm::MachineConfig;
use elfie_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Region capture failed.
    Capture(CaptureError),
    /// ELFie conversion failed.
    Convert(ConvertError),
    /// ELFie load failed.
    Load(elfie_elf::LoadError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Capture(e) => write!(f, "capture: {e}"),
            PipelineError::Convert(e) => write!(f, "convert: {e}"),
            PipelineError::Load(e) => write!(f, "load: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CaptureError> for PipelineError {
    fn from(e: CaptureError) -> Self {
        PipelineError::Capture(e)
    }
}

impl From<ConvertError> for PipelineError {
    fn from(e: ConvertError) -> Self {
        PipelineError::Convert(e)
    }
}

impl From<elfie_elf::LoadError> for PipelineError {
    fn from(e: elfie_elf::LoadError) -> Self {
        PipelineError::Load(e)
    }
}

/// Profiles a workload and runs PinPoints region selection.
pub fn select_regions(w: &Workload, cfg: &PinPointsConfig, fuel: u64) -> PinPoints {
    let profile = profile_program(
        &w.program,
        MachineConfig::default(),
        cfg.slice_size,
        fuel,
        |m| w.setup(m),
    );
    pick(&profile, cfg)
}

/// Captures a fat pinball for one selected region, including its warm-up
/// span (the region descriptor records the split). This is the
/// one-region case of [`capture_pinpoints`].
pub fn capture_pinpoint(w: &Workload, point: &PinPoint) -> Result<Pinball, CaptureError> {
    capture_pinpoints(w, &[point])
        .pop()
        .expect("one result per point")
}

/// Captures fat pinballs for several selected regions of one workload in
/// one logging pass ([`Logger::capture_all`]). Results come back in
/// `points` order, each equal to [`capture_pinpoint`] of its point.
pub fn capture_pinpoints(w: &Workload, points: &[&PinPoint]) -> Vec<Result<Pinball, CaptureError>> {
    let cfgs: Vec<LoggerConfig> = points
        .iter()
        .map(|point| {
            let start = point.start_icount.saturating_sub(point.warmup);
            let warmup = point.start_icount - start;
            let mut cfg = LoggerConfig::fat(
                &w.name,
                if start == 0 {
                    RegionTrigger::ProgramStart
                } else {
                    RegionTrigger::GlobalIcount(start)
                },
                warmup + point.length,
            );
            cfg.warmup = warmup;
            cfg.weight = point.weight;
            cfg.slice_index = point.slice_index;
            cfg
        })
        .collect();
    Logger::capture_all(&cfgs, &w.program, |m| w.setup(m))
}

/// Captures a whole region and produces an ELFie with the standard recipe:
/// sysstate extracted and embedded, graceful exit armed, ROI marker of the
/// given kind tagged with the slice index.
pub fn make_elfie(
    pinball: &Pinball,
    roi_kind: MarkerKind,
) -> Result<(Elfie, SysState), ConvertError> {
    let sysstate = SysState::extract(pinball);
    let opts = ConvertOptions {
        roi_marker: Some((roi_kind, pinball.region.slice_index as u32 + 1)),
        sysstate: Some(sysstate.clone()),
        ..ConvertOptions::default()
    };
    Ok((convert(pinball, &opts)?, sysstate))
}

/// One region's validation record.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResult {
    /// Which cluster/rank the region came from.
    pub cluster: usize,
    /// Rank within the cluster (0 = representative).
    pub rank: usize,
    /// Slice index.
    pub slice_index: u64,
    /// Cluster weight.
    pub weight: f64,
    /// The native measurement of the ELFie region (warm-up excluded).
    pub measurement: Option<NativeMeasurement>,
}

/// A full ELFie-based validation of a region selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Whole-program CPI measured natively (the "true value").
    pub true_cpi: f64,
    /// Weighted region prediction of CPI.
    pub predicted_cpi: f64,
    /// Signed prediction error, paper definition.
    pub error: f64,
    /// Sum of cluster weights with at least one working region.
    pub coverage: f64,
    /// Per-region detail (every candidate tried).
    pub regions: Vec<RegionResult>,
    /// Phases found.
    pub k: usize,
}

/// Cache-aware variant of [`select_regions`]: the BBV profile is looked
/// up in (or inserted into) `cache`, and profiling time on a miss is
/// charged to [`Stage::Profile`].
pub(crate) fn select_regions_cached(
    w: &Workload,
    cfg: &PinPointsConfig,
    fuel: u64,
    cache: &PipelineCache,
    stats: &StatsCollector,
) -> PinPoints {
    let machine = MachineConfig::default();
    let key = PipelineCache::profile_key(w, &machine, cfg.slice_size, fuel);
    let profile = cache.profile(key, || {
        stats.time(Stage::Profile, || {
            let t0 = std::time::Instant::now();
            let (profile, fastpath) =
                profile_program_stats(&w.program, machine, cfg.slice_size, fuel, |m| w.setup(m));
            stats.record_vm(fastpath, t0.elapsed());
            profile
        })
    });
    elfie_simpoint::pick_traced(&profile, cfg, stats.tracer())
}

/// Cache-aware whole-program reference run: looked up in (or inserted
/// into) `cache`, with the run on a miss charged to [`Stage::Measure`].
pub(crate) fn measure_whole_cached(
    w: &Workload,
    seed: u64,
    fuel: u64,
    cache: &PipelineCache,
    stats: &StatsCollector,
) -> WholeRun {
    let key = PipelineCache::whole_key(w, &perf::native_machine(seed), fuel);
    cache.whole(key, || {
        stats.time(Stage::Measure, || {
            let meas = perf::measure_program(w, seed, fuel);
            stats.record_vm(meas.fastpath, meas.vm_wall);
            WholeRun {
                insns: meas.insns,
                cycles: meas.cycles,
            }
        })
    })
}

/// What the select task found for a cluster's first candidate (its
/// representative).
#[derive(Debug, Clone)]
pub(crate) enum Head {
    /// Its measurement was cached: no pinball is needed.
    Measured(NativeMeasurement),
    /// Its measurement missed: its pinball, or why capture failed.
    Captured(Result<Arc<Pinball>, CaptureError>),
}

/// Looks up the measurement of the first candidate (the representative)
/// of every cluster in `cache`, then the pinball of each one that missed,
/// and captures all the pinball misses in one logging pass, charged to
/// [`Stage::Capture`]. A cluster whose measurement is cached touches no
/// pinball. Entry `c` belongs to cluster `c`; it is `None` when the
/// cluster has no candidates.
pub(crate) fn capture_heads_cached(
    w: &Workload,
    points: &PinPoints,
    seed: u64,
    fuel: u64,
    cache: &PipelineCache,
    stats: &StatsCollector,
) -> Vec<Option<Head>> {
    let machine = perf::native_machine(seed);
    let firsts: Vec<Option<(&PinPoint, Option<NativeMeasurement>)>> = (0..points.k)
        .map(|c| {
            let first = *points.candidates(c).first()?;
            let key = PipelineCache::measure_key(w, first, &machine, fuel);
            Some((first, cache.measurement(key)))
        })
        .collect();
    let unmeasured: Vec<&PinPoint> = firsts
        .iter()
        .flatten()
        .filter(|(_, meas)| meas.is_none())
        .map(|&(point, _)| point)
        .collect();
    let keys: Vec<u64> = unmeasured
        .iter()
        .map(|p| PipelineCache::pinball_key(w, p))
        .collect();
    let mut captured = cache
        .pinballs(&keys, |missing| {
            let points: Vec<&PinPoint> = missing.iter().map(|&i| unmeasured[i]).collect();
            stats.time(Stage::Capture, || capture_pinpoints(w, &points))
        })
        .into_iter();
    firsts
        .into_iter()
        .map(|first| {
            first.map(|(_, meas)| match meas {
                Some(meas) => Head::Measured(meas),
                None => Head::Captured(captured.next().expect("one pinball per unmeasured head")),
            })
        })
        .collect()
}

/// What one cluster's candidate chain produced: every record tried (in
/// rank order) and, if some candidate worked, its `(weight, cpi)` sample.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClusterOutcome {
    pub(crate) regions: Vec<RegionResult>,
    pub(crate) sample: Option<(f64, f64)>,
}

/// Runs one cluster's candidate chain over its `candidates` (in rank
/// order, as [`PinPoints::candidates`] lists them), falling back to
/// alternates until a candidate completes. Each candidate's measurement
/// is looked up in `cache` first; only on a miss is its pinball fetched
/// (or captured), converted to an ELFie and measured, and a completed
/// measurement kept. `head` is what [`capture_heads_cached`] already
/// found for the first candidate; later candidates are looked up one by
/// one. This is the unit of work the parallel engine schedules; the
/// serial path runs the exact same function cluster by cluster, which is
/// what makes the two paths' reports identical.
pub(crate) fn validate_cluster(
    w: &Workload,
    candidates: &[&PinPoint],
    mut head: Option<Head>,
    seed: u64,
    fuel: u64,
    cache: &PipelineCache,
    stats: &StatsCollector,
) -> ClusterOutcome {
    let machine = perf::native_machine(seed);
    let mut regions = Vec::new();
    let mut sample = None;
    for &cand in candidates {
        stats.region_attempted();
        let mut record = RegionResult {
            cluster: cand.cluster,
            rank: cand.rank,
            slice_index: cand.slice_index,
            weight: cand.weight,
            measurement: None,
        };
        let key = PipelineCache::measure_key(w, cand, &machine, fuel);
        let measure = |pinball| {
            measure_pinball(pinball, cand, seed, fuel, stats).map(|meas| {
                cache.keep_measurement(key, meas);
                meas
            })
        };
        let result = match head.take() {
            Some(Head::Measured(meas)) => Ok(meas),
            Some(Head::Captured(pinball)) => measure(pinball),
            None => match cache.measurement(key) {
                Some(meas) => Ok(meas),
                None => measure(cache.pinball(PipelineCache::pinball_key(w, cand), || {
                    stats.time(Stage::Capture, || capture_pinpoint(w, cand))
                })),
            },
        };
        match result {
            Ok(meas) if meas.completed && meas.insns > 0 => {
                record.measurement = Some(meas);
                regions.push(record);
                sample = Some((cand.weight, meas.cpi));
                break; // candidate worked; no alternate needed
            }
            Ok(meas) => {
                stats.region_failed();
                record.measurement = Some(meas);
                regions.push(record);
            }
            Err(_) => {
                stats.region_failed();
                regions.push(record);
            }
        }
    }
    ClusterOutcome { regions, sample }
}

/// The measurement recipe [`crate::cache::MEASURE_RECIPE`] versions:
/// converts a candidate's pinball with [`make_elfie`] and measures the
/// ELFie natively past the candidate's warm-up, charging
/// [`Stage::Convert`], [`Stage::Measure`] and the guest run.
fn measure_pinball(
    pinball: Result<Arc<Pinball>, CaptureError>,
    cand: &PinPoint,
    seed: u64,
    fuel: u64,
    stats: &StatsCollector,
) -> Result<NativeMeasurement, PipelineError> {
    let pb = pinball?;
    let (elfie, sysstate) = stats.time(Stage::Convert, || make_elfie(&pb, MarkerKind::Ssc))?;
    let meas = stats.time(Stage::Measure, || {
        perf::measure_elfie(
            &elfie.bytes,
            MarkerKind::Ssc,
            cand.warmup,
            seed,
            fuel,
            |m| {
                sysstate.stage_files(m);
                // Large data arrays the workload maps at run time are
                // part of the pinball image already; nothing else to
                // stage.
            },
        )
    })?;
    stats.record_vm(meas.fastpath, meas.vm_wall);
    Ok(meas)
}

/// Merges per-cluster outcomes (in cluster order) with the whole-program
/// CPI into the final report. Both the serial and the parallel engine
/// feed this the same ordered inputs, so the report is identical down to
/// float summation order.
pub(crate) fn assemble_report(
    true_cpi: f64,
    k: usize,
    outcomes: Vec<ClusterOutcome>,
) -> ValidationReport {
    let mut regions = Vec::new();
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut coverage = 0.0;
    for outcome in outcomes {
        regions.extend(outcome.regions);
        if let Some((weight, cpi)) = outcome.sample {
            samples.push((weight, cpi));
            coverage += weight;
        }
    }
    let predicted = weighted_prediction(&samples);
    ValidationReport {
        true_cpi,
        predicted_cpi: predicted,
        error: prediction_error(true_cpi, predicted),
        coverage,
        regions,
        k,
    }
}

/// Runs the complete ELFie-based validation flow of paper Section IV-A:
/// select regions, build an ELFie per region (falling back to alternates
/// when a candidate fails), measure each natively with hardware counters,
/// and compare the weighted prediction against the whole-program run.
///
/// This is the single-threaded entry point; it delegates to a serial
/// [`crate::parallel::BatchValidator`] with a private cache, so it behaves
/// exactly as a one-worker parallel run (and produces the identical
/// report). Use [`crate::parallel::BatchValidator`] directly for worker
/// pools, artifact reuse across runs, and pipeline statistics.
pub fn validate_with_elfies(
    w: &Workload,
    cfg: &PinPointsConfig,
    seed: u64,
    fuel: u64,
) -> Result<ValidationReport, PipelineError> {
    crate::parallel::BatchValidator::serial()
        .validate(w, cfg, seed, fuel)
        .map(|(report, _stats)| report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One gcc_like region, measured on seed 7.
    fn region() -> (Workload, PinPoint) {
        let point = PinPoint {
            cluster: 0,
            rank: 0,
            slice_index: 4,
            weight: 1.0,
            start_icount: 20_000,
            length: 5_000,
            warmup: 2_000,
        };
        (elfie_workloads::gcc_like(1), point)
    }

    fn validate(
        w: &Workload,
        point: &PinPoint,
        fuel: u64,
        cache: &PipelineCache,
    ) -> ClusterOutcome {
        validate_cluster(w, &[point], None, 7, fuel, cache, &StatsCollector::new())
    }

    #[test]
    fn an_incomplete_measurement_is_measured_again_every_time() {
        let (w, point) = region();
        let cache = PipelineCache::new();
        // Too little fuel to reach the region's marker: the run never
        // completes, so neither run keeps a measurement.
        for _ in 0..2 {
            let out = validate(&w, &point, 1_000, &cache);
            let meas = out.regions[0].measurement.expect("measured");
            assert!(!meas.completed, "{:?}", meas.exit);
            assert_eq!(out.sample, None);
        }
        let s = cache.stats();
        assert_eq!((s.measure_hits, s.measure_misses), (0, 2));
        assert_eq!((s.pinball_hits, s.pinball_misses), (1, 1));
    }

    #[test]
    fn a_completed_measurement_is_read_back_without_its_pinball() {
        let (w, point) = region();
        let cache = PipelineCache::new();
        let cold = validate(&w, &point, 50_000_000, &cache);
        let stats = StatsCollector::new();
        let warm = validate_cluster(&w, &[&point], None, 7, 50_000_000, &cache, &stats);
        assert_eq!(warm, cold);
        assert!(cold.sample.is_some(), "the region completed");
        let s = cache.stats();
        assert_eq!((s.measure_hits, s.measure_misses), (1, 1));
        assert_eq!(s.pinball_lookups(), 1, "only the cold run fetched it");
        assert_eq!(stats.finish(Default::default(), 1, s).vm.insns, 0);
    }
}
