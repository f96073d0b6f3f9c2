//! `validate_cold`: one generator thread validates suite workloads with a
//! fresh pipeline cache each time.
//!
//! Why: guest execution, BBV profiling, k-means, capture, sysstate,
//! pinball2elf and native measurement do nearly all the work; the store
//! does none. Traced, each validation is split into the public calls the
//! engine makes, run serially, and must reproduce the engine's report.

use crate::layers::{Layers, VmTally};
use crate::stats::Rng;
use crate::{Ctx, Phase};
use elfie::cache::PipelineCache;
use elfie::isa::MarkerKind;
use elfie::parallel::BatchValidator;
use elfie::perf;
use elfie::pinball2elf::{convert, ConvertOptions};
use elfie::pipeline::{capture_pinpoint, RegionResult, ValidationReport};
use elfie::simpoint::{
    pick, prediction_error, profile_program_stats, weighted_prediction, PinPointsConfig,
};
use elfie::sysstate::SysState;
use elfie::vm::MachineConfig;
use elfie::workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};
use std::sync::Arc;
use std::time::Duration;

const SLICE: u64 = 5_000;
const WARMUP: u64 = 2_000;
const MAX_K: usize = 3;
const FUEL: u64 = 2_000_000_000;
const MACHINE_SEED: u64 = 42;

const ORDER_STREAM: u64 = 1;

/// The 18 workloads of the int, fp and 4-thread speed suites.
fn suite() -> Vec<Workload> {
    let mut all = suite_int(InputScale::Test);
    all.extend(suite_fp(InputScale::Test));
    all.extend(suite_speed_mt(InputScale::Test, 4));
    all
}

/// The selection knobs. The clustering seed stays at its default: it
/// picks which slices become regions, and so how far each capture runs,
/// which would make the work of a pass depend on the benchmark seed.
fn config() -> PinPointsConfig {
    PinPointsConfig {
        slice_size: SLICE,
        warmup: WARMUP,
        max_k: MAX_K,
        ..PinPointsConfig::default()
    }
}

/// One pass: every workload once, in seeded order.
pub fn round(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// One validation on a fresh cache. One worker: with two, every
/// validation waits on both vCPUs of a 2-vCPU host, and a co-tenant on
/// either slows it; in eight interleaved runs of each, the spread of its
/// timings halved with one.
fn engine(w: &Workload, cfg: &PinPointsConfig) -> Result<ValidationReport, String> {
    BatchValidator::serial()
        .with_cache(Arc::new(PipelineCache::new()))
        .validate(w, cfg, MACHINE_SEED, FUEL)
        .map(|(report, _)| report)
        .map_err(|e| e.to_string())
}

/// Region candidates tried and failed, for `core.regions_failed_frac`.
#[derive(Default)]
struct Regions {
    attempted: u64,
    failed: u64,
}

/// The engine's validation as its public calls, run serially with the
/// same alternate fallback, each under a layer span.
fn decomposed(
    w: &Workload,
    cfg: &PinPointsConfig,
    lay: &mut Layers,
    vm: &mut VmTally,
    tally: &mut Regions,
) -> ValidationReport {
    let ((profile, fastpath), t) = lay.time("simpoint.profile_ms", || {
        profile_program_stats(
            &w.program,
            MachineConfig::default(),
            cfg.slice_size,
            FUEL,
            |m| w.setup(m),
        )
    });
    vm.record(fastpath, t);
    let (points, _) = lay.time("simpoint.pick_ms", || pick(&profile, cfg));
    let (whole, t) = lay.time("core.measure_whole_ms", || {
        perf::measure_program(w, MACHINE_SEED, FUEL)
    });
    vm.record(whole.fastpath, t);

    let mut regions = Vec::new();
    let mut samples = Vec::new();
    let mut coverage = 0.0;
    for cluster in 0..points.k {
        for cand in points.candidates(cluster) {
            tally.attempted += 1;
            let mut measurement = None;
            if let Ok(pb) = lay
                .time("pinplay.capture_ms", || capture_pinpoint(w, cand))
                .0
            {
                let (sysstate, _) = lay.time("sysstate.extract_ms", || SysState::extract(&pb));
                let opts = ConvertOptions {
                    roi_marker: Some((MarkerKind::Ssc, pb.region.slice_index as u32 + 1)),
                    sysstate: Some(sysstate.clone()),
                    ..ConvertOptions::default()
                };
                if let Ok(elfie) = lay.time("pinball2elf.convert_ms", || convert(&pb, &opts)).0 {
                    let (meas, t) = lay.time("core.measure_region_ms", || {
                        perf::measure_elfie(
                            &elfie.bytes,
                            MarkerKind::Ssc,
                            cand.warmup,
                            MACHINE_SEED,
                            FUEL,
                            |m| sysstate.stage_files(m),
                        )
                    });
                    if let Ok(meas) = meas {
                        vm.record(meas.fastpath, t);
                        measurement = Some(meas);
                    }
                }
            }
            let worked = measurement.is_some_and(|m| m.completed && m.insns > 0);
            regions.push(RegionResult {
                cluster,
                rank: cand.rank,
                slice_index: cand.slice_index,
                weight: cand.weight,
                measurement,
            });
            if worked {
                let cpi = measurement.expect("worked").cpi;
                samples.push((cand.weight, cpi));
                coverage += cand.weight;
                break;
            }
            tally.failed += 1;
        }
    }
    let predicted = weighted_prediction(&samples);
    ValidationReport {
        true_cpi: whole.cpi,
        predicted_cpi: predicted,
        error: prediction_error(whole.cpi, predicted),
        coverage,
        regions,
        k: points.k,
    }
}

pub fn run(ctx: &Ctx) -> Result<(Phase, Vec<f64>), String> {
    let workloads = suite();
    let cfg = config();
    // Set-up computes the reference report of every workload, which
    // every measured validation must reproduce byte for byte.
    let setup = |_| {
        workloads
            .iter()
            .map(|w| Ok(elfie::render::validation_report(&w.name, &engine(w, &cfg)?)))
            .collect::<Result<Vec<String>, String>>()
    };
    ctx.measure(setup, |reference| {
        let mut phase = Phase::default();
        let mut kinds = Vec::new();
        let mut lay = Layers::new(ctx.tracer.clone());
        let mut vm = VmTally::default();
        let mut tally = Regions::default();
        let mut rng = Rng::new(ctx.seed, ORDER_STREAM);
        let deadline = ctx.deadline();
        while deadline.more(phase.latencies_ms.len()) {
            for i in round(&mut rng, workloads.len()) {
                let w = &workloads[i];
                let (report, wall): (Result<ValidationReport, String>, Duration) =
                    lay.op("validate", |lay| {
                        if lay.enabled() {
                            Ok(decomposed(w, &cfg, lay, &mut vm, &mut tally))
                        } else {
                            engine(w, &cfg)
                        }
                    });
                phase.record(wall);
                kinds.push(i);
                match report {
                    Ok(r) if elfie::render::validation_report(&w.name, &r) == reference[i] => {}
                    Ok(_) => phase.fail(format_args!(
                        "validate_cold: {} report differs from set-up",
                        w.name
                    )),
                    Err(e) => phase.fail(format_args!("validate_cold: {}: {e}", w.name)),
                }
            }
        }
        // Each workload's validation is the same computation every round.
        phase.fastest_of_kind(&kinds);
        vm.set_metrics(&mut lay, phase.latencies_ms.len());
        lay.set(
            "core.regions_failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        phase.layers = lay.finish(deadline.elapsed());
        Ok(phase)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<Vec<usize>> {
        let mut rng = Rng::new(seed, ORDER_STREAM);
        (0..3).map(|_| round(&mut rng, 18)).collect()
    }

    #[test]
    fn the_seed_fixes_the_order() {
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
        assert_eq!(suite().len(), 18);
    }

    #[test]
    fn the_decomposition_reproduces_the_engine_report() {
        let w = elfie::workloads::mcf_like(1);
        let cfg = config();
        let expected = engine(&w, &cfg).expect("validates");
        let tracer = Arc::new(elfie_trace::Tracer::new(elfie_trace::TraceMode::Full));
        let mut lay = Layers::new(Some(tracer));
        let got = decomposed(
            &w,
            &cfg,
            &mut lay,
            &mut VmTally::default(),
            &mut Regions::default(),
        );
        assert_eq!(
            elfie::render::validation_report(&w.name, &got),
            elfie::render::validation_report(&w.name, &expected)
        );
    }
}
