//! The paper's evaluation experiments, one module per table/figure.
//!
//! | Experiment | Paper artefact | Module |
//! |---|---|---|
//! | Pinball/ELFie run-time overhead | Table I (overhead row) | [`overhead`] |
//! | Simulation- vs ELFie-based validation, train int | Fig. 9 | [`selection`] |
//! | gcc warm-up tuning | Table II | [`selection`] |
//! | Ref benchmark statistics | Table III | [`selection`] |
//! | Ref PinPoints prediction errors | Fig. 10 | [`selection`] |
//! | Sniper MT ELFies vs pinballs | Fig. 11 | [`mt`] |
//! | User-level vs full-system simulation | Table IV | [`fullsys`] |
//! | gem5 IPC across two configs | Table V | [`gem5`] |
//! | Design-choice ablations | DESIGN.md §5 | [`ablations`] |
//! | Ablations gated as `elfie bench` scenarios | DESIGN.md §5 | [`scenario`] |

pub mod ablations;
pub mod fullsys;
pub mod gem5;
pub mod mt;
pub mod overhead;
pub mod selection;

use crate::harness::{self, BenchKnobs};
use elfie::prelude::*;
use elfie::simpoint::PinPoint;

/// Runs one `elfie bench` scenario at the full (paper-scale) profile and
/// renders its result. Ablations that the gate already measures print
/// from here, so each figure has exactly one measuring implementation.
pub fn scenario(name: &str) -> String {
    harness::run_scenarios(&[name.to_string()], &BenchKnobs::full())
        .expect("registered scenario")
        .render_text()
}

/// Builds the standard ELFie (sysstate embedded, graceful exit, SSC ROI
/// marker) for one selected region of a workload.
pub fn elfie_for_point(
    w: &Workload,
    point: &PinPoint,
) -> Result<(elfie::pinball2elf::Elfie, SysState), elfie::pipeline::PipelineError> {
    let pb = elfie::pipeline::capture_pinpoint(w, point)?;
    let out = elfie::pipeline::make_elfie(&pb, MarkerKind::Ssc)?;
    Ok(out)
}

/// Simulated CPI of one ELFie region (ROI-marker gated, warm-up included
/// in the functional run but the detailed model engages at the marker; the
/// warm-up span is part of the modelled region here, matching how
/// simulators consume warm-up).
pub fn region_sim_cpi(elf: &[u8], sysstate: &SysState, sim: &Simulator) -> Option<f64> {
    let out = simulate_elfie(elf, sim, vec![], |m| sysstate.stage_files(m)).ok()?;
    if !matches!(out.exit, ExitReason::AllExited(_)) || out.stats.user_insns == 0 {
        return None;
    }
    Some(out.cpi)
}

/// Simulation-based validation (the paper's "traditional approach"):
/// whole-program simulated CPI vs the weighted prediction from simulating
/// only the selected regions.
pub fn validate_sim_based(w: &Workload, cfg: &PinPointsConfig, fuel: u64) -> (f64, f64, f64) {
    let sim = Simulator {
        roi: elfie::sim::RoiMode::Always,
        fuel,
        ..Simulator::coresim_sde()
    };
    let whole = simulate_program(&w.program, &sim, |m| w.setup(m));
    let true_cpi = whole.cpi;

    let points = elfie::pipeline::select_regions(w, cfg, fuel);
    let region_sim = Simulator {
        roi: elfie::sim::RoiMode::FromMarker(MarkerKind::Ssc),
        fuel,
        ..Simulator::coresim_sde()
    };
    let mut samples = Vec::new();
    for cluster in 0..points.k {
        for cand in points.candidates(cluster) {
            if let Ok((elfie, sysstate)) = elfie_for_point(w, cand) {
                if let Some(cpi) = region_sim_cpi(&elfie.bytes, &sysstate, &region_sim) {
                    samples.push((cand.weight, cpi));
                    break;
                }
            }
        }
    }
    let predicted = elfie::simpoint::weighted_prediction(&samples);
    (
        true_cpi,
        predicted,
        elfie::simpoint::prediction_error(true_cpi, predicted),
    )
}
