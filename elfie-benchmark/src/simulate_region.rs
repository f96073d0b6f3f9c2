//! `simulate_region`: one generator thread simulates four captured
//! regions, serially and sharded, on a gem5-like Haswell model.
//!
//! Why: the timing model, constrained replay and the shard/snapshot path
//! do the work, while SimPoint, pinball2elf and the store do none. The
//! serial and sharded calls use the simulator layer in two different ways.

use crate::layers::{Layers, VmTally};
use crate::stats::Rng;
use crate::{Ctx, Phase};
use elfie::pinball::{Pinball, RegionTrigger};
use elfie::pinplay::{Logger, LoggerConfig, ReplayConfig, Replayer};
use elfie::sim::{
    simulate_pinball, simulate_pinball_sharded, CoreParams, RoiMode, ShardConfig, SimOutcome,
    SimStats, Simulator,
};
use elfie::vm::MachineConfig;
use elfie::workloads::{find_workload, InputScale};
use std::collections::BTreeMap;

const WORKLOADS: [&str; 4] = ["gcc_like", "mcf_like", "lbm_like", "lbm_s_like"];
/// Instructions per region: long enough that the timing model dominates
/// a call, short enough for 200 calls (the p95 floor) in one run.
const REGION: u64 = 500_000;
const SHARDS: usize = 2;
const INTERVAL: u64 = REGION / 8;
const FUEL: u64 = 2_000_000_000;

const ORDER_STREAM: u64 = 1;
const START_STREAM: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Serial,
    Sharded,
}

/// One pass: every region in both modes, in seeded order.
pub fn round(rng: &mut Rng) -> Vec<(usize, Mode)> {
    let mut ops: Vec<(usize, Mode)> = (0..WORKLOADS.len())
        .flat_map(|r| [(r, Mode::Serial), (r, Mode::Sharded)])
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// Where each region starts within its jitter window, as a fraction.
pub fn start_fractions(seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, START_STREAM);
    WORKLOADS
        .iter()
        .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        .collect()
}

/// Captures a `REGION`-instruction fat pinball of `name` at train scale.
/// The region sits in the middle of the program, shifted by up to a tenth
/// of its length: the seed varies the instructions simulated without
/// moving the region into another program phase, which would change the
/// work of a pass.
fn capture(name: &str, frac: f64) -> Result<Pinball, String> {
    let w = find_workload(name, InputScale::Train).ok_or_else(|| format!("no workload {name}"))?;
    let total = elfie::perf::measure_program(&w, 1, FUEL).insns;
    let jitter = REGION / 10;
    let Some(lo) = (total / 2).checked_sub(REGION / 2 + jitter / 2) else {
        return Err(format!(
            "{name}: {total} instructions leave no room for a region"
        ));
    };
    let start = lo + (jitter as f64 * frac) as u64;
    let pb = Logger::new(LoggerConfig::fat(
        name,
        RegionTrigger::GlobalIcount(start),
        REGION,
    ))
    .capture(&w.program, |m| w.setup(m))
    .map_err(|e| format!("{name}: capture at {start}: {e}"))?;
    if pb.region.length != REGION {
        return Err(format!(
            "{name}: region at {start} has {} instructions",
            pb.region.length
        ));
    }
    Ok(pb)
}

/// What must repeat exactly across passes.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    cycles: u64,
    stats: SimStats,
    icounts: BTreeMap<u32, u64>,
    insns: u64,
    cpi: f64,
}

impl Digest {
    fn of(o: &SimOutcome) -> Digest {
        Digest {
            cycles: o.cycles,
            stats: o.stats.clone(),
            icounts: o.machine_icounts.clone(),
            insns: o.fastpath.insns,
            cpi: o.cpi,
        }
    }
}

/// Simulated instructions and host milliseconds of one kind of call.
#[derive(Default)]
struct Speed {
    insns: u64,
    ms: f64,
}

impl Speed {
    fn add(&mut self, insns: u64, ms: f64) {
        self.insns += insns;
        self.ms += ms;
    }

    fn mips(&self) -> f64 {
        self.insns as f64 / 1e6 / (self.ms / 1e3).max(f64::MIN_POSITIVE)
    }
}

pub fn run(ctx: &Ctx) -> Result<(Phase, Vec<f64>), String> {
    let fracs = start_fractions(ctx.seed);
    let setup = |_| {
        std::thread::scope(|s| {
            let handles: Vec<_> = WORKLOADS
                .iter()
                .zip(&fracs)
                .map(|(name, &frac)| s.spawn(move || capture(name, frac)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "capture thread panicked".to_string())?
                })
                .collect::<Result<Vec<Pinball>, String>>()
        })
    };
    ctx.measure(setup, |regions| simulate(ctx, regions))
}

fn simulate(ctx: &Ctx, regions: &[Pinball]) -> Result<Phase, String> {
    let mut sim = Simulator::gem5_se(CoreParams::haswell_like());
    sim.roi = RoiMode::Always;
    let replayer = Replayer::new(ReplayConfig {
        machine: MachineConfig {
            seed: sim.seed,
            quantum: sim.quantum,
            ..MachineConfig::default()
        },
        ..ReplayConfig::default()
    });
    let shard_cfg = ShardConfig {
        shards: SHARDS,
        interval: INTERVAL,
    };

    let mut phase = Phase::default();
    let mut kinds = Vec::new();
    let mut lay = Layers::new(ctx.tracer.clone());
    let mut vm = VmTally::default();
    let (mut serial_speed, mut sharded_speed) = (Speed::default(), Speed::default());
    let mut seen: Vec<[Option<Digest>; 2]> = vec![[None, None]; regions.len()];
    let mut rng = Rng::new(ctx.seed, ORDER_STREAM);
    let deadline = ctx.deadline();
    while deadline.more(phase.latencies_ms.len()) {
        for (r, mode) in round(&mut rng) {
            let pb = &regions[r];
            let (outcome, wall) = match mode {
                Mode::Serial => lay.op("simulate_serial", |lay| {
                    let mut replay_ms = 0.0;
                    if lay.enabled() {
                        let ((_, m), t) =
                            lay.time("pinplay.replay_ms", || replayer.replay_full(pb, |_| {}));
                        vm.record(m.fastpath_stats(), t);
                        replay_ms = t;
                    }
                    let (o, t) = lay.span("sim", "simulate_pinball", || simulate_pinball(pb, &sim));
                    lay.add("sim.timing_model_ms", t - replay_ms);
                    serial_speed.add(o.fastpath.insns, t);
                    o
                }),
                Mode::Sharded => lay.op("simulate_sharded", |lay| {
                    let (s, t) = lay.span("sim", "simulate_pinball_sharded", || {
                        simulate_pinball_sharded(pb, &sim, &shard_cfg)
                    });
                    let slice_ms: Vec<f64> =
                        s.slices.iter().map(|x| x.wall_ns as f64 / 1e6).collect();
                    let (profile, stitch) = (
                        s.profile_wall_ns as f64 / 1e6,
                        s.stitch_wall_ns as f64 / 1e6,
                    );
                    lay.add("sim.shard.profile_ms", profile);
                    lay.add("sim.shard.slice_sum_ms", slice_ms.iter().sum());
                    lay.add(
                        "sim.shard.slice_max_ms",
                        slice_ms.iter().copied().fold(0.0, f64::max),
                    );
                    lay.add("sim.shard.stitch_ms", stitch);
                    lay.add(
                        "sim.shard.overhead_frac",
                        (profile + stitch) / t.max(f64::MIN_POSITIVE),
                    );
                    lay.add("sim.shard.snapshot_kb", s.snapshot_bytes as f64 / 1024.0);
                    sharded_speed.add(s.outcome.fastpath.insns, t);
                    s.outcome
                }),
            };
            phase.record(wall);
            kinds.push(2 * r + mode as usize);
            let digest = Digest::of(&outcome);
            let slot = &mut seen[r][mode as usize];
            if digest.cycles <= 1 {
                phase.fail(format_args!(
                    "simulate_region: {} {mode:?} modelled nothing",
                    WORKLOADS[r]
                ));
            } else if slot.as_ref().is_some_and(|d| *d != digest) {
                phase.fail(format_args!(
                    "simulate_region: {} {mode:?} differs across passes",
                    WORKLOADS[r]
                ));
            }
            slot.get_or_insert(digest);
        }
    }

    // Sharding may change timing (slices start cold) but never the
    // functional execution.
    let mut cpi_error = Vec::new();
    for (r, [serial, sharded]) in seen.iter().enumerate() {
        let (Some(serial), Some(sharded)) = (serial, sharded) else {
            continue;
        };
        if serial.icounts != sharded.icounts || serial.insns != sharded.insns {
            phase.fail(format_args!(
                "simulate_region: {} sharded run executed differently",
                WORKLOADS[r]
            ));
        }
        cpi_error.push((sharded.cpi - serial.cpi).abs() / serial.cpi * 100.0);
    }
    // Each region in each mode is the same simulation every round.
    phase.fastest_of_kind(&kinds);
    lay.set(
        "sim.cpi_error_pct",
        cpi_error.iter().sum::<f64>() / cpi_error.len().max(1) as f64,
    );
    lay.set("sim.serial_mips", serial_speed.mips());
    lay.set("sim.sharded_mips", sharded_speed.mips());
    vm.set_metrics(&mut lay, phase.latencies_ms.len());
    phase.layers = lay.finish(deadline.elapsed());
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> (Vec<f64>, Vec<Vec<(usize, Mode)>>) {
        let mut rng = Rng::new(seed, ORDER_STREAM);
        (
            start_fractions(seed),
            (0..3).map(|_| round(&mut rng)).collect(),
        )
    }

    #[test]
    fn the_seed_fixes_region_starts_and_op_order() {
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1).0, plan(2).0);
        assert_ne!(plan(1).1, plan(2).1);
        assert!(plan(3).0.iter().all(|f| (0.0..1.0).contains(f)));
        assert_eq!(plan(3).1[0].len(), 2 * WORKLOADS.len());
    }
}
