//! Simulation drivers: run a program, an ELFie, or a pinball under a
//! [`TimingObserver`] and collect results.
//!
//! Three simulator personalities are provided, mirroring the paper's
//! Section III-C:
//!
//! * [`Simulator::sniper`] — a Pin-based-style 8-core out-of-order model
//!   (Gainestown-like) that simulates ELFies unconstrained and pinballs
//!   via constrained replay;
//! * [`Simulator::coresim_sde`] / [`Simulator::coresim_simics`] — a
//!   cycle-level Skylake-like model with a user-level (SDE) front-end or a
//!   full-system (Simics) front-end that also models ring-0 work;
//! * [`Simulator::gem5_se`] — a binary-driven syscall-emulation model,
//!   parameterised by micro-architecture (Nehalem-like / Haswell-like).

use crate::core::{CoreParams, KernelModel, RoiMode, SimStats, TimingObserver};
use elfie_isa::Program;
use elfie_pinball::Pinball;
use elfie_pinplay::{ReplayConfig, ReplaySummary, Replayer};
use elfie_trace::Tracer;
use elfie_vm::{ExitReason, FastPathStats, Machine, MachineConfig, StopWhen};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A configured simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Core micro-architecture.
    pub params: CoreParams,
    /// Number of cores.
    pub ncores: usize,
    /// Model ring-0 kernel work (full-system simulation).
    pub full_system: bool,
    /// Kernel cost model used when `full_system` is set.
    pub kernel_model: KernelModel,
    /// When the performance model engages.
    pub roi: RoiMode,
    /// Instruction budget for the functional run.
    pub fuel: u64,
    /// Scheduler seed for the functional machine.
    pub seed: u64,
    /// Functional-front-end thread-multiplexing quantum in instructions.
    /// Pin-based front-ends serialise threads in coarse slices, which is
    /// what lets spin loops inflate unconstrained multi-threaded runs
    /// (Fig. 11); native hardware corresponds to a small quantum.
    pub quantum: u64,
    /// Optional timeline tracer: each `simulate_*` run becomes a `sim`
    /// span (args: cycles, instructions) and pinball simulations inherit
    /// the replayer's `replay` events. Does not affect timing results.
    pub tracer: Option<Arc<Tracer>>,
}

impl Simulator {
    /// A single-core simulator with the given micro-architecture.
    pub fn new(params: CoreParams) -> Simulator {
        Simulator {
            params,
            ncores: 1,
            full_system: false,
            kernel_model: KernelModel::default(),
            roi: RoiMode::Always,
            fuel: 500_000_000,
            seed: 1,
            quantum: 64,
            tracer: None,
        }
    }

    /// Attaches a tracer (builder form of setting [`Simulator::tracer`]).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Simulator {
        self.tracer = Some(tracer);
        self
    }

    /// The Sniper-like 8-core configuration (paper Section IV-B: "a
    /// configuration that mimics an Intel Gainestown out-of-order 8-core
    /// processor").
    pub fn sniper() -> Simulator {
        Simulator {
            ncores: 8,
            roi: RoiMode::FromMarker(elfie_isa::MarkerKind::Sniper),
            // Pin-based functional front-end: coarse thread multiplexing.
            quantum: 6_144,
            ..Simulator::new(CoreParams::gainestown_like())
        }
    }

    /// CoreSim with the SDE (user-level) front-end.
    pub fn coresim_sde() -> Simulator {
        Simulator {
            roi: RoiMode::FromMarker(elfie_isa::MarkerKind::Ssc),
            ..Simulator::new(CoreParams::skylake_like())
        }
    }

    /// CoreSim with the Simics (full-system) front-end.
    pub fn coresim_simics() -> Simulator {
        Simulator {
            full_system: true,
            roi: RoiMode::FromMarker(elfie_isa::MarkerKind::Simics),
            ..Simulator::new(CoreParams::skylake_like())
        }
    }

    /// gem5-style syscall-emulation-mode simulator for the given core.
    pub fn gem5_se(params: CoreParams) -> Simulator {
        Simulator {
            roi: RoiMode::FromMarker(elfie_isa::MarkerKind::Ssc),
            ..Simulator::new(params)
        }
    }

    /// The personality `name` picks on the command line and in served
    /// `simulate` jobs: `sniper`, `coresim`, `coresim-fs`,
    /// `gem5-nehalem` or `gem5-haswell`.
    ///
    /// # Errors
    /// A one-line message listing the known names for any other name.
    pub fn by_name(name: &str) -> Result<Simulator, String> {
        match name {
            "sniper" => Ok(Simulator::sniper()),
            "coresim" => Ok(Simulator::coresim_sde()),
            "coresim-fs" => Ok(Simulator::coresim_simics()),
            "gem5-nehalem" => Ok(Simulator::gem5_se(CoreParams::nehalem_like())),
            "gem5-haswell" => Ok(Simulator::gem5_se(CoreParams::haswell_like())),
            other => Err(format!(
                "unknown simulator `{other}` (sniper|coresim|coresim-fs|gem5-nehalem|gem5-haswell)"
            )),
        }
    }

    pub(crate) fn observer(&self) -> TimingObserver {
        TimingObserver::new(
            self.params,
            self.ncores,
            self.roi,
            if self.full_system {
                Some(self.kernel_model)
            } else {
                None
            },
        )
    }

    pub(crate) fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            seed: self.seed,
            quantum: self.quantum,
            ..MachineConfig::default()
        }
    }

    /// The constrained replayer every pinball simulation runs on: this
    /// simulator's machine config, plus its tracer when one is attached.
    pub(crate) fn replayer(&self) -> Replayer {
        let replayer = Replayer::new(ReplayConfig {
            machine: self.machine_config(),
            ..ReplayConfig::default()
        });
        match &self.tracer {
            Some(tracer) => replayer.with_tracer(Arc::clone(tracer)),
            None => replayer,
        }
    }
}

/// The result of one simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Timing statistics.
    pub stats: SimStats,
    /// Simulated cycles (max across cores).
    pub cycles: u64,
    /// Simulated runtime in nanoseconds.
    pub runtime_ns: u64,
    /// Instructions per cycle over the modelled region (user + kernel).
    pub ipc: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// How the functional run ended.
    pub exit: ExitReason,
    /// Functional per-thread retired counts (including any startup code).
    pub machine_icounts: BTreeMap<u32, u64>,
    /// Functional-execution fast-path counters (block cache / TLB) of the
    /// underlying VM run.
    pub fastpath: FastPathStats,
}

impl SimOutcome {
    /// Assembles an outcome from the timing totals; `cycles` is clamped
    /// to 1 so IPC and CPI stay finite.
    pub(crate) fn new(
        stats: SimStats,
        cycles: u64,
        runtime_ns: u64,
        exit: ExitReason,
        machine_icounts: BTreeMap<u32, u64>,
        fastpath: FastPathStats,
    ) -> SimOutcome {
        let cycles = cycles.max(1);
        let insns = stats.user_insns + stats.kernel_insns;
        SimOutcome {
            ipc: insns as f64 / cycles as f64,
            cpi: cycles as f64 / insns.max(1) as f64,
            stats,
            cycles,
            runtime_ns,
            exit,
            machine_icounts,
            fastpath,
        }
    }
}

/// Opens the per-run span on the simulator's optional tracer.
fn sim_span(sim: &Simulator, name: &'static str) -> elfie_trace::Span {
    elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", name)
}

/// Records the run's headline numbers as span args before the guard drops.
fn finish_span(span: &mut elfie_trace::Span, out: &SimOutcome) {
    span.arg("cycles", out.cycles);
    span.arg("insns", out.stats.user_insns + out.stats.kernel_insns);
    span.arg("guest_insns", out.fastpath.insns);
}

fn outcome(m: &Machine<TimingObserver>, exit: ExitReason) -> SimOutcome {
    let obs = &m.obs;
    SimOutcome::new(
        obs.stats(),
        obs.cycles(),
        obs.runtime_ns(),
        exit,
        collect_icounts(m),
        m.fastpath_stats(),
    )
}

/// How a constrained replay ended: a divergence (detail in the summary)
/// reads as a deadlock.
pub(crate) fn replay_exit(summary: &ReplaySummary) -> ExitReason {
    if summary.completed {
        ExitReason::AllExited(0)
    } else {
        ExitReason::Deadlock
    }
}

pub(crate) fn collect_icounts<O: elfie_vm::Observer>(m: &Machine<O>) -> BTreeMap<u32, u64> {
    m.threads.iter().map(|t| (t.tid, t.icount)).collect()
}

/// Simulates a whole program (execution-driven, like CoreSim running any
/// Linux executable).
pub fn simulate_program(
    prog: &Program,
    sim: &Simulator,
    setup: impl FnOnce(&mut Machine<TimingObserver>),
) -> SimOutcome {
    let mut span = sim_span(sim, "simulate_program");
    let mut m = Machine::with_observer(sim.machine_config(), sim.observer());
    m.load_program(prog);
    setup(&mut m);
    let s = m.run(sim.fuel);
    let out = outcome(&m, s.reason);
    finish_span(&mut span, &out);
    out
}

/// Simulates an ELFie image: loads it with the emulated system loader and
/// runs it unconstrained. `setup` stages sysstate files etc.; `stop`
/// appends extra end-of-simulation conditions (e.g. the `(PC, count)`
/// convention of the Sniper case study).
///
/// # Errors
/// Returns the loader error when the image cannot be loaded.
pub fn simulate_elfie(
    elf_bytes: &[u8],
    sim: &Simulator,
    stop: Vec<StopWhen>,
    setup: impl FnOnce(&mut Machine<TimingObserver>),
) -> Result<SimOutcome, elfie_elf::LoadError> {
    let mut span = sim_span(sim, "simulate_elfie");
    let mut m = Machine::with_observer(sim.machine_config(), sim.observer());
    setup(&mut m);
    let loader = elfie_elf::LoaderConfig {
        seed: sim.seed,
        ..elfie_elf::LoaderConfig::default()
    };
    elfie_elf::load(&mut m, elf_bytes, &loader)?;
    m.stop_conditions = stop;
    let s = m.run(sim.fuel);
    let out = outcome(&m, s.reason);
    finish_span(&mut span, &out);
    Ok(out)
}

/// Simulates a pinball via constrained replay — the "Sniper modified to
/// include the PinPlay library" path. The replay schedule enforces the
/// recorded order, so instruction counts match the recording exactly (and
/// the timing results inherit the paper's caveat about artificial stalls).
pub fn simulate_pinball(pinball: &Pinball, sim: &Simulator) -> SimOutcome {
    let mut span = sim_span(sim, "simulate_pinball");
    let (summary, m) = sim
        .replayer()
        .replay_full_with(pinball, sim.observer(), |_| {});
    let out = outcome(&m, replay_exit(&summary));
    finish_span(&mut span, &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_each_personality() {
        let cases = [
            ("sniper", Simulator::sniper()),
            ("coresim", Simulator::coresim_sde()),
            ("coresim-fs", Simulator::coresim_simics()),
            (
                "gem5-nehalem",
                Simulator::gem5_se(CoreParams::nehalem_like()),
            ),
            (
                "gem5-haswell",
                Simulator::gem5_se(CoreParams::haswell_like()),
            ),
        ];
        for (name, want) in cases {
            let got = Simulator::by_name(name).expect(name);
            assert_eq!(got.params.name, want.params.name, "{name}");
            assert_eq!(got.full_system, want.full_system, "{name}");
            assert_eq!(got.ncores, want.ncores, "{name}");
            assert_eq!(got.roi, want.roi, "{name}");
        }
        assert_eq!(
            Simulator::by_name("gem5").err().as_deref(),
            Some("unknown simulator `gem5` (sniper|coresim|coresim-fs|gem5-nehalem|gem5-haswell)")
        );
    }
}
