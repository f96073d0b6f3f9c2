//! Native performance measurement — the `libperfle` analogue.
//!
//! ELFies make hardware-counter measurement of a region trivial: run the
//! ELFie, let the per-thread retired-instruction counters end each thread
//! at its recorded count, and read instructions/cycles from the counters.
//! The helpers here additionally split off the warm-up portion of a region
//! so the measured CPI covers only the slice of interest (paper Section
//! IV-A: "hardware counter based metric computation for selected
//! regions").

use elfie_vm::{ExitReason, FastPathStats, Machine, MachineConfig, Observer, StopWhen};
use elfie_workloads::Workload;
use std::time::{Duration, Instant};

/// A native (hardware-counter style) measurement.
#[derive(Debug, Clone, Copy)]
pub struct NativeMeasurement {
    /// Instructions in the measured span.
    pub insns: u64,
    /// Cycles in the measured span.
    pub cycles: u64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// How the run ended.
    pub exit: ExitReason,
    /// True if the run ended gracefully (process exit or armed-counter
    /// exit), i.e. the measurement is trustworthy.
    pub completed: bool,
    /// VM fast-path counters over the whole machine run (startup and
    /// warm-up included) — block cache and TLB effectiveness.
    pub fastpath: FastPathStats,
    /// Host wall time spent inside [`elfie_vm::Machine::run`], for
    /// guest-MIPS accounting.
    pub vm_wall: Duration,
}

/// Equality ignores `vm_wall`: host timing is nondeterministic, while a
/// measurement's guest-visible content (and the reports built from it)
/// must compare equal across serial, parallel and cached runs.
impl PartialEq for NativeMeasurement {
    fn eq(&self, other: &NativeMeasurement) -> bool {
        self.insns == other.insns
            && self.cycles == other.cycles
            && self.cpi == other.cpi
            && self.exit == other.exit
            && self.completed == other.completed
            && self.fastpath == other.fastpath
    }
}

/// Cycles per instruction of a span, 0 instructions counted as 1.
pub(crate) fn cpi(insns: u64, cycles: u64) -> f64 {
    cycles as f64 / insns.max(1) as f64
}

fn finish(
    insns: u64,
    cycles: u64,
    exit: ExitReason,
    fastpath: FastPathStats,
    vm_wall: Duration,
) -> NativeMeasurement {
    let completed = matches!(exit, ExitReason::AllExited(_));
    NativeMeasurement {
        insns,
        cycles,
        cpi: cpi(insns, cycles),
        exit,
        completed,
        fastpath,
        vm_wall,
    }
}

/// The native machine every measurement runs on: the default
/// configuration with the run's `seed`.
pub(crate) fn native_machine(seed: u64) -> MachineConfig {
    MachineConfig {
        seed,
        ..MachineConfig::default()
    }
}

/// Measures a whole program run on the native machine (the "true value"
/// side of validation). Returns thread-0 perspective aggregated over all
/// threads.
pub fn measure_program(w: &Workload, seed: u64, fuel: u64) -> NativeMeasurement {
    let mut m = w.machine(native_machine(seed));
    let t0 = Instant::now();
    let s = m.run(fuel);
    let wall = t0.elapsed();
    let insns: u64 = m.threads.iter().map(|t| t.icount).sum();
    let cycles: u64 = m.threads.iter().map(|t| t.cycles).sum();
    finish(insns, cycles, s.reason, m.fastpath_stats(), wall)
}

/// Observer that waits for the first ROI marker (ignoring the reserved
/// callback tags).
#[derive(Debug, Default)]
struct RoiWatch {
    kind: Option<elfie_isa::MarkerKind>,
    seen: bool,
}

impl Observer for RoiWatch {
    fn on_marker(&mut self, _tid: u32, kind: elfie_isa::MarkerKind, tag: u32) {
        if Some(kind) == self.kind && !(0xE1F0..=0xE1F2).contains(&tag) {
            self.seen = true;
        }
    }

    fn wants_stop(&self) -> bool {
        self.seen
    }
}

/// Measures an ELFie region natively, excluding the startup code and the
/// first `warmup` instructions after the ROI marker.
///
/// The ELFie must have been converted with a ROI marker of `roi_kind` and
/// graceful exit enabled. `stage` runs before the load (sysstate files).
///
/// # Errors
/// Returns the loader error if the image cannot be loaded.
pub fn measure_elfie(
    elf_bytes: &[u8],
    roi_kind: elfie_isa::MarkerKind,
    warmup: u64,
    seed: u64,
    fuel: u64,
    stage: impl FnOnce(&mut Machine<RoiStage>),
) -> Result<NativeMeasurement, elfie_elf::LoadError> {
    let mut m = Machine::with_observer(
        native_machine(seed),
        RoiStage(RoiWatch {
            kind: Some(roi_kind),
            seen: false,
        }),
    );
    stage(&mut m);
    let loader = elfie_elf::LoaderConfig {
        seed,
        ..elfie_elf::LoaderConfig::default()
    };
    elfie_elf::load(&mut m, elf_bytes, &loader)?;

    // Phase 1: run to the ROI marker (startup excluded).
    let t0 = Instant::now();
    let s1 = m.run(fuel);
    if !matches!(s1.reason, ExitReason::ObserverStop) {
        // Never reached the ROI: startup failed.
        return Ok(finish(0, 0, s1.reason, m.fastpath_stats(), t0.elapsed()));
    }
    let base_insns: u64 = m.threads.iter().map(|t| t.icount).sum();
    let base_cycles: u64 = m.threads.iter().map(|t| t.cycles).sum();
    m.obs.0.seen = false;
    m.obs.0.kind = None; // disarm

    // Phase 2: execute the warm-up span.
    let (warm_insns, warm_cycles) = if warmup > 0 {
        m.stop_conditions = vec![StopWhen::GlobalInsns(m.global_icount() + warmup)];
        let s2 = m.run(fuel);
        let insns: u64 = m.threads.iter().map(|t| t.icount).sum();
        let cycles: u64 = m.threads.iter().map(|t| t.cycles).sum();
        if matches!(
            s2.reason,
            ExitReason::AllExited(_) | ExitReason::Fault { .. }
        ) {
            // Region ended inside the warm-up (failed/short region).
            return Ok(finish(
                insns - base_insns,
                cycles - base_cycles,
                s2.reason,
                m.fastpath_stats(),
                t0.elapsed(),
            ));
        }
        m.stop_conditions.clear();
        (insns, cycles)
    } else {
        (base_insns, base_cycles)
    };

    // Phase 3: run to the graceful exit; this is the measured span.
    let s3 = m.run(fuel);
    let insns: u64 = m.threads.iter().map(|t| t.icount).sum();
    let cycles: u64 = m.threads.iter().map(|t| t.cycles).sum();
    Ok(finish(
        insns - warm_insns,
        cycles - warm_cycles,
        s3.reason,
        m.fastpath_stats(),
        t0.elapsed(),
    ))
}

/// Public wrapper so `measure_elfie`'s closure type is nameable.
#[derive(Debug, Default)]
pub struct RoiStage(RoiWatch);

impl Observer for RoiStage {
    fn on_marker(&mut self, tid: u32, kind: elfie_isa::MarkerKind, tag: u32) {
        self.0.on_marker(tid, kind, tag);
    }
    fn wants_stop(&self) -> bool {
        self.0.wants_stop()
    }
}
