//! Sharded-simulation differential suite: for every workload generator,
//! sharded simulation must be *deterministic in the interval and invariant
//! in the worker count*, and functionally bit-identical to serial replay.
//!
//! Checked per workload, per interval {fine, coarse}, per shard count
//! {1, 2, 8}:
//!
//! * the stitched outcome (stats, cycles, runtime, per-thread icounts, VM
//!   fast-path counters), the snapshot chain and the slice schedule are
//!   identical across shard counts;
//! * the final-slice replay summary equals a plain serial replay's, and a
//!   session resumed from the *last* snapshot reaches the serial run's
//!   exact final memory + register state (FNV digest over every mapped
//!   page, every thread's registers, and the global counters);
//! * with a coarse interval (no snapshots) the outcome equals
//!   `simulate_pinball` exactly, fast-path counters included;
//! * with an interval far finer than one scheduling sweep, where a pause
//!   overshoots several boundaries, the profiling pass and the slices
//!   still agree on every boundary at every shard count.

use elfie_isa::Fnv64;
use elfie_pinball::{Pinball, RegImage, RegionTrigger};
use elfie_pinplay::{Logger, LoggerConfig, ReplayConfig, Replayer, SessionStep};
use elfie_sim::{
    simulate_pinball, simulate_pinball_sharded, CoreParams, ShardConfig, ShardedOutcome, Simulator,
};
use elfie_vm::{Machine, MachineConfig, NullObserver, Observer};
use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};

const TRIGGER: u64 = 2_000;
const REGION: u64 = 8_000;
const FINE: u64 = 600;
const COARSE: u64 = 10_000_000; // >= region: zero snapshots, one slice

/// Architectural digest of a final machine: every mapped page (address,
/// permissions, contents), every thread's registers and counters, and the
/// machine-global counters.
fn machine_digest<O: Observer>(m: &Machine<O>) -> u64 {
    let mut h = Fnv64::new();
    for (addr, perm, bytes) in m.mem.pages() {
        h = h.u64(addr).u64(perm.bits() as u64).bytes(bytes);
    }
    for t in &m.threads {
        let regs = RegImage::from(&t.regs);
        for g in regs.gpr {
            h = h.u64(g);
        }
        h = h
            .u64(regs.rip)
            .u64(regs.rflags)
            .u64(regs.fs_base)
            .u64(regs.gs_base)
            .bytes(&regs.xsave)
            .u64(t.icount)
            .u64(t.cycles);
    }
    h.u64(m.global_icount()).u64(m.cycles()).finish()
}

/// Worker-count invariance: everything but wall clocks is identical to
/// the first (single-shard) run's.
fn assert_worker_count_invariant(name: &str, interval: u64, outs: &[ShardedOutcome]) {
    let base = &outs[0];
    for o in &outs[1..] {
        let tag = format!("{name} interval={interval} workers={}", o.workers);
        assert_eq!(o.outcome.stats, base.outcome.stats, "{tag}: stats");
        assert_eq!(o.outcome.cycles, base.outcome.cycles, "{tag}: cycles");
        assert_eq!(
            o.outcome.runtime_ns, base.outcome.runtime_ns,
            "{tag}: runtime"
        );
        assert_eq!(o.outcome.fastpath, base.outcome.fastpath, "{tag}: fastpath");
        assert_eq!(o.snapshots, base.snapshots, "{tag}: snapshot chain");
        assert_eq!(o.slices.len(), base.slices.len(), "{tag}: slice count");
        for (a, b) in o.slices.iter().zip(&base.slices) {
            assert_eq!(
                (a.index, a.start_icount, a.end_icount, a.insns, a.cycles),
                (b.index, b.start_icount, b.end_icount, b.insns, b.cycles),
                "{tag}: slice schedule"
            );
        }
    }
}

fn capture(w: &Workload) -> Pinball {
    Logger::new(LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(TRIGGER),
        REGION,
    ))
    .capture(&w.program, |m| w.setup(m))
    .unwrap_or_else(|e| panic!("{}: capture failed: {e:?}", w.name))
}

fn check_workload(w: &Workload, sim: &Simulator) {
    let pb = capture(w);
    let serial = simulate_pinball(&pb, sim);

    // Serial replay reference under the simulator's machine config.
    let replayer = Replayer::new(ReplayConfig {
        machine: MachineConfig {
            seed: sim.seed,
            quantum: sim.quantum,
            ..MachineConfig::default()
        },
        ..ReplayConfig::default()
    });
    let (ref_summary, ref_m) = replayer.replay_full(&pb, |_| {});
    assert!(ref_summary.completed, "{}: serial replay diverged", w.name);
    let ref_digest = machine_digest(&ref_m);

    for interval in [FINE, COARSE] {
        let outs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&shards| simulate_pinball_sharded(&pb, sim, &ShardConfig { shards, interval }))
            .collect();

        for o in &outs {
            let tag = format!("{} interval={interval} workers={}", w.name, o.workers);
            // Functional bit-identity to serial replay.
            assert_eq!(o.summary, ref_summary, "{tag}: summary");
            assert_eq!(
                o.outcome.machine_icounts, serial.machine_icounts,
                "{tag}: per-thread icounts"
            );
            assert_eq!(
                o.outcome.fastpath.insns, serial.fastpath.insns,
                "{tag}: retired instructions"
            );
            assert_eq!(
                o.outcome.stats.user_insns + o.outcome.stats.kernel_insns,
                serial.stats.user_insns + serial.stats.kernel_insns,
                "{tag}: modelled instructions"
            );
            // Memory + registers: the last snapshot resumes to the serial
            // run's exact final architectural state.
            if let Some(last) = o.snapshots.last() {
                let mut sess = replayer.resume_with(&pb, last, NullObserver, None);
                assert_eq!(sess.run_until(None), SessionStep::Done, "{tag}: tail slice");
                let (_, m) = sess.finish();
                assert_eq!(machine_digest(&m), ref_digest, "{tag}: final state digest");
            }
        }

        assert_worker_count_invariant(&w.name, interval, &outs);
        let base = &outs[0];

        if interval == FINE {
            assert!(
                !base.snapshots.is_empty(),
                "{}: fine interval must produce snapshots",
                w.name
            );
        } else {
            // Coarse interval: one slice, and the outcome *is* the serial
            // simulation, bit for bit.
            assert!(base.snapshots.is_empty(), "{}: no snapshots", w.name);
            assert_eq!(base.slices.len(), 1, "{}: one slice", w.name);
            assert_eq!(base.outcome.stats, serial.stats, "{}: stats", w.name);
            assert_eq!(base.outcome.cycles, serial.cycles, "{}: cycles", w.name);
            assert_eq!(
                base.outcome.runtime_ns, serial.runtime_ns,
                "{}: runtime",
                w.name
            );
            assert_eq!(
                base.outcome.fastpath, serial.fastpath,
                "{}: fastpath",
                w.name
            );
        }
    }
}

#[test]
fn int_suite_is_bit_identical_at_every_shard_count() {
    let sim = Simulator::new(CoreParams::gainestown_like());
    for w in suite_int(InputScale::Test) {
        check_workload(&w, &sim);
    }
}

#[test]
fn fp_suite_is_bit_identical_at_every_shard_count() {
    let sim = Simulator::new(CoreParams::skylake_like());
    for w in suite_fp(InputScale::Test) {
        check_workload(&w, &sim);
    }
}

#[test]
fn mt_suite_is_bit_identical_at_every_shard_count_on_a_multicore_model() {
    // Multi-threaded workloads on a 4-core model with a coarser thread
    // quantum: pauses land mid-turn, threads migrate across slices.
    let sim = Simulator {
        ncores: 4,
        quantum: 256,
        ..Simulator::new(CoreParams::skylake_like())
    };
    for w in suite_speed_mt(InputScale::Test, 2) {
        check_workload(&w, &sim);
    }
}

#[test]
fn a_sweep_crossing_several_boundaries_stitches_identically_at_every_shard_count() {
    // One scheduling sweep of four threads retires 4 x 64 instructions,
    // so at interval 50 a pause overshoots several boundaries: the
    // profiling pass and every slice must skip the same multiples.
    const TINY: u64 = 50;
    let sim = Simulator {
        ncores: 4,
        ..Simulator::new(CoreParams::skylake_like())
    };
    let w = &suite_speed_mt(InputScale::Test, 4)[0];
    let pb = capture(w);
    let serial = simulate_pinball(&pb, &sim);
    let outs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&shards| {
            let cfg = ShardConfig {
                shards,
                interval: TINY,
            };
            simulate_pinball_sharded(&pb, &sim, &cfg)
        })
        .collect();
    let base = &outs[0];
    let paused = &base.slices[..base.slices.len() - 1];
    assert!(
        paused.len() > 2,
        "{}: {} snapshot(s) at interval {TINY}",
        w.name,
        paused.len()
    );
    assert!(
        paused
            .iter()
            .any(|s| s.end_icount / TINY > s.start_icount / TINY + 1),
        "{}: no pause crossed more than one boundary",
        w.name
    );
    for o in &outs {
        assert_eq!(
            o.outcome.machine_icounts, serial.machine_icounts,
            "{} workers={}: per-thread icounts",
            w.name, o.workers
        );
    }
    assert_worker_count_invariant(&w.name, TINY, &outs);
}
