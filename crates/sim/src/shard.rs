//! Sharded intra-region simulation over interval snapshots.
//!
//! Detailed timing simulation of a long region is serial in the region
//! length; this module spreads the timing work over `workers` threads.
//! A fast *profiling pass* (plain functional replay: no observer, no
//! timing model) captures an interval [`Snapshot`] of the replay session
//! every `interval` instructions; placing the snapshots is its only job,
//! and its `O(region)` functional replay is the part that stays serial.
//! The resulting `K + 1` slices are then fanned out over a worker pool:
//! each worker boots a fresh [`TimingObserver`] machine from its slice's
//! snapshot (the first slice boots from the pinball itself), runs to the
//! next snapshot's recorded instruction boundary, and reports per-slice
//! statistics. A deterministic *stitch* merges the per-slice results in
//! slice order.
//!
//! # Determinism contract
//!
//! * The **functional** execution is bit-identical to serial replay at any
//!   interval: resuming from a snapshot reproduces the exact state
//!   sequence of the capturing session (proven byte-for-byte by the
//!   `snapshot_resume` tests in `elfie-pinplay`). The final slice's
//!   [`ReplaySummary`], per-thread instruction counts, and VM fast-path
//!   instruction count therefore equal the serial run's.
//! * The **stitched timing outcome is a pure function of the interval**:
//!   it does not depend on the worker count, because the slice boundaries
//!   are fixed by the profiling pass and every slice simulates in
//!   isolation. At a fixed interval, `shards = 1, 2, 8, …` all produce
//!   the identical [`SimOutcome`]. (`interval = 0` derives the interval
//!   from the shard count, see [`ShardConfig::interval_for`].)
//! * With `interval >= region length` the profiling pass emits **zero
//!   snapshots**, the single slice is an ordinary constrained replay, and
//!   the stitched outcome equals [`simulate_pinball`]'s exactly.
//!
//! What sharding *does* change, deliberately, is micro-architectural
//! warm-up: each slice starts with cold simulator caches and branch
//! predictors, so for `K > 0` the stitched cycle count differs from the
//! serial one in the same way SimPoint-style sampled simulation differs
//! from whole-program simulation. The per-slice footprint cardinalities
//! are summed (see [`SimStats::absorb`]).
//!
//! [`simulate_pinball`]: crate::drivers::simulate_pinball

use crate::core::{SimStats, TimingObserver};
use crate::drivers::{collect_icounts, replay_exit, SimOutcome, Simulator};
use elfie_pinball::{Pinball, Snapshot};
use elfie_pinplay::{ReplaySession, ReplaySummary, Replayer, SessionStep};
use elfie_vm::{FastPathStats, NullObserver};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for [`simulate_pinball_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads simulating slices concurrently. `0` and `1` both
    /// mean serial slice execution (the slicing itself still happens).
    pub shards: usize,
    /// Snapshot interval in retired instructions. A snapshot is captured
    /// at the first scheduling boundary at or after each multiple of the
    /// interval; an interval at least as long as the region yields a
    /// single slice. `0` means one slice per shard (see
    /// [`ShardConfig::interval_for`]).
    pub interval: u64,
}

impl ShardConfig {
    /// The snapshot interval a run over a region of `region_len`
    /// instructions uses: `interval` when set, otherwise
    /// `max(1, region_len / max(1, shards))`, i.e. one slice per shard.
    pub fn interval_for(&self, region_len: u64) -> u64 {
        match self.interval {
            0 => (region_len / self.shards.max(1) as u64).max(1),
            set => set,
        }
    }
}

/// Progress notifications emitted by
/// [`simulate_pinball_sharded_with_progress`] as the run crosses phase
/// boundaries. The serve layer forwards these to `--follow` clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// The profiling pass (functional replay capturing the snapshot
    /// chain) started.
    Profile,
    /// `done` of `total` slices have finished simulating.
    Slice {
        /// Slices finished so far.
        done: u64,
        /// Total slices in this run.
        total: u64,
    },
    /// The deterministic stitch started.
    Stitch,
}

/// Per-slice accounting from a sharded run, in slice order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceReport {
    /// Slice index (0 = from the pinball boot image).
    pub index: usize,
    /// Global instruction count the slice started at.
    pub start_icount: u64,
    /// Global instruction count the slice ended at.
    pub end_icount: u64,
    /// Instructions the timing model charged in this slice.
    pub insns: u64,
    /// Simulated cycles of this slice (max across cores).
    pub cycles: u64,
    /// Host wall nanoseconds the slice took to simulate.
    pub wall_ns: u64,
}

/// The result of a sharded simulation: the stitched timing outcome plus
/// the profiling pass's snapshot chain and the scheduling accounting the
/// bench/trace layers report.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Stitched timing outcome (see the module docs for semantics).
    pub outcome: SimOutcome,
    /// Replay summary of the final slice — bit-identical to a serial
    /// replay's summary.
    pub summary: ReplaySummary,
    /// The interval snapshot chain, in capture order. Callers may persist
    /// it (e.g. `Store::put_snapshot` with each element's predecessor as
    /// the parent) or drop it.
    pub snapshots: Vec<Snapshot>,
    /// Per-slice accounting, in slice order.
    pub slices: Vec<SliceReport>,
    /// Total serialized bytes of the snapshot chain.
    pub snapshot_bytes: u64,
    /// Worker threads actually used (capped at the slice count).
    pub workers: usize,
    /// Host wall nanoseconds of the profiling pass.
    pub profile_wall_ns: u64,
    /// Host wall nanoseconds of the fan-out simulation phase.
    pub simulate_wall_ns: u64,
    /// Host wall nanoseconds of the stitch.
    pub stitch_wall_ns: u64,
}

/// What one worker brings home from a slice.
struct SliceOut {
    report: SliceReport,
    stats: SimStats,
    runtime_ns: u64,
    fastpath: FastPathStats,
    /// `Some` only for the slice that ran to completion: the canonical
    /// replay summary and the final per-thread retired counts.
    fin: Option<(ReplaySummary, BTreeMap<u32, u64>)>,
}

/// Runs the profiling pass: a plain functional replay that pauses at
/// every interval boundary to capture a snapshot. Returns the chain.
fn profile_pass(
    pinball: &Pinball,
    sim: &Simulator,
    replayer: &Replayer,
    interval: u64,
) -> Vec<Snapshot> {
    let mut span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_profile");
    let mut session = replayer.session_with(pinball, NullObserver, None, |_| {});
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut boundary = interval;
    while session.run_until(Some(boundary)) == SessionStep::Paused {
        snaps.push(session.capture(snaps.len() as u64 + 1, interval));
        // A single scheduling turn can cross several boundaries when the
        // interval is finer than the thread quantum; skip to the next
        // multiple strictly ahead of where the pause actually landed.
        boundary = (session.global_icount() / interval + 1).saturating_mul(interval);
    }
    span.arg("snapshots", snaps.len() as u64);
    span.arg("icount", session.global_icount());
    snaps
}

/// Simulates one slice under a cold [`TimingObserver`] and packages the
/// per-slice statistics.
fn run_slice(
    pinball: &Pinball,
    sim: &Simulator,
    replayer: &Replayer,
    snaps: &[Snapshot],
    index: usize,
) -> SliceOut {
    let t0 = Instant::now();
    let mut span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_slice");
    span.arg("slice", index as u64);
    let mut sess: ReplaySession<'_, TimingObserver> = match index.checked_sub(1) {
        None => replayer.session_with(pinball, sim.observer(), None, |_| {}),
        Some(prev) => replayer.resume_with(pinball, &snaps[prev], sim.observer(), None),
    };
    let start_icount = sess.global_icount();
    let step = match snaps.get(index) {
        Some(next) => sess.run_until(Some(next.meta.global_icount)),
        None => sess.run_until(None),
    };
    let (end_icount, stats, cycles, runtime_ns, mut fastpath, fin) = if step == SessionStep::Done {
        let (summary, m) = sess.finish();
        (
            summary.global_icount,
            m.obs.stats(),
            m.obs.cycles(),
            m.obs.runtime_ns(),
            m.fastpath_stats(),
            Some((summary, collect_icounts(&m))),
        )
    } else {
        let m = sess.machine();
        (
            m.global_icount(),
            m.obs.stats(),
            m.obs.cycles(),
            m.obs.runtime_ns(),
            m.fastpath_stats(),
            None,
        )
    };
    // A resumed machine's global icount (which `fastpath.insns` mirrors)
    // was restored to the snapshot's value; every other fast-path counter
    // starts at zero in the freshly-booted slice machine. Subtracting the
    // start makes the whole struct slice-local, so the stitch can sum it.
    fastpath.insns = fastpath.insns.saturating_sub(start_icount);
    let insns = stats.user_insns + stats.kernel_insns;
    span.arg("start", start_icount);
    span.arg("end", end_icount);
    span.arg("insns", insns);
    span.arg("cycles", cycles);
    SliceOut {
        report: SliceReport {
            index,
            start_icount,
            end_icount,
            insns,
            cycles,
            wall_ns: t0.elapsed().as_nanos() as u64,
        },
        stats,
        runtime_ns,
        fastpath,
        fin,
    }
}

/// Simulates a pinball by fanning interval slices out over a worker pool
/// and stitching the per-slice results deterministically.
///
/// See the module docs for the determinism contract. The stitch merges in
/// slice order: counters sum ([`SimStats::absorb`]), cycles and simulated
/// runtime sum across consecutive slices, the exit reason and per-thread
/// retired counts come from the final slice, and VM fast-path counters
/// accumulate across slices (the profiling pass's functional work is *not*
/// included in the stitched fast-path counters).
///
/// # Panics
/// Panics if no slice runs to completion, which cannot happen for a
/// snapshot chain produced by the internal profiling pass over the same
/// deterministic replay.
pub fn simulate_pinball_sharded(
    pinball: &Pinball,
    sim: &Simulator,
    cfg: &ShardConfig,
) -> ShardedOutcome {
    simulate_pinball_sharded_with_progress(pinball, sim, cfg, &|_| {})
}

/// [`simulate_pinball_sharded`] with a phase-progress callback.
///
/// `progress` is invoked from the calling thread for [`ShardPhase::
/// Profile`] and [`ShardPhase::Stitch`], and from worker threads for
/// each [`ShardPhase::Slice`] completion (hence the `Sync` bound). Slice
/// reports are serialized, so their `done` counts arrive in rising
/// order. The callback must be cheap and non-blocking: it runs inside
/// the simulation fan-out.
///
/// # Panics
/// Same contract as [`simulate_pinball_sharded`].
pub fn simulate_pinball_sharded_with_progress(
    pinball: &Pinball,
    sim: &Simulator,
    cfg: &ShardConfig,
    progress: &(dyn Fn(ShardPhase) + Sync),
) -> ShardedOutcome {
    let interval = cfg.interval_for(pinball.region.length);
    let mut span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "simulate_sharded");
    span.arg("shards", cfg.shards as u64);
    span.arg("interval", interval);
    let replayer = sim.replayer();

    // Phase 1: profiling pass (functional; emits the snapshot chain).
    progress(ShardPhase::Profile);
    let t0 = Instant::now();
    let snaps = profile_pass(pinball, sim, &replayer, interval);
    let snapshot_bytes: u64 = snaps.iter().map(|s| s.encoded_len() as u64).sum();
    let profile_wall_ns = t0.elapsed().as_nanos() as u64;

    // Phase 2: fan the K + 1 slices out over the worker pool.
    let t1 = Instant::now();
    let nslices = snaps.len() + 1;
    let workers = cfg.shards.max(1).min(nslices);
    // Count and report under one lock: concurrent completions then reach
    // `progress` in the order they were counted, so `done` only rises.
    let finished = Mutex::new(0u64);
    let slice_done = |_i: usize| {
        let mut done = finished.lock().expect("a slice progress report panicked");
        *done += 1;
        progress(ShardPhase::Slice {
            done: *done,
            total: nslices as u64,
        });
    };
    let outs: Vec<SliceOut> = if workers <= 1 {
        (0..nslices)
            .map(|i| {
                let out = run_slice(pinball, sim, &replayer, &snaps, i);
                slice_done(i);
                out
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SliceOut>>> = (0..nslices).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= nslices {
                        break;
                    }
                    let out = run_slice(pinball, sim, &replayer, &snaps, i);
                    *slots[i].lock().unwrap() = Some(out);
                    slice_done(i);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("every slice ran"))
            .collect()
    };
    let simulate_wall_ns = t1.elapsed().as_nanos() as u64;

    // Phase 3: deterministic stitch, in slice order.
    progress(ShardPhase::Stitch);
    let t2 = Instant::now();
    let mut stitch_span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_stitch");
    let mut stats = SimStats::default();
    let mut cycles: u64 = 0;
    let mut runtime_ns: u64 = 0;
    let mut fastpath = FastPathStats::default();
    let mut slices = Vec::with_capacity(nslices);
    let mut fin = None;
    for o in outs {
        stats.absorb(&o.stats);
        cycles = cycles.saturating_add(o.report.cycles);
        runtime_ns = runtime_ns.saturating_add(o.runtime_ns);
        fastpath.accumulate(o.fastpath);
        if o.fin.is_some() {
            fin = o.fin;
        }
        slices.push(o.report);
    }
    let (summary, machine_icounts) = fin.expect("final slice runs to completion");
    let insns = stats.user_insns + stats.kernel_insns;
    let exit = replay_exit(&summary);
    let outcome = SimOutcome::new(stats, cycles, runtime_ns, exit, machine_icounts, fastpath);
    let stitch_wall_ns = t2.elapsed().as_nanos() as u64;
    stitch_span.arg("slices", nslices as u64);
    stitch_span.arg("snapshot_bytes", snapshot_bytes);
    drop(stitch_span);
    span.arg("slices", nslices as u64);
    span.arg("cycles", outcome.cycles);
    span.arg("insns", insns);

    ShardedOutcome {
        outcome,
        summary,
        snapshots: snaps,
        slices,
        snapshot_bytes,
        workers,
        profile_wall_ns,
        simulate_wall_ns,
        stitch_wall_ns,
    }
}
