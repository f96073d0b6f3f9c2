//! Sharded intra-region simulation over interval snapshots.
//!
//! Detailed timing simulation of a long region is serial in the region
//! length; this module spreads the timing work over `shards` threads.
//! A fast *profiling pass* (plain functional replay: no observer, no
//! timing model) captures an interval [`Snapshot`] of the replay session
//! every `interval` instructions; placing the snapshots is its only job,
//! and its `O(region)` functional replay is the part that stays serial.
//! The pass runs on the calling thread and publishes each snapshot as it
//! is captured, so the `K + 1` slices do not wait for the whole pass:
//! slice 0 boots from the pinball at once, and slice *i* resumes from
//! snapshot *i* − 1 as soon as that exists. Each slice runs a fresh
//! [`TimingObserver`] machine and finds its own end by the rule the pass
//! pauses by (`next_boundary`), so it never waits for the snapshot
//! that ends it. A deterministic *stitch* merges the per-slice results
//! in slice order.
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
//!   follow from the interval alone (the pass and every slice pause by one
//!   rule) and every slice simulates in isolation. At a fixed interval,
//!   `shards = 1, 2, 8, …` all produce the identical [`SimOutcome`].
//!   (`interval = 0` derives the interval from the shard count, see
//!   [`ShardConfig::interval_for`].)
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Configuration for [`simulate_pinball_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Threads that work on the call at once, the calling thread
    /// included. `0` and `1` both mean the profiling pass and then every
    /// slice on the calling thread (the slicing itself still happens).
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
    /// `done` of `total` slices have finished simulating. Slices run
    /// while the profiling pass does, but none is reported before the
    /// pass ends and `total` is known.
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
    /// Slice workers the run was sized for: `shards`, capped at the
    /// slice count.
    pub workers: usize,
    /// Host wall nanoseconds of the profiling pass alone: spawning the
    /// workers that run beside it is not included.
    pub profile_wall_ns: u64,
    /// Host wall nanoseconds from the first slice's start to the last
    /// slice's end. Slices start while the profiling pass still runs, so
    /// this overlaps [`ShardedOutcome::profile_wall_ns`]; the two do not
    /// add up to the call's wall time.
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

/// What the profiling pass and the slice workers share, under one lock.
#[derive(Default)]
struct Chain {
    /// The snapshots captured so far, in capture order.
    snaps: Vec<Arc<Snapshot>>,
    /// Set once the pass has ended: no further snapshot will come, and
    /// the slice count is `snaps.len() + 1`.
    ended: bool,
    /// Finished slices, in completion order.
    outs: Vec<SliceOut>,
}

impl Chain {
    /// The slice count, once the pass has ended.
    fn total(&self) -> Option<u64> {
        self.ended.then_some(self.snaps.len() as u64 + 1)
    }
}

/// The instruction count a replay standing at `icount` pauses at next:
/// the first multiple of `interval` strictly ahead of it. One scheduling
/// sweep can cross several multiples when the interval is finer than a
/// sweep, so the rule skips to the multiple ahead of where the last pause
/// actually landed. The profiling pass places snapshot *i* by it, and the
/// slice that starts at snapshot *i* − 1 ends by it, so the two agree on
/// every boundary without the slice waiting for snapshot *i*.
fn next_boundary(icount: u64, interval: u64) -> u64 {
    (icount / interval + 1).saturating_mul(interval)
}

/// Runs the profiling pass: a plain functional replay that pauses at
/// every interval boundary to capture a snapshot, handing each one to
/// `publish` as soon as it is captured.
fn profile_pass(
    pinball: &Pinball,
    sim: &Simulator,
    replayer: &Replayer,
    interval: u64,
    publish: impl Fn(Snapshot),
) {
    let mut span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_profile");
    let mut session = replayer.session_with(pinball, NullObserver, None, |_| {});
    let mut captured = 0u64;
    while session.run_until(Some(next_boundary(session.global_icount(), interval)))
        == SessionStep::Paused
    {
        captured += 1;
        publish(session.capture(captured, interval));
    }
    span.arg("snapshots", captured);
    span.arg("icount", session.global_icount());
}

/// Simulates one slice under a cold [`TimingObserver`], from `start`
/// (the pinball itself for slice 0) to the next interval boundary or the
/// region's end, and packages the per-slice statistics.
fn run_slice(
    pinball: &Pinball,
    sim: &Simulator,
    replayer: &Replayer,
    start: Option<&Snapshot>,
    index: usize,
    interval: u64,
) -> SliceOut {
    let t0 = Instant::now();
    let mut span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_slice");
    span.arg("slice", index as u64);
    let mut sess: ReplaySession<'_, TimingObserver> = match start {
        None => replayer.session_with(pinball, sim.observer(), None, |_| {}),
        Some(snap) => replayer.resume_with(pinball, snap, sim.observer(), None),
    };
    let start_icount = sess.global_icount();
    let step = sess.run_until(Some(next_boundary(start_icount, interval)));
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
/// `progress` sees [`ShardPhase::Profile`] first, then one
/// [`ShardPhase::Slice`] per slice with `done` rising from 1 to `total`,
/// then [`ShardPhase::Stitch`]. `total` is known only when the profiling
/// pass ends, so slices that finish earlier are held back and reported,
/// in order, from the calling thread when it does; later completions are
/// reported from whichever thread ran the slice (hence the `Sync`
/// bound). The callback must be cheap and non-blocking: it runs under
/// the lock the workers and the pass share.
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

    // The profiling pass publishes each snapshot into `chain`; a worker
    // takes the next slice index and waits only for that slice's starting
    // snapshot. Completions are counted and reported under the same lock,
    // so `done` only rises.
    let chain = (Mutex::new(Chain::default()), Condvar::new());
    let lock = || chain.0.lock().expect("a shard worker panicked");
    let next = AtomicUsize::new(0);
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let start = match index.checked_sub(1) {
            None => None,
            Some(prev) => {
                let mut c = lock();
                loop {
                    if let Some(snap) = c.snaps.get(prev) {
                        break Some(Arc::clone(snap));
                    }
                    if c.ended {
                        return; // the chain ended: there is no such slice
                    }
                    c = chain.1.wait(c).expect("a shard worker panicked");
                }
            }
        };
        let out = run_slice(pinball, sim, &replayer, start.as_deref(), index, interval);
        let mut c = lock();
        c.outs.push(out);
        if let Some(total) = c.total() {
            let done = c.outs.len() as u64;
            progress(ShardPhase::Slice { done, total });
        }
    };

    // While the pass runs, at most `min(shards, cores) - 1` workers run
    // beside it, so the pass keeps a core to itself; the rest start after
    // it, and the calling thread then joins them. With one shard nothing
    // is spawned: the pass, then every slice, on the calling thread.
    let shards = cfg.shards.max(1);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let beside = shards.min(cores) - 1;
    progress(ShardPhase::Profile);
    let (profile_wall_ns, t1, nslices) = std::thread::scope(|scope| {
        let mut t1 = Instant::now();
        for _ in 0..beside {
            scope.spawn(work);
        }
        let t0 = Instant::now();
        let pass = catch_unwind(AssertUnwindSafe(|| {
            profile_pass(pinball, sim, &replayer, interval, |snap| {
                lock().snaps.push(Arc::new(snap));
                chain.1.notify_all();
            })
        }));
        let profile_wall_ns = t0.elapsed().as_nanos() as u64;
        // End the chain even if the pass panicked, so no worker waits on.
        let nslices = {
            let mut c = lock();
            c.ended = true;
            let total = c.total().expect("the pass has ended");
            for done in 1..=c.outs.len() as u64 {
                progress(ShardPhase::Slice { done, total });
            }
            total as usize
        };
        chain.1.notify_all();
        if let Err(panic) = pass {
            resume_unwind(panic);
        }
        if beside == 0 {
            t1 = Instant::now();
        }
        for _ in beside + 1..shards.min(nslices) {
            scope.spawn(work);
        }
        work();
        (profile_wall_ns, t1, nslices)
    });
    let simulate_wall_ns = t1.elapsed().as_nanos() as u64;
    let workers = shards.min(nslices);
    let Chain {
        snaps, mut outs, ..
    } = chain.0.into_inner().expect("a shard worker panicked");
    let snaps: Vec<Snapshot> = snaps
        .into_iter()
        .map(|s| Arc::try_unwrap(s).expect("every slice worker has finished"))
        .collect();
    let snapshot_bytes: u64 = snaps.iter().map(|s| s.encoded_len() as u64).sum();
    outs.sort_by_key(|o| o.report.index);

    // The deterministic stitch, in slice order.
    progress(ShardPhase::Stitch);
    let t2 = Instant::now();
    let mut stitch_span = elfie_trace::maybe_span(sim.tracer.as_ref(), "sim", "shard_stitch");
    let mut stats = SimStats::default();
    let mut cycles: u64 = 0;
    let mut runtime_ns: u64 = 0;
    let mut fastpath = FastPathStats::default();
    let mut slices = Vec::with_capacity(nslices);
    let mut fin = None;
    assert_eq!(outs.len(), nslices, "every slice ran");
    for (i, o) in outs.into_iter().enumerate() {
        // Every slice but the last paused exactly where the pass captured
        // the snapshot its successor resumed from.
        if let Some(next) = snaps.get(i) {
            assert!(
                o.fin.is_none() && o.report.end_icount == next.meta.global_icount,
                "slice {i} ended at {} (completed: {}), but snapshot {} sits at {}",
                o.report.end_icount,
                o.fin.is_some(),
                i + 1,
                next.meta.global_icount
            );
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreParams;
    use elfie_pinball::RegionTrigger;
    use elfie_pinplay::{Logger, LoggerConfig};
    use elfie_workloads::{gcc_like, InputScale};

    #[test]
    fn next_boundary_is_the_first_multiple_strictly_ahead() {
        assert_eq!(next_boundary(0, 50), 50);
        assert_eq!(next_boundary(49, 50), 50);
        assert_eq!(next_boundary(50, 50), 100);
        assert_eq!(next_boundary(237, 50), 250);
        assert_eq!(next_boundary(u64::MAX - 1, 50), u64::MAX);
    }

    /// Profile, then `Slice { 1..=total, total }` with one exact total,
    /// then Stitch, whatever the shard count, although slices finish
    /// before the pass knows the total.
    #[test]
    fn progress_reports_profile_then_every_slice_in_order_then_stitch() {
        let w = gcc_like(InputScale::Test.factor());
        let pb = Logger::new(LoggerConfig::fat(
            &w.name,
            RegionTrigger::GlobalIcount(20_000),
            6_000,
        ))
        .capture(&w.program, |m| w.setup(m))
        .expect("captures");
        let sim = Simulator::new(CoreParams::haswell_like());
        for shards in [1, 2, 8] {
            let events = Mutex::new(Vec::new());
            let cfg = ShardConfig {
                shards,
                interval: 500,
            };
            let out = simulate_pinball_sharded_with_progress(&pb, &sim, &cfg, &|p| {
                events.lock().unwrap().push(p)
            });
            let total = out.slices.len() as u64;
            assert!(total > 2, "shards={shards}: {total} slice(s)");
            let mut expected = vec![ShardPhase::Profile];
            expected.extend((1..=total).map(|done| ShardPhase::Slice { done, total }));
            expected.push(ShardPhase::Stitch);
            assert_eq!(events.into_inner().unwrap(), expected, "shards={shards}");
        }
    }
}
