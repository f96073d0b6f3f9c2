//! The PinPlay replayer: constrained re-execution of a [`Pinball`].
//!
//! During replay, logged system calls are *skipped* and their register
//! results and memory side effects are *injected* from the `.reg` logs, so
//! non-repeatable calls (e.g. `gettimeofday`) return exactly what they
//! returned while logging. The recorded order of atomic operations is
//! enforced, stalling threads whose next atomic would run out of order —
//! "constrained" replay, in the paper's terminology.
//!
//! Setting [`ReplayConfig::injection`] to `false` reproduces the paper's
//! `-replay:injection 0` switch: syscalls re-execute natively and no thread
//! order is enforced. Such an injection-less replay "mimics the execution
//! of an ELFie" and is the recommended way to debug ELFie failures.

use elfie_isa::page_align_up;
use elfie_pinball::{
    CacheSnap, KernelSnap, PageRecord, PageSource, Pinball, RegImage, Snapshot, SnapshotMeta,
    SyscallEffect, ThreadSnap, ThreadStateSnap,
};
use elfie_trace::Tracer;
use elfie_vm::{
    nr, Fault, Machine, MachineConfig, MemError, Memory, NullObserver, Observer, Perm,
    SyscallAction, SyscallInterposer, ThreadState, ThreadStep,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// How checkpoint pages become guest memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BootMode {
    /// Map the pinball's arena-backed payloads directly into the guest
    /// (zero-copy); the VM privatises a frame on first write. Booting a
    /// fat pinball is O(mapped pages), not O(bytes).
    #[default]
    Shared,
    /// Copy every page into a private frame up front (the pre-arena
    /// behaviour). Kept for differential testing and benchmarking.
    DeepCopy,
}

/// Replayer configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Inject logged syscall side effects instead of re-executing
    /// (`-replay:injection 1`, the default).
    pub injection: bool,
    /// Enforce the recorded order of atomic operations.
    pub enforce_order: bool,
    /// Maximum instructions to execute before giving up.
    pub fuel: u64,
    /// Machine configuration for the replay run.
    pub machine: MachineConfig,
    /// How checkpoint pages are materialized into guest memory.
    pub boot: BootMode,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            injection: true,
            enforce_order: true,
            fuel: u64::MAX / 2,
            machine: MachineConfig::default(),
            boot: BootMode::Shared,
        }
    }
}

impl ReplayConfig {
    /// The `-replay:injection 0` configuration: no injection, no order
    /// enforcement. Mimics an ELFie while still running under the replay
    /// harness.
    pub fn injectionless() -> ReplayConfig {
        ReplayConfig {
            injection: false,
            enforce_order: false,
            ..ReplayConfig::default()
        }
    }
}

/// How a replay diverged from the recorded execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// A thread issued a different syscall than the log expected.
    SyscallMismatch {
        /// Original (logged) thread id.
        tid: u32,
        /// Expected syscall number from the log.
        expected: u64,
        /// Actually issued syscall number.
        got: u64,
    },
    /// A thread issued more syscalls than were logged.
    LogUnderrun {
        /// Original (logged) thread id.
        tid: u32,
        /// The unexpected syscall number.
        nr: u64,
    },
    /// A thread faulted (typically an access to an un-captured page).
    Fault {
        /// Original (logged) thread id.
        tid: u32,
        /// Description of the fault.
        what: String,
    },
    /// No thread could make progress (order-enforcement deadlock).
    Stall,
    /// The fuel budget ran out before all threads finished.
    OutOfFuel,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::SyscallMismatch { tid, expected, got } => {
                write!(
                    f,
                    "tid {tid}: syscall mismatch (expected {expected}, got {got})"
                )
            }
            Divergence::LogUnderrun { tid, nr } => {
                write!(f, "tid {tid}: syscall {nr} beyond end of log")
            }
            Divergence::Fault { tid, what } => write!(f, "tid {tid}: {what}"),
            Divergence::Stall => write!(f, "all threads stalled"),
            Divergence::OutOfFuel => write!(f, "fuel exhausted"),
        }
    }
}

/// The result of a replay run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// True when every thread reached its recorded instruction count
    /// (replay "always terminates after the desired number of
    /// instructions").
    pub completed: bool,
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
    /// Instructions retired across all threads.
    pub global_icount: u64,
    /// Instructions retired per (original) thread id.
    pub per_thread: BTreeMap<u32, u64>,
    /// Cycles elapsed on the replay machine.
    pub cycles: u64,
    /// Number of syscalls whose effects were injected.
    pub injected_syscalls: u64,
    /// Number of lazily injected pages (regular pinballs).
    pub lazy_pages_injected: u64,
    /// Stdout produced during replay (injection-less replays only; with
    /// injection, writes are skipped).
    pub stdout: Vec<u8>,
}

struct InjectState {
    queues: HashMap<u32, VecDeque<SyscallEffect>>,
    tid_map: HashMap<u32, u32>, // machine tid -> original tid
    injected: u64,
    divergence: Option<Divergence>,
    brk_start: u64,
    tracer: Option<Arc<Tracer>>,
}

impl InjectState {
    /// One `replay/inject` instant per skipped-and-injected syscall. A
    /// replay that injects more than the per-thread ring holds counts
    /// the overflow as dropped events.
    fn trace_inject(&self, tid: u32, nr_: u64) {
        if let Some(tracer) = &self.tracer {
            tracer.instant("replay", "inject", &[("tid", tid as u64), ("nr", nr_)]);
        }
    }
}

struct Injector {
    state: Rc<RefCell<InjectState>>,
}

impl SyscallInterposer for Injector {
    fn on_syscall(
        &mut self,
        tid: u32,
        nr_: u64,
        args: [u64; 6],
        mem: &mut Memory,
    ) -> SyscallAction {
        let mut st = self.state.borrow_mut();
        let orig = st.tid_map.get(&tid).copied().unwrap_or(tid);
        let entry = match st.queues.get_mut(&orig).and_then(|q| q.pop_front()) {
            Some(e) => e,
            None => {
                if st.divergence.is_none() {
                    st.divergence = Some(Divergence::LogUnderrun { tid: orig, nr: nr_ });
                }
                return SyscallAction::PassThrough;
            }
        };
        if entry.nr != nr_ {
            if st.divergence.is_none() {
                st.divergence = Some(Divergence::SyscallMismatch {
                    tid: orig,
                    expected: entry.nr,
                    got: nr_,
                });
            }
            return SyscallAction::PassThrough;
        }
        match nr_ {
            // Structural syscalls re-execute: thread creation/exit and
            // scheduling must actually happen on the replay machine.
            nr::CLONE | nr::EXIT | nr::EXIT_GROUP | nr::SCHED_YIELD | nr::FUTEX => {
                SyscallAction::PassThrough
            }
            // Memory-management syscalls are injected *and* their mapping
            // effects reproduced, so the layout matches the logging run.
            nr::MMAP => {
                let addr = entry.ret;
                if !elfie_vm::is_error(addr) {
                    let len = page_align_up(args[1].max(1));
                    let _ = mem.map_range(addr, addr + len, Perm::RW);
                }
                st.injected += 1;
                st.trace_inject(orig, nr_);
                SyscallAction::Skip {
                    ret: entry.ret,
                    writes: entry.writes,
                }
            }
            nr::MUNMAP => {
                let len = page_align_up(args[1].max(1));
                mem.unmap_range(args[0], args[0] + len);
                st.injected += 1;
                st.trace_inject(orig, nr_);
                SyscallAction::Skip {
                    ret: entry.ret,
                    writes: entry.writes,
                }
            }
            nr::BRK => {
                let new_brk = entry.ret;
                let start = page_align_up(st.brk_start);
                let end = page_align_up(new_brk);
                if end > start {
                    let _ = mem.map_range(start, end, Perm::RW);
                }
                st.injected += 1;
                st.trace_inject(orig, nr_);
                SyscallAction::Skip {
                    ret: entry.ret,
                    writes: entry.writes,
                }
            }
            _ => {
                st.injected += 1;
                st.trace_inject(orig, nr_);
                SyscallAction::Skip {
                    ret: entry.ret,
                    writes: entry.writes,
                }
            }
        }
    }
}

/// The PinPlay replayer.
#[derive(Debug, Clone, Default)]
pub struct Replayer {
    cfg: ReplayConfig,
    tracer: Option<Arc<Tracer>>,
}

impl Replayer {
    /// Creates a replayer with the given configuration.
    pub fn new(cfg: ReplayConfig) -> Replayer {
        Replayer { cfg, tracer: None }
    }

    /// Puts the replay on a timeline: a `replay/replay` span per run with
    /// injected-syscall and lazy-page counts as args, plus
    /// `replay/inject` and `replay/lazy_fault` instants and a
    /// `replay/divergence` instant on failure. Tracing never alters the
    /// replayed execution.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Replayer {
        self.tracer = Some(tracer);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReplayConfig {
        &self.cfg
    }

    /// Builds the replay machine for `pinball`: memory image mapped,
    /// initial threads created, heap metadata restored. Returns the
    /// machine plus the machine-tid → original-tid mapping.
    ///
    /// Exposed so other harnesses (e.g. a pinball-driven simulator) can
    /// reuse the construction.
    pub fn build_machine(&self, pinball: &Pinball) -> (Machine, HashMap<u32, u32>) {
        self.build_machine_with(pinball, NullObserver)
    }

    /// Like [`Replayer::build_machine`], with an instrumentation observer
    /// attached — this is how timing simulators ride on constrained
    /// replay (the Sniper + PinPlay-library combination of the paper).
    pub fn build_machine_with<O: Observer>(
        &self,
        pinball: &Pinball,
        obs: O,
    ) -> (Machine<O>, HashMap<u32, u32>) {
        let mut m = Machine::with_observer(self.cfg.machine.clone(), obs);
        for (&addr, page) in &pinball.image.pages {
            self.boot_page(&mut m.mem, addr, page);
        }
        m.kernel.set_brk(pinball.meta.brk_start, pinball.meta.brk);
        m.kernel.cwd = pinball.meta.cwd.clone();
        let mut tid_map = HashMap::new();
        for rec in pinball.threads.iter().filter(|t| !t.spawned) {
            let machine_tid = m.add_thread(rec.regs.to_regfile());
            tid_map.insert(machine_tid, rec.tid);
        }
        (m, tid_map)
    }

    /// Materializes one checkpoint page into guest memory, honouring the
    /// configured [`BootMode`].
    fn boot_page(&self, mem: &mut Memory, addr: u64, page: &PageRecord) {
        match self.cfg.boot {
            BootMode::Shared => {
                mem.map_shared_page(addr, Perm::from_bits(page.perm), Arc::clone(&page.data));
            }
            BootMode::DeepCopy => {
                mem.map_page(addr, Perm::from_bits(page.perm));
                mem.write_bytes_unchecked(addr, &page.data[..])
                    .expect("mapped page");
            }
        }
    }

    /// Replays `pinball`. `setup` runs before execution and can populate
    /// the kernel filesystem — needed for injection-less replays, where
    /// file syscalls re-execute for real.
    pub fn replay(&self, pinball: &Pinball, setup: impl FnOnce(&mut Machine)) -> ReplaySummary {
        self.replay_full(pinball, setup).0
    }

    /// Like [`Replayer::replay`], but also returns the final machine so
    /// callers can inspect memory and register state after replay.
    pub fn replay_full(
        &self,
        pinball: &Pinball,
        setup: impl FnOnce(&mut Machine),
    ) -> (ReplaySummary, Machine) {
        self.replay_full_with(pinball, NullObserver, setup)
    }

    /// Like [`Replayer::replay_full`], with an instrumentation observer
    /// attached to the replay machine.
    pub fn replay_full_with<O: Observer>(
        &self,
        pinball: &Pinball,
        obs: O,
        setup: impl FnOnce(&mut Machine<O>),
    ) -> (ReplaySummary, Machine<O>) {
        self.replay_full_with_source(pinball, obs, None, setup)
    }

    /// Like [`Replayer::replay_full_with`], additionally consulting a
    /// [`PageSource`] on unmapped-page faults: pages absent from both the
    /// image and the lazy table stream in from the source (e.g. an
    /// `elfie-store` manifest) on first touch, so a skeleton checkpoint
    /// never loads pages the region does not actually reference.
    pub fn replay_full_with_source<O: Observer>(
        &self,
        pinball: &Pinball,
        obs: O,
        source: Option<&dyn PageSource>,
        setup: impl FnOnce(&mut Machine<O>),
    ) -> (ReplaySummary, Machine<O>) {
        let mut run_span = elfie_trace::maybe_span(self.tracer.as_ref(), "replay", "replay");
        let mut session = self.session_with(pinball, obs, source, setup);
        session.run_until(None);
        let (summary, m) = session.finish();
        run_span.arg("icount", summary.global_icount);
        run_span.arg("injected_syscalls", summary.injected_syscalls);
        run_span.arg("lazy_pages", summary.lazy_pages_injected);
        run_span.arg("completed", summary.completed as u64);
        (summary, m)
    }

    /// Starts an incremental replay of `pinball` from region entry. The
    /// returned [`ReplaySession`] exposes the same execution
    /// [`Replayer::replay_full_with_source`] performs, but pausable at
    /// instruction-count boundaries — the building block for interval
    /// snapshots and sharded simulation.
    pub fn session_with<'a, O: Observer>(
        &self,
        pinball: &'a Pinball,
        obs: O,
        source: Option<&'a dyn PageSource>,
        setup: impl FnOnce(&mut Machine<O>),
    ) -> ReplaySession<'a, O> {
        let (mut m, tid_map) = self.build_machine_with(pinball, obs);
        setup(&mut m);
        let spawn_queue: VecDeque<u32> = pinball
            .threads
            .iter()
            .filter(|t| t.spawned)
            .map(|t| t.tid)
            .collect();
        self.make_session(pinball, source, m, tid_map, spawn_queue, None)
    }

    /// Starts an incremental replay of `pinball` *mid-region*, from a
    /// [`Snapshot`] previously captured by [`ReplaySession::capture`]
    /// under the same configuration. Memory boots `Shared` from the boot
    /// image with the snapshot's delta pages overriding it (zero-copy
    /// arena handles either way); threads, kernel state, the
    /// replay-injection position and the hardware-model caches are
    /// restored exactly, so the continued execution — architectural state
    /// *and* cycle counts — is bit-identical to a run that never paused.
    pub fn resume_with<'a, O: Observer>(
        &self,
        pinball: &'a Pinball,
        snapshot: &Snapshot,
        obs: O,
        source: Option<&'a dyn PageSource>,
    ) -> ReplaySession<'a, O> {
        let mut m = Machine::with_observer(self.cfg.machine.clone(), obs);
        let dropped: std::collections::BTreeSet<u64> = snapshot.dropped.iter().copied().collect();
        for (&addr, page) in &pinball.image.pages {
            if dropped.contains(&addr) || snapshot.delta.contains_key(&addr) {
                continue;
            }
            self.boot_page(&mut m.mem, addr, page);
        }
        for (&addr, rec) in &snapshot.delta {
            self.boot_page(&mut m.mem, addr, rec);
        }
        m.kernel
            .set_brk(snapshot.kernel.brk_start, snapshot.kernel.brk);
        m.kernel.cwd = snapshot.kernel.cwd.clone();
        m.kernel.stdout = snapshot.kernel.stdout.clone();
        let mut tid_map = HashMap::new();
        for snap in &snapshot.threads {
            let machine_tid = m.add_thread(snap.regs.to_regfile());
            debug_assert_eq!(machine_tid, snap.machine_tid, "dense machine tids");
            tid_map.insert(machine_tid, snap.orig_tid);
            let t = &mut m.threads[machine_tid as usize];
            t.state = match snap.state {
                ThreadStateSnap::Runnable => ThreadState::Runnable,
                ThreadStateSnap::FutexWait(addr) => ThreadState::FutexWait(addr),
                ThreadStateSnap::Exited(code) => ThreadState::Exited(code),
            };
            t.icount = snap.icount;
            t.cycles = snap.cycles;
            t.exit_counter.target = snap.exit_target;
            t.exit_counter.count = snap.exit_count;
            t.exit_counter.fired = snap.exit_fired;
        }
        if let [l1d, l2] = &snapshot.caches[..] {
            m.hw_mut().restore_state(&[
                (l1d.tags.clone(), l1d.hits, l1d.misses),
                (l2.tags.clone(), l2.hits, l2.misses),
            ]);
        }
        m.restore_counters(snapshot.meta.global_icount, snapshot.meta.cycles);
        let spawn_queue: VecDeque<u32> = pinball
            .threads
            .iter()
            .filter(|t| t.spawned)
            .map(|t| t.tid)
            .skip(snapshot.meta.spawns_adopted as usize)
            .collect();
        self.make_session(pinball, source, m, tid_map, spawn_queue, Some(snapshot))
    }

    fn make_session<'a, O: Observer>(
        &self,
        pinball: &'a Pinball,
        source: Option<&'a dyn PageSource>,
        mut m: Machine<O>,
        tid_map: HashMap<u32, u32>,
        spawn_queue: VecDeque<u32>,
        snapshot: Option<&Snapshot>,
    ) -> ReplaySession<'a, O> {
        let state = Rc::new(RefCell::new(InjectState {
            queues: pinball
                .threads
                .iter()
                .map(|t| {
                    let consumed = snapshot
                        .and_then(|s| s.consumed_syscalls.get(&t.tid).copied())
                        .unwrap_or(0) as usize;
                    (t.tid, t.syscalls.iter().skip(consumed).cloned().collect())
                })
                .collect(),
            tid_map: tid_map.clone(),
            injected: snapshot.map_or(0, |s| s.meta.injected_syscalls),
            divergence: None,
            brk_start: pinball.meta.brk_start,
            tracer: self.tracer.clone(),
        }));
        if self.cfg.injection {
            m.set_interposer(Box::new(Injector {
                state: Rc::clone(&state),
            }));
        }
        ReplaySession {
            replayer: self.clone(),
            pinball,
            source,
            m,
            tid_map,
            state,
            targets: pinball.region.thread_icounts.clone(),
            spawn_queue,
            race_ptr: snapshot.map_or(0, |s| s.meta.race_ptr as usize),
            fuel: self
                .cfg
                .fuel
                .saturating_sub(snapshot.map_or(0, |s| s.meta.fuel_spent)),
            lazy_injected: snapshot.map_or(0, |s| s.meta.lazy_pages_injected),
            divergence: None,
            finished: false,
        }
    }
}

/// What [`ReplaySession::run_until`] stopped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStep {
    /// The instruction-count boundary was reached; the session is paused
    /// at a capture-consistent point (call [`ReplaySession::capture`],
    /// then run on).
    Paused,
    /// The region finished — every thread reached its recorded count, or
    /// the replay diverged. Call [`ReplaySession::finish`].
    Done,
}

/// An in-flight constrained replay that can pause at instruction-count
/// boundaries, capture resumable [`Snapshot`]s, and continue — or be
/// created directly *at* such a boundary from a snapshot
/// ([`Replayer::resume_with`]).
///
/// The pause point is pinned to the top of the replay scheduling loop
/// (after spawned-thread adoption, before the next round-robin sweep), so
/// a session resumed from a capture walks exactly the state sequence the
/// capturing session walked: same interleaving, same injections, same
/// cycle charges. That invariant is what lets sharded simulation prove
/// bit-identity against serial replay.
///
/// Snapshot capture assumes the pinball's pages were booted from the
/// region's memory image (any [`BootMode`]); with a lazy [`PageSource`]
/// the delta simply lists every faulted-in page. Capture/resume is
/// supported for *injection* replays (the default); injection-less
/// replays re-execute file syscalls whose kernel state a snapshot does
/// not carry.
pub struct ReplaySession<'a, O: Observer = NullObserver> {
    replayer: Replayer,
    pinball: &'a Pinball,
    source: Option<&'a dyn PageSource>,
    m: Machine<O>,
    tid_map: HashMap<u32, u32>,
    state: Rc<RefCell<InjectState>>,
    targets: BTreeMap<u32, u64>,
    spawn_queue: VecDeque<u32>,
    race_ptr: usize,
    fuel: u64,
    lazy_injected: u64,
    divergence: Option<Divergence>,
    finished: bool,
}

impl<'a, O: Observer> ReplaySession<'a, O> {
    /// The replay machine (memory, threads, kernel, observer).
    pub fn machine(&self) -> &Machine<O> {
        &self.m
    }

    /// Machine-global retired instructions so far.
    pub fn global_icount(&self) -> u64 {
        self.m.global_icount()
    }

    /// Runs the replay until the machine-global instruction count reaches
    /// `boundary` (checked at the top of each scheduling sweep — the
    /// session may overshoot by up to one sweep, deterministically) or the
    /// region completes/diverges. `None` runs to completion.
    pub fn run_until(&mut self, boundary: Option<u64>) -> SessionStep {
        if self.finished {
            return SessionStep::Done;
        }
        let races = &self.pinball.races.order;
        let cfg = &self.replayer.cfg;
        'outer: loop {
            // Adopt any threads spawned since the last sweep.
            while self.tid_map.len() < self.m.threads.len() {
                let machine_tid = self.tid_map.len() as u32;
                let orig = self.spawn_queue.pop_front().unwrap_or(machine_tid);
                self.tid_map.insert(machine_tid, orig);
                self.state.borrow_mut().tid_map.insert(machine_tid, orig);
            }

            // Pause exactly here: producer (capturing) and consumer
            // (resumed) sessions both stop at this loop point, so their
            // states coincide.
            if let Some(b) = boundary {
                if self.m.global_icount() >= b {
                    return SessionStep::Paused;
                }
            }

            let n = self.m.threads.len();
            let mut progressed = false;
            for idx in 0..n {
                let orig = self.tid_map[&(idx as u32)];
                // Threads that reached their recorded count are done.
                let target = self.targets.get(&orig).copied().unwrap_or(0);
                if self.m.threads[idx].is_runnable() && self.m.threads[idx].icount >= target {
                    self.m.threads[idx].state = ThreadState::Exited(0);
                }
                if !self.m.threads[idx].is_runnable() {
                    continue;
                }
                // Run a slice, respecting atomic-order constraints. Only
                // *retired* steps count against the slice (and the fuel):
                // a lazily-faulted attempt is re-run after page injection,
                // and charging it would shift this thread's slice boundary
                // — perturbing the multi-threaded interleaving relative to
                // an eager (fat) boot of the same checkpoint.
                //
                // The slice runs as block batches bounded by the slice,
                // the fuel and the thread's target. While atomics are
                // ordered, a batch may only *start* on an atomic (after
                // the race log grants this thread its turn) and stops
                // before the next one, so one peek per batch sees every
                // atomic. Syscalls end a batch, so injection divergence
                // is checked once per batch.
                let mut retired_in_slice = 0;
                while retired_in_slice < 64 {
                    if self.fuel == 0 {
                        self.divergence = Some(Divergence::OutOfFuel);
                        break 'outer;
                    }
                    let icount = self.m.threads[idx].icount;
                    if icount >= target {
                        self.m.threads[idx].state = ThreadState::Exited(0);
                        break;
                    }
                    let ordered = cfg.enforce_order && self.race_ptr < races.len();
                    let mut is_atomic = false;
                    if ordered {
                        if let Some((insn, _)) = self.m.peek_insn(idx) {
                            if insn.is_atomic() {
                                if races[self.race_ptr].tid != orig {
                                    break; // stalled: not this thread's turn
                                }
                                is_atomic = true;
                            }
                        }
                    }
                    let max = (64 - retired_in_slice).min(self.fuel).min(target - icount);
                    let (attempts, step) = self.m.step_thread(idx, max, ordered);
                    // A not-runnable attempt retires nothing but still
                    // costs one unit of fuel.
                    self.fuel -= attempts.max(1);
                    let retired = attempts - u64::from(matches!(step, ThreadStep::Fault(_)));
                    if retired > 0 {
                        progressed = true;
                        retired_in_slice += retired;
                        // Only a batch's first instruction can be atomic.
                        if is_atomic {
                            self.race_ptr += 1;
                        }
                    }
                    match step {
                        ThreadStep::Retired
                        | ThreadStep::SyscallRetired
                        | ThreadStep::Marker(..) => {}
                        ThreadStep::NotRunnable => break,
                        ThreadStep::Fault(fault) => {
                            // Lazy page injection: regular pinballs insert
                            // text/data pages at first use.
                            let addr = match fault {
                                Fault::Mem(e) | Fault::Fetch(e) => match e {
                                    MemError::Unmapped { addr, .. } => Some(addr),
                                    MemError::Protection { .. } => None,
                                },
                                _ => None,
                            };
                            let page = addr.map(elfie_isa::page_base);
                            if let Some(p) = page {
                                let rec = match self.pinball.lazy_pages.get(&p) {
                                    Some(rec) => Some(rec.clone()),
                                    None => self.source.and_then(|s| s.fetch_page(p)),
                                };
                                if let Some(rec) = rec {
                                    self.replayer.boot_page(&mut self.m.mem, p, &rec);
                                    self.m.mem.record_lazy_fault();
                                    self.lazy_injected += 1;
                                    if let Some(tracer) = &self.replayer.tracer {
                                        tracer.instant(
                                            "replay",
                                            "lazy_fault",
                                            &[("page", p), ("tid", orig as u64)],
                                        );
                                    }
                                    progressed = true;
                                    // Refund the attempt: injections are
                                    // bounded by the page count, and an
                                    // eager boot of the same checkpoint
                                    // never pays them.
                                    self.fuel += 1;
                                    continue;
                                }
                            }
                            self.divergence = Some(Divergence::Fault {
                                tid: orig,
                                what: format!("{fault}"),
                            });
                            break 'outer;
                        }
                    }
                    if self.state.borrow().divergence.is_some() {
                        self.divergence = self.state.borrow().divergence.clone();
                        break 'outer;
                    }
                }
            }

            let all_done = self.m.threads.iter().enumerate().all(|(idx, t)| {
                let orig = self.tid_map[&(idx as u32)];
                t.is_exited() || t.icount >= self.targets.get(&orig).copied().unwrap_or(0)
            });
            if all_done {
                break;
            }
            if !progressed {
                self.divergence = Some(Divergence::Stall);
                break;
            }
        }
        self.finished = true;
        SessionStep::Done
    }

    /// Captures a resumable [`Snapshot`] of the paused session: the dirty
    /// page delta against the pinball's boot image, per-thread state, the
    /// replay-injection position, kernel facts and the hardware-model
    /// caches. Call only when [`ReplaySession::run_until`] returned
    /// [`SessionStep::Paused`] (or before the first run).
    ///
    /// Clean pages are detected in O(1) each: a frame still `Shared` with
    /// the boot image's arena payload cannot have been written. Every
    /// other frame — privatised (`Owned`), or `Shared` with another
    /// payload such as the zero page a re-mapped page starts from — is
    /// byte-compared: a page whose contents equal its boot contents stays
    /// out of the delta, which keeps chains minimal.
    pub fn capture(&self, slice_index: u64, interval: u64) -> Snapshot {
        let image = &self.pinball.image.pages;
        let mut delta = BTreeMap::new();
        let mut mapped = std::collections::BTreeSet::new();
        for (addr, perm, bytes, shared) in self.m.mem.pages_with_sharing() {
            mapped.insert(addr);
            let clean = image.get(&addr).is_some_and(|boot| {
                perm == Perm::from_bits(boot.perm)
                    && (shared.is_some_and(|payload| Arc::ptr_eq(payload, &boot.data))
                        || bytes[..] == boot.data[..])
            });
            if !clean {
                delta.insert(addr, PageRecord::new(perm.bits(), bytes));
            }
        }
        let dropped: Vec<u64> = image
            .keys()
            .copied()
            .filter(|a| !mapped.contains(a))
            .collect();
        let st = self.state.borrow();
        let consumed_syscalls: BTreeMap<u32, u64> = self
            .pinball
            .threads
            .iter()
            .map(|t| {
                let remaining = st.queues.get(&t.tid).map_or(0, |q| q.len());
                (t.tid, (t.syscalls.len() - remaining) as u64)
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        let spawned_total = self.pinball.threads.iter().filter(|t| t.spawned).count();
        let caches = self
            .m
            .hw()
            .export_state()
            .into_iter()
            .map(|(tags, hits, misses)| CacheSnap { tags, hits, misses })
            .collect();
        Snapshot {
            meta: SnapshotMeta {
                slice_index,
                interval,
                global_icount: self.m.global_icount(),
                cycles: self.m.cycles(),
                fuel_spent: self.replayer.cfg.fuel - self.fuel,
                race_ptr: self.race_ptr as u64,
                spawns_adopted: (spawned_total - self.spawn_queue.len()) as u64,
                injected_syscalls: st.injected,
                lazy_pages_injected: self.lazy_injected,
            },
            threads: self
                .m
                .threads
                .iter()
                .enumerate()
                .map(|(idx, t)| ThreadSnap {
                    machine_tid: idx as u32,
                    orig_tid: self.tid_map[&(idx as u32)],
                    regs: RegImage::from(&t.regs),
                    state: match t.state {
                        ThreadState::Runnable => ThreadStateSnap::Runnable,
                        ThreadState::FutexWait(addr) => ThreadStateSnap::FutexWait(addr),
                        ThreadState::Exited(code) => ThreadStateSnap::Exited(code),
                    },
                    icount: t.icount,
                    cycles: t.cycles,
                    exit_target: t.exit_counter.target,
                    exit_count: t.exit_counter.count,
                    exit_fired: t.exit_counter.fired,
                })
                .collect(),
            consumed_syscalls,
            kernel: KernelSnap {
                brk_start: self.m.kernel.brk_start(),
                brk: self.m.kernel.brk(),
                cwd: self.m.kernel.cwd.clone(),
                stdout: self.m.kernel.stdout.clone(),
            },
            caches,
            delta,
            dropped,
        }
    }

    /// Consumes the session and assembles the [`ReplaySummary`] plus the
    /// final machine — identical to what
    /// [`Replayer::replay_full_with_source`] returns. For a session that
    /// ran to [`SessionStep::Done`] after resuming from a snapshot, every
    /// cumulative field (icounts, cycles, injected counts, stdout) equals
    /// the serial run's, because the snapshot carried the prefix totals.
    pub fn finish(self) -> (ReplaySummary, Machine<O>) {
        let per_thread: BTreeMap<u32, u64> = self
            .m
            .threads
            .iter()
            .enumerate()
            .map(|(idx, t)| (self.tid_map[&(idx as u32)], t.icount))
            .collect();
        let completed = self.divergence.is_none()
            && self.finished
            && self
                .targets
                .iter()
                .all(|(tid, target)| per_thread.get(tid).copied().unwrap_or(0) >= *target);
        if let (Some(tracer), Some(d)) = (&self.replayer.tracer, &self.divergence) {
            let kind = match d {
                Divergence::SyscallMismatch { .. } => 1,
                Divergence::LogUnderrun { .. } => 2,
                Divergence::Fault { .. } => 3,
                Divergence::Stall => 4,
                Divergence::OutOfFuel => 5,
            };
            tracer.instant("replay", "divergence", &[("kind", kind)]);
        }
        let summary = ReplaySummary {
            completed,
            divergence: self.divergence,
            global_icount: self.m.global_icount(),
            per_thread,
            cycles: self.m.cycles(),
            injected_syscalls: self.state.borrow().injected,
            lazy_pages_injected: self.lazy_injected,
            stdout: self.m.kernel.stdout.clone(),
        };
        (summary, self.m)
    }
}
