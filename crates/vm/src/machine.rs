//! The guest machine: memory + threads + kernel + scheduler + hardware
//! timing. Stands in for "native hardware running Linux" in the paper's
//! terminology.
//!
//! Three properties matter for reproducing the paper's behaviours:
//!
//! 1. **Unconstrained, non-deterministic multi-threading** — the scheduler
//!    interleaves runnable threads with a seeded, jittered quantum, so two
//!    runs with different seeds take different interleavings (the reason a
//!    region of interest found in one run "may not always be reachable in a
//!    subsequent execution").
//! 2. **Hardware performance counters** — retired instructions and cycles
//!    per thread, plus the programmable graceful-exit counter.
//! 3. **Pluggable instrumentation** — an [`Observer`] (the Pin analogy)
//!    and a [`SyscallInterposer`] (the replay-injection hook used by the
//!    PinPlay replayer).

use crate::bbcache::BlockCache;
use crate::cpu::{self, Effect, Fault, StepEnv};
use crate::hwmodel::HwModel;
use crate::kernel::{Control, Kernel, KernelConfig};
use crate::mem::{MaterializeStats, Memory, Perm};
use crate::obs::{NullObserver, Observer};
use crate::thread::{Thread, ThreadState};
use elfie_isa::{Insn, MarkerKind, Program, RegFile};

/// What an interposed syscall should do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallAction {
    /// Let the kernel execute the call normally.
    PassThrough,
    /// Skip kernel execution; write `writes` into guest memory and return
    /// `ret`. This is PinPlay replay injection: results of non-repeatable
    /// calls (e.g. `gettimeofday`) are reproduced from the log.
    Skip {
        ret: u64,
        writes: Vec<(u64, Vec<u8>)>,
    },
}

/// Hook consulted before every syscall reaches the kernel.
pub trait SyscallInterposer {
    /// Decides how to service syscall `nr` issued by `tid`.
    fn on_syscall(&mut self, tid: u32, nr: u64, args: [u64; 6], mem: &mut Memory) -> SyscallAction;
}

/// Declarative stop conditions checked after each retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Stop once the machine-lifetime global instruction count reaches `n`.
    GlobalInsns(u64),
    /// Stop once thread `tid` has retired `n` instructions.
    ThreadInsns(u32, u64),
    /// Stop after the instruction at `pc` has retired `count` times
    /// (globally, across threads) — the Sniper end-of-simulation convention
    /// from the multi-threaded case study.
    PcCount { pc: u64, count: u64 },
    /// Stop when a marker of this kind retires.
    Marker(MarkerKind),
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// Every thread exited; carries the process exit code.
    AllExited(i32),
    /// A thread faulted (the "ungraceful exit").
    Fault { tid: u32, fault: Fault },
    /// The per-call fuel budget was exhausted.
    FuelExhausted,
    /// The observer requested a stop.
    ObserverStop,
    /// Stop condition at the given index in [`Machine::stop_conditions`].
    StopCondition(usize),
    /// All live threads are blocked on futexes.
    Deadlock,
}

/// Summary of one [`Machine::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Why the run ended.
    pub reason: ExitReason,
    /// Instructions retired during this call.
    pub insns: u64,
    /// Cycles elapsed during this call.
    pub cycles: u64,
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Scheduler quantum in instructions (jittered per slice).
    pub quantum: u64,
    /// Seed for scheduling jitter and stack randomisation.
    pub seed: u64,
    /// Top of the initial thread's stack.
    pub stack_top: u64,
    /// Stack size in bytes.
    pub stack_size: u64,
    /// Enable Linux-style stack randomisation (slide below `stack_top`).
    pub stack_randomize: bool,
    /// Execute through the decoded basic-block cache ([`crate::bbcache`]).
    /// Cached execution is bit-identical to the per-step interpreter, so
    /// this knob only trades speed for memory and is deliberately left out
    /// of [`MachineConfig::fingerprint`].
    pub block_cache: bool,
    /// Kernel configuration.
    pub kernel: KernelConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            quantum: 64,
            seed: 1,
            stack_top: 0x7ffd_8000_0000,
            stack_size: 1 << 20,
            stack_randomize: true,
            block_cache: true,
            kernel: KernelConfig::default(),
        }
    }
}

impl MachineConfig {
    /// Stable hash over every field that influences execution. Two
    /// machines with equal fingerprints run a given program identically,
    /// so the pipeline cache can reuse results keyed on this value.
    pub fn fingerprint(&self) -> u64 {
        elfie_isa::Fnv64::new()
            .u64(self.quantum)
            .u64(self.seed)
            .u64(self.stack_top)
            .u64(self.stack_size)
            .u64(u64::from(self.stack_randomize))
            .u64(self.kernel.brk_base)
            .u64(self.kernel.mmap_base)
            .u64(self.kernel.epoch_ns)
            .u64(self.kernel.pid)
            .finish()
    }
}

/// Counters from the interpreter fast path: the decoded basic-block
/// cache and the software TLB. Harvest with
/// [`Machine::fastpath_stats`]; purely observational — the fast path is
/// bit-identical to per-step interpretation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FastPathStats {
    /// Instructions served from cached blocks without decoding.
    pub block_hits: u64,
    /// Basic-block builds (one decode pass each).
    pub block_misses: u64,
    /// Blocks evicted by self-modifying-code writes.
    pub block_evictions: u64,
    /// Whole-cache generation flushes (memory layout changes).
    pub block_flushes: u64,
    /// Software-TLB hits across read/write/fetch entries.
    pub tlb_hits: u64,
    /// Software-TLB misses (slow `BTreeMap` walks).
    pub tlb_misses: u64,
    /// Guest instructions retired over the machine's lifetime.
    pub insns: u64,
    /// Page-materialization counters (shared frames, CoW breaks, lazy
    /// faults, resident bytes) from this machine's [`Memory`].
    pub mat: MaterializeStats,
}

impl FastPathStats {
    /// Fraction of instructions served without decoding, in `[0, 1]`.
    /// Zero-guarded: an idle machine reports 0, not NaN.
    pub fn block_hit_rate(&self) -> f64 {
        hit_rate(self.block_hits, self.block_misses)
    }

    /// Fraction of page translations served by the TLB, in `[0, 1]`.
    /// Zero-guarded: an idle machine reports 0, not NaN.
    pub fn tlb_hit_rate(&self) -> f64 {
        hit_rate(self.tlb_hits, self.tlb_misses)
    }

    /// Adds `other`'s counters into `self` (for aggregating across runs).
    /// Saturating and order-independent: merging per-worker stats in any
    /// order equals the serial totals (see the `stats_merge` proptest).
    pub fn accumulate(&mut self, other: FastPathStats) {
        self.block_hits = self.block_hits.saturating_add(other.block_hits);
        self.block_misses = self.block_misses.saturating_add(other.block_misses);
        self.block_evictions = self.block_evictions.saturating_add(other.block_evictions);
        self.block_flushes = self.block_flushes.saturating_add(other.block_flushes);
        self.tlb_hits = self.tlb_hits.saturating_add(other.tlb_hits);
        self.tlb_misses = self.tlb_misses.saturating_add(other.tlb_misses);
        self.insns = self.insns.saturating_add(other.insns);
        self.mat.accumulate(&other.mat);
    }
}

/// `hits / (hits + misses)` in `[0, 1]`, 0 when there were no lookups.
/// The single definition every hit-rate in the workspace derives from
/// (re-exported; `elfie::stats` and the CLI both call it).
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits.saturating_add(misses);
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Per-thread position inside a cached block: the next instruction to
/// execute, valid only while the thread's `rip` matches `expected_rip`
/// and the block is still live.
#[derive(Debug, Clone, Copy, Default)]
struct BlockCursor {
    valid: bool,
    slot: usize,
    block_start: u64,
    pos: usize,
    expected_rip: u64,
}

/// `(retired, step result, base cycle cost)` of one executed effect.
#[inline]
fn classify(effect: Effect) -> (bool, ThreadStep, u64) {
    match effect {
        Effect::Normal => (true, ThreadStep::Retired, 1),
        Effect::Syscall => (
            true,
            ThreadStep::SyscallRetired,
            HwModel::insn_cost(&Insn::Syscall),
        ),
        Effect::Marker(k, tag) => (true, ThreadStep::Marker(k, tag), 1),
        Effect::Fault(f) => (false, ThreadStep::Fault(f), 0),
    }
}

/// Result of the last instruction a [`Machine::step_thread`] call
/// attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStep {
    /// The instruction retired.
    Retired,
    /// A syscall retired (kernel serviced or injected).
    SyscallRetired,
    /// A marker instruction retired.
    Marker(MarkerKind, u32),
    /// The thread is not runnable.
    NotRunnable,
    /// The thread faulted.
    Fault(Fault),
}

#[inline]
fn elfie_isa_live_threads() -> u64 {
    crate::kernel::nr::LIVE_THREADS
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

/// Observer wrapper that feeds data accesses to the hardware model while
/// forwarding everything to the user observer.
struct HwObs<'a, O: Observer> {
    inner: &'a mut O,
    hw: &'a mut HwModel,
    extra_cycles: u64,
}

impl<O: Observer> Observer for HwObs<'_, O> {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, len: usize) {
        self.inner.on_insn(tid, rip, insn, len);
    }
    fn on_mem_read(&mut self, tid: u32, addr: u64, size: u64) {
        self.extra_cycles += self.hw.data_access(addr);
        self.inner.on_mem_read(tid, addr, size);
    }
    fn on_mem_write(&mut self, tid: u32, addr: u64, size: u64) {
        self.extra_cycles += self.hw.data_access(addr);
        self.inner.on_mem_write(tid, addr, size);
    }
    fn on_syscall(&mut self, tid: u32, nr: u64, args: &[u64; 6]) {
        self.inner.on_syscall(tid, nr, args);
    }
    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: u64, writes: &[(u64, Vec<u8>)]) {
        self.inner.on_syscall_ret(tid, nr, ret, writes);
    }
    fn on_marker(&mut self, tid: u32, kind: MarkerKind, tag: u32) {
        self.inner.on_marker(tid, kind, tag);
    }
    fn on_thread_start(&mut self, parent: u32, child: u32) {
        self.inner.on_thread_start(parent, child);
    }
    fn on_thread_exit(&mut self, tid: u32, code: i32) {
        self.inner.on_thread_exit(tid, code);
    }
    fn wants_stop(&self) -> bool {
        self.inner.wants_stop()
    }
}

/// The guest machine.
pub struct Machine<O: Observer = NullObserver> {
    /// Guest physical/virtual memory (identity; no paging translation).
    pub mem: Memory,
    /// All threads ever created; index == tid.
    pub threads: Vec<Thread>,
    /// The emulated kernel.
    pub kernel: Kernel,
    /// Attached instrumentation.
    pub obs: O,
    /// Declarative stop conditions (checked in order).
    pub stop_conditions: Vec<StopWhen>,
    cfg: MachineConfig,
    hw: HwModel,
    global_icount: u64,
    cycle: u64,
    rng: u64,
    sched_next: usize,
    exit_code: i32,
    interposer: Option<Box<dyn SyscallInterposer>>,
    /// Hit counts of the `PcCount` entries of `pc_counted`, by index.
    pc_counters: Vec<u64>,
    /// The stop list `pc_counters` was counted for.
    pc_counted: Vec<StopWhen>,
    bbcache: BlockCache,
    cursors: Vec<BlockCursor>,
    seen_layout: u64,
}

impl Machine<NullObserver> {
    /// Creates an empty machine with no instrumentation.
    pub fn new(cfg: MachineConfig) -> Machine<NullObserver> {
        Machine::with_observer(cfg, NullObserver)
    }
}

impl<O: Observer> Machine<O> {
    /// Creates a machine with the given observer attached.
    pub fn with_observer(cfg: MachineConfig, obs: O) -> Machine<O> {
        Machine {
            mem: Memory::new(),
            threads: Vec::new(),
            kernel: Kernel::new(cfg.kernel.clone()),
            obs,
            stop_conditions: Vec::new(),
            rng: cfg.seed.max(1),
            hw: HwModel::default(),
            global_icount: 0,
            cycle: 0,
            sched_next: 0,
            exit_code: 0,
            interposer: None,
            pc_counters: Vec::new(),
            pc_counted: Vec::new(),
            bbcache: BlockCache::new(),
            cursors: Vec::new(),
            seen_layout: 0,
            cfg,
        }
    }

    /// Installs a syscall interposer (replay injection hook).
    pub fn set_interposer(&mut self, ip: Box<dyn SyscallInterposer>) {
        self.interposer = Some(ip);
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Machine-lifetime retired instruction count across all threads.
    pub fn global_icount(&self) -> u64 {
        self.global_icount
    }

    /// Machine-lifetime cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Current wall-clock offset in nanoseconds (cycles at nominal clock).
    pub fn now_ns(&self) -> u64 {
        self.hw.cycles_to_ns(self.cycle)
    }

    /// The hardware timing model (for cache statistics).
    pub fn hw(&self) -> &HwModel {
        &self.hw
    }

    /// Mutable access to the hardware timing model, so a snapshot restore
    /// can re-install captured cache state before resuming.
    pub fn hw_mut(&mut self) -> &mut HwModel {
        &mut self.hw
    }

    /// Overwrites the machine-lifetime instruction and cycle counters.
    /// Used when resuming from a mid-run snapshot: the counters continue
    /// from the captured values so every downstream figure (cycles,
    /// wall-clock, per-thread accounting) is bit-identical to the
    /// uninterrupted run.
    pub fn restore_counters(&mut self, global_icount: u64, cycles: u64) {
        self.global_icount = global_icount;
        self.cycle = cycles;
    }

    /// The process exit code recorded so far.
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }

    /// Loads an assembled program: maps all chunks RWX, sets up the main
    /// thread with a (optionally randomised) stack.
    ///
    /// # Panics
    /// Panics if called twice (the machine already has threads).
    pub fn load_program(&mut self, prog: &Program) {
        assert!(self.threads.is_empty(), "program already loaded");
        for c in &prog.chunks {
            if !c.bytes.is_empty() {
                self.mem
                    .map_range(c.addr, c.end(), Perm::RWX)
                    .expect("valid chunk range");
                self.mem
                    .write_bytes_unchecked(c.addr, &c.bytes)
                    .expect("mapped");
            }
        }
        let mut regs = RegFile::new();
        regs.rip = prog.entry;
        regs.set_rsp(self.setup_stack());
        self.threads.push(Thread::new(0, regs));
    }

    /// Maps the main stack and returns the initial stack pointer,
    /// applying Linux-style randomisation when configured.
    pub fn setup_stack(&mut self) -> u64 {
        let slide = if self.cfg.stack_randomize {
            (xorshift(&mut self.rng) % 256) * elfie_isa::PAGE_SIZE
        } else {
            0
        };
        let top = self.cfg.stack_top - slide;
        let base = top - self.cfg.stack_size;
        self.mem
            .map_range(base, top, Perm::RW)
            .expect("stack range");
        // Leave room for a fake argv/envp block, 16-byte aligned.
        (top - 256) & !15
    }

    /// Adds a thread with the given registers, returning its tid.
    pub fn add_thread(&mut self, regs: RegFile) -> u32 {
        let tid = self.threads.len() as u32;
        self.threads.push(Thread::new(tid, regs));
        tid
    }

    /// True when every thread has exited.
    pub fn all_exited(&self) -> bool {
        !self.threads.is_empty() && self.threads.iter().all(|t| t.is_exited())
    }

    /// Fetches and decodes (without executing) the next instruction of
    /// thread `idx`. Used by harnesses that must make scheduling decisions
    /// based on the upcoming instruction — e.g. the PinPlay replayer
    /// stalling a thread whose next atomic operation is out of recorded
    /// order.
    pub fn peek_insn(&self, idx: usize) -> Option<(Insn, usize)> {
        let t = self.threads.get(idx)?;
        cpu::fetch_decode(t, &self.mem).ok()
    }

    /// Counters from the interpreter fast path (block cache + TLB).
    pub fn fastpath_stats(&self) -> FastPathStats {
        let b = self.bbcache.stats();
        let (tlb_hits, tlb_misses) = self.mem.tlb_stats();
        FastPathStats {
            block_hits: b.hits,
            block_misses: b.misses,
            block_evictions: b.evictions,
            block_flushes: b.flushes,
            tlb_hits,
            tlb_misses,
            insns: self.global_icount,
            mat: self.mem.materialize_stats(),
        }
    }

    /// Evicts blocks overlapping pages dirtied by self-modifying code and
    /// drops every thread's block cursor. Called before serving each step
    /// from the cache, so writes from the previous instruction, from
    /// syscall side effects, or from the harness between `run` calls are
    /// all re-decoded before anything executes over them.
    fn drain_smc(&mut self) {
        if self.mem.has_dirty_code() {
            for base in self.mem.take_dirty_code() {
                self.bbcache.evict_page(base);
            }
            for c in &mut self.cursors {
                c.valid = false;
            }
        }
    }

    /// Executes up to `max` instructions on thread `idx`, serving the
    /// straight-line remainder of the current cached block in one call so
    /// the per-step dispatch overhead amortises over the block. Exposed so
    /// external harnesses (the PinPlay replayer, simulators) can impose
    /// their own schedule.
    ///
    /// Semantics are identical to stepping one instruction at a time
    /// (which is what every call does with the block cache off): every
    /// instruction retires individually (observer callbacks, cycle
    /// accounting, graceful-exit counters, PcCount tracking), and the
    /// batch ends at block boundaries, taken branches, syscalls, markers,
    /// faults, observer stop requests and writes to cached code pages.
    /// With `stop_before_atomic` set it also ends *before* any atomic
    /// instruction but its first, so a caller that orders atomics only has
    /// to inspect the instruction a batch starts on. Returns how many
    /// instructions were attempted (a faulting attempt counts; a thread
    /// that is not runnable attempts none) and the last attempt's result.
    pub fn step_thread(
        &mut self,
        idx: usize,
        max: u64,
        stop_before_atomic: bool,
    ) -> (u64, ThreadStep) {
        if idx >= self.threads.len() || !self.threads[idx].is_runnable() {
            return (0, ThreadStep::NotRunnable);
        }
        let use_cache = self.cfg.block_cache;
        self.drain_smc();
        if use_cache {
            if self.cursors.len() < self.threads.len() {
                self.cursors
                    .resize(self.threads.len(), BlockCursor::default());
            }
            // Any map/unmap/protect since the last step invalidates every
            // cached block (lazily, via the generation).
            let layout = self.mem.layout_epoch();
            if layout != self.seen_layout {
                self.seen_layout = layout;
                self.bbcache.flush();
                for c in &mut self.cursors {
                    c.valid = false;
                }
            }
        }
        let Machine {
            mem,
            threads,
            obs,
            hw,
            bbcache,
            cursors,
            stop_conditions,
            pc_counters,
            global_icount,
            cycle,
            ..
        } = self;
        let t = &mut threads[idx];
        let pre_rip = t.regs.rip;

        // Fast path: position a cursor on the next pre-decoded
        // instruction — the thread's own cursor if it is still walking a
        // block, else by block lookup (building on miss). Falls back to
        // the fetch+decode interpreter when the instruction can't be
        // decoded (so faults are reproduced exactly by the slow path).
        let mut cached: Option<(usize, u64, usize)> = None;
        if use_cache {
            let cur = &cursors[idx];
            if cur.valid
                && cur.expected_rip == pre_rip
                && bbcache
                    .insn_at(cur.slot, cur.block_start, cur.pos)
                    .is_some()
            {
                let (slot, start, pos) = (cur.slot, cur.block_start, cur.pos);
                bbcache.count_hit();
                cached = Some((slot, start, pos));
            } else if let Some(slot) = match bbcache.lookup(pre_rip) {
                Some((slot, _)) => Some(slot),
                None => bbcache.build(mem, pre_rip),
            } {
                cached = Some((slot, pre_rip, 0));
            }
        }

        let mut attempts = 0u64;
        let mut exit_fired = false;
        let result = if let Some((slot, block_start, start_pos)) = cached {
            // Hold the block for the whole batch: nothing below can
            // invalidate it — evictions and flushes only happen in the
            // prologue above, and a write to cached code ends the batch.
            let block = bbcache.block_at(slot).expect("cursor validated the block");
            let mut pos = start_pos;
            // Hits beyond the first instruction (already counted above).
            let mut extra_hits = 0u64;
            let step = loop {
                let (insn, len) = block.insns[pos];
                let len = len as usize;
                let rip = t.regs.rip;
                let env = StepEnv { tsc: *cycle };
                let mut hobs = HwObs {
                    inner: &mut *obs,
                    hw,
                    extra_cycles: 0,
                };
                let effect = cpu::exec(t, mem, insn, len, env, &mut hobs);
                let extra = hobs.extra_cycles;
                attempts += 1;

                let (retired, step, insn_cost) = classify(effect);
                if retired {
                    let cost = insn_cost + extra;
                    t.icount += 1;
                    t.cycles += cost;
                    *global_icount += 1;
                    *cycle += cost;
                    // Graceful-exit counter: fires once the armed target
                    // is hit.
                    if t.exit_counter.retire() {
                        t.state = ThreadState::Exited(0);
                        obs.on_thread_exit(t.tid, 0);
                        exit_fired = true;
                        cursors[idx].valid = false;
                        break step;
                    }
                    // Track PcCount stop-condition counters.
                    for (i, c) in stop_conditions.iter().enumerate() {
                        if let StopWhen::PcCount { pc, .. } = c {
                            if *pc == rip {
                                pc_counters[i] += 1;
                            }
                        }
                    }
                }
                // Advance along the straight line; any deviation (taken
                // branch, syscall, fault rewind) drops the cursor and
                // ends the batch.
                if !(matches!(effect, Effect::Normal | Effect::Marker(..))
                    && t.regs.rip == rip.wrapping_add(len as u64))
                {
                    cursors[idx].valid = false;
                    break step;
                }
                pos += 1;
                // A marker ends the batch so `StopWhen::Marker` sees it
                // as the last step.
                if attempts >= max
                    || pos >= block.insns.len()
                    || matches!(effect, Effect::Marker(..))
                    || (stop_before_atomic && block.insns[pos].0.is_atomic())
                    || mem.has_dirty_code()
                    || obs.wants_stop()
                {
                    cursors[idx] = BlockCursor {
                        valid: true,
                        slot,
                        block_start,
                        pos,
                        expected_rip: t.regs.rip,
                    };
                    break step;
                }
                extra_hits += 1;
            };
            bbcache.add_hits(extra_hits);
            step
        } else {
            // Slow path: fetch + decode + execute one instruction.
            let env = StepEnv { tsc: *cycle };
            let mut hobs = HwObs {
                inner: &mut *obs,
                hw,
                extra_cycles: 0,
            };
            let effect = cpu::step(t, mem, env, &mut hobs);
            let extra = hobs.extra_cycles;
            attempts = 1;
            if use_cache {
                cursors[idx].valid = false;
            }
            let (retired, step, insn_cost) = classify(effect);
            if retired {
                let cost = insn_cost + extra;
                t.icount += 1;
                t.cycles += cost;
                *global_icount += 1;
                *cycle += cost;
                if t.exit_counter.retire() {
                    t.state = ThreadState::Exited(0);
                    obs.on_thread_exit(t.tid, 0);
                    exit_fired = true;
                } else {
                    for (i, c) in stop_conditions.iter().enumerate() {
                        if let StopWhen::PcCount { pc, .. } = c {
                            if *pc == pre_rip {
                                pc_counters[i] += 1;
                            }
                        }
                    }
                }
            }
            step
        };
        if !exit_fired && matches!(result, ThreadStep::SyscallRetired) {
            self.service_syscall(idx);
        }
        (attempts, result)
    }

    fn service_syscall(&mut self, idx: usize) {
        let tid = self.threads[idx].tid;
        let nr = self.threads[idx].regs.read(elfie_isa::Reg::Rax);
        let args = [
            self.threads[idx].regs.read(elfie_isa::Reg::Rdi),
            self.threads[idx].regs.read(elfie_isa::Reg::Rsi),
            self.threads[idx].regs.read(elfie_isa::Reg::Rdx),
            self.threads[idx].regs.read(elfie_isa::Reg::R10),
            self.threads[idx].regs.read(elfie_isa::Reg::R8),
            self.threads[idx].regs.read(elfie_isa::Reg::R9),
        ];
        self.obs.on_syscall(tid, nr, &args);

        // LIVE_THREADS is machine-level state the kernel cannot see; it is
        // never logged/injected, so service it before any interposer.
        if nr == elfie_isa_live_threads() {
            let live = self.threads.iter().filter(|t| !t.is_exited()).count() as u64;
            self.threads[idx].regs.write(elfie_isa::Reg::Rax, live);
            self.obs.on_syscall_ret(tid, nr, live, &[]);
            return;
        }

        if let Some(ip) = self.interposer.as_mut() {
            match ip.on_syscall(tid, nr, args, &mut self.mem) {
                SyscallAction::Skip { ret, writes } => {
                    for (addr, bytes) in &writes {
                        // Injection ignores page protections, as PinPlay
                        // does when reproducing side effects.
                        let _ = self.mem.write_bytes_unchecked(*addr, bytes);
                    }
                    self.threads[idx].regs.write(elfie_isa::Reg::Rax, ret);
                    self.obs.on_syscall_ret(tid, nr, ret, &writes);
                    return;
                }
                SyscallAction::PassThrough => {}
            }
        }

        let now_ns = self.now_ns();
        let Machine {
            mem,
            threads,
            kernel,
            ..
        } = self;
        let outcome = kernel.handle(&mut threads[idx], mem, now_ns);
        let mut ret = outcome.ret;
        match outcome.control {
            Control::Normal => {}
            Control::ThreadExit(code) => {
                self.threads[idx].state = ThreadState::Exited(code);
                self.obs.on_thread_exit(tid, code);
            }
            Control::ProcessExit(code) => {
                self.exit_code = code;
                for t in &mut self.threads {
                    if !t.is_exited() {
                        let id = t.tid;
                        t.state = ThreadState::Exited(code);
                        self.obs.on_thread_exit(id, code);
                    }
                }
            }
            Control::Spawn(regs) => {
                let child = self.threads.len() as u32;
                self.threads.push(Thread::new(child, *regs));
                ret = child as u64;
                self.obs.on_thread_start(tid, child);
            }
            Control::Yield => {
                self.sched_next = self.sched_next.wrapping_add(1);
            }
            Control::FutexWait(addr) => {
                self.threads[idx].state = ThreadState::FutexWait(addr);
            }
            Control::FutexWake { addr, count } => {
                let mut woken = 0u64;
                for t in &mut self.threads {
                    if woken >= count {
                        break;
                    }
                    if t.state == ThreadState::FutexWait(addr) {
                        t.state = ThreadState::Runnable;
                        woken += 1;
                    }
                }
                ret = woken;
            }
            Control::ArmExitCounter(target) => {
                self.threads[idx].exit_counter.arm(target);
            }
        }
        self.threads[idx].regs.write(elfie_isa::Reg::Rax, ret);
        self.obs.on_syscall_ret(tid, nr, ret, &outcome.writes);
    }

    fn check_stop(&self, idx_tid: u32, last: ThreadStep) -> Option<usize> {
        for (i, c) in self.stop_conditions.iter().enumerate() {
            let hit = match *c {
                StopWhen::GlobalInsns(n) => self.global_icount >= n,
                StopWhen::ThreadInsns(tid, n) => self
                    .threads
                    .get(tid as usize)
                    .map(|t| t.icount >= n)
                    .unwrap_or(false),
                StopWhen::PcCount { count, .. } => self.pc_counters[i] >= count,
                StopWhen::Marker(kind) => {
                    matches!(last, ThreadStep::Marker(k, _) if k == kind)
                }
            };
            let _ = idx_tid;
            if hit {
                return Some(i);
            }
        }
        None
    }

    /// How many instructions thread `idx` may retire before an armed stop
    /// condition could fire: the batch bound that makes one batch stop on
    /// exactly the instruction a per-instruction check would. At least 1
    /// (a condition already met stops the run after the next
    /// instruction); `u64::MAX` when nothing bounds the thread. Markers need no
    /// bound because every batch ends after one, and another thread's
    /// instruction count cannot move while this one runs.
    fn stop_distance(&self, idx: usize) -> u64 {
        let mut dist = u64::MAX;
        for (i, c) in self.stop_conditions.iter().enumerate() {
            let left = match *c {
                StopWhen::GlobalInsns(n) => n.saturating_sub(self.global_icount),
                StopWhen::ThreadInsns(tid, n) if tid as usize == idx => {
                    n.saturating_sub(self.threads[idx].icount)
                }
                StopWhen::ThreadInsns(tid, n) => match self.threads.get(tid as usize) {
                    Some(t) if t.icount >= n => 0,
                    _ => continue,
                },
                StopWhen::PcCount { count, .. } => count.saturating_sub(self.pc_counters[i]),
                StopWhen::Marker(_) => continue,
            };
            dist = dist.min(left);
        }
        dist.max(1)
    }

    /// Runs the machine until every thread exits, a fault occurs, a stop
    /// condition or observer stop triggers, or `fuel` instructions retire.
    ///
    /// `PcCount` hit counts carry across calls while
    /// [`Machine::stop_conditions`] is unchanged, and restart from zero
    /// when it changes.
    pub fn run(&mut self, fuel: u64) -> RunSummary {
        if self.pc_counted != self.stop_conditions {
            self.pc_counted.clone_from(&self.stop_conditions);
            self.pc_counters.clear();
            self.pc_counters.resize(self.stop_conditions.len(), 0);
        }
        let start_insns = self.global_icount;
        let start_cycles = self.cycle;
        let mut budget = fuel;
        let finish = |m: &Machine<O>, reason: ExitReason| RunSummary {
            reason,
            insns: m.global_icount - start_insns,
            cycles: m.cycle - start_cycles,
        };

        loop {
            if self.all_exited() {
                return finish(self, ExitReason::AllExited(self.exit_code));
            }
            // Pick the next runnable thread round-robin.
            let n = self.threads.len();
            let mut chosen = None;
            for off in 0..n {
                let idx = (self.sched_next + off) % n;
                if self.threads[idx].is_runnable() {
                    chosen = Some(idx);
                    break;
                }
            }
            let idx = match chosen {
                Some(i) => i,
                None => return finish(self, ExitReason::Deadlock),
            };
            // Jittered quantum: [quantum/2, 3*quantum/2).
            let q = self.cfg.quantum;
            let mut slice_left = (q / 2 + xorshift(&mut self.rng) % q.max(1)).max(1);
            while slice_left > 0 {
                if budget == 0 {
                    return finish(self, ExitReason::FuelExhausted);
                }
                let tid = self.threads[idx].tid;
                let max = slice_left.min(budget).min(self.stop_distance(idx));
                let (ran, step) = self.step_thread(idx, max, false);
                budget -= ran;
                slice_left -= ran;
                match step {
                    ThreadStep::Fault(fault) => {
                        return finish(self, ExitReason::Fault { tid, fault });
                    }
                    ThreadStep::NotRunnable => break,
                    _ => {}
                }
                if let Some(i) = self.check_stop(tid, step) {
                    return finish(self, ExitReason::StopCondition(i));
                }
                if self.obs.wants_stop() {
                    return finish(self, ExitReason::ObserverStop);
                }
                if !self.threads[idx].is_runnable() {
                    break;
                }
            }
            self.sched_next = (idx + 1) % self.threads.len().max(1);
        }
    }
}

impl<O: Observer> std::fmt::Debug for Machine<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("threads", &self.threads.len())
            .field("global_icount", &self.global_icount)
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elfie_isa::assemble;

    fn machine(src: &str) -> Machine {
        let prog = assemble(src).expect("assembles");
        let mut m = Machine::new(MachineConfig::default());
        m.load_program(&prog);
        m
    }

    const EXIT0: &str = "\n mov rax, 60\n mov rdi, 0\n syscall\n";

    #[test]
    fn simple_program_exits() {
        let mut m = machine(&format!(".org 0x400000\nstart:\n mov rbx, 5{EXIT0}"));
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        assert!(s.insns >= 4);
        assert!(s.cycles >= s.insns);
    }

    #[test]
    fn exit_code_propagates() {
        let mut m = machine(".org 0x400000\nstart:\n mov rax, 231\n mov rdi, 7\n syscall\n");
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::AllExited(7));
    }

    #[test]
    fn hello_world_stdout() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rax, 1          ; write
                mov rdi, 1          ; stdout
                mov rsi, msg
                mov rdx, 6
                syscall
                mov rax, 231
                mov rdi, 0
                syscall
            msg: .asciz "hello\n"
            "#,
        );
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        assert_eq!(m.kernel.stdout, b"hello\n");
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = machine(".org 0x400000\nstart: jmp start\n");
        let s = m.run(100);
        assert_eq!(s.reason, ExitReason::FuelExhausted);
        assert_eq!(s.insns, 100);
    }

    #[test]
    fn fault_reported_with_thread() {
        let mut m = machine(".org 0x400000\nstart:\n mov rax, 0\n mov rbx, [rax]\n");
        let s = m.run(100);
        match s.reason {
            ExitReason::Fault {
                tid: 0,
                fault: Fault::Mem(_),
            } => {}
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn clone_creates_running_thread() {
        // Parent spawns a child that increments a counter and exits;
        // parent spins until the counter changes, then exits.
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rax, 56             ; clone
                mov rdi, 0
                mov rsi, 0x7f00100000   ; child stack (mapped below)
                syscall
                cmp rax, 0
                je child
            wait:
                mov rcx, [flag]
                cmp rcx, 1
                jne wait
                mov rax, 231
                mov rdi, 0
                syscall
            child:
                mov rdx, 1
                mov rbx, flag
                mov [rbx], rdx
                mov rax, 60
                mov rdi, 0
                syscall
            .align 8
            flag: .quad 0
            "#,
        );
        m.mem
            .map_range(0x7f000f0000, 0x7f00100000, Perm::RW)
            .unwrap();
        let s = m.run(1_000_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        assert_eq!(m.threads.len(), 2);
        assert!(m.threads[1].icount > 0, "child ran");
    }

    #[test]
    fn scheduling_varies_with_seed() {
        let src = r#"
            .org 0x400000
            start:
                mov rax, 56
                mov rdi, 0
                mov rsi, 0x7f00100000
                syscall
                cmp rax, 0
                je child
                mov rcx, 2000
            ploop:
                sub rcx, 1
                cmp rcx, 0
                jne ploop
                mov rax, 60
                mov rdi, 0
                syscall
            child:
                mov rcx, 2000
            cloop:
                sub rcx, 1
                cmp rcx, 0
                jne cloop
                mov rax, 60
                mov rdi, 0
                syscall
        "#;
        let trace = |seed: u64| {
            let prog = assemble(src).unwrap();
            let mut cfg = MachineConfig {
                seed,
                ..MachineConfig::default()
            };
            cfg.stack_randomize = false;
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.mem
                .map_range(0x7f000f0000, 0x7f00100000, Perm::RW)
                .unwrap();
            // Record (tid at each scheduling decision) indirectly via final
            // per-thread cycle counts.
            m.run(1_000_000);
            (m.threads[0].cycles, m.threads[1].cycles)
        };
        // Different seeds must give different interleavings somewhere;
        // cycle totals are deterministic per seed.
        assert_eq!(trace(3), trace(3), "same seed reproduces");
    }

    #[test]
    fn stop_condition_global_insns() {
        let mut m = machine(".org 0x400000\nstart: jmp start\n");
        m.stop_conditions.push(StopWhen::GlobalInsns(50));
        let s = m.run(10_000);
        assert_eq!(s.reason, ExitReason::StopCondition(0));
        assert_eq!(m.global_icount(), 50);
    }

    #[test]
    fn stop_condition_marker() {
        let mut m = machine(".org 0x400000\nstart:\n nop\n marker sniper, 1\n jmp start\n");
        m.stop_conditions.push(StopWhen::Marker(MarkerKind::Sniper));
        let s = m.run(10_000);
        assert_eq!(s.reason, ExitReason::StopCondition(0));
        assert_eq!(m.global_icount(), 2);
    }

    #[test]
    fn stop_condition_pc_count() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rcx, 0
            loop:
                add rcx, 1
                jmp loop
            "#,
        );
        // `add rcx, 1` lives at 0x400000 + 10.
        m.stop_conditions.push(StopWhen::PcCount {
            pc: 0x40000a,
            count: 5,
        });
        let s = m.run(10_000);
        assert_eq!(s.reason, ExitReason::StopCondition(0));
        assert_eq!(m.threads[0].regs.read(elfie_isa::Reg::Rcx), 5);
    }

    const COUNT_LOOP: &str = "
        .org 0x400000
        start:
            mov rcx, 0
        loop:
            add rcx, 1
            jmp loop
    ";

    #[test]
    fn a_replaced_pc_count_counts_from_zero() {
        let mut m = machine(COUNT_LOOP);
        m.stop_conditions = vec![StopWhen::PcCount {
            pc: 0x40000a,
            count: 5,
        }];
        assert_eq!(m.run(10_000).reason, ExitReason::StopCondition(0));
        m.stop_conditions = vec![StopWhen::PcCount {
            pc: 0x40000a,
            count: 3,
        }];
        assert_eq!(m.run(10_000).reason, ExitReason::StopCondition(0));
        assert_eq!(m.threads[0].regs.read(elfie_isa::Reg::Rcx), 5 + 3);
    }

    #[test]
    fn an_unchanged_pc_count_carries_across_runs() {
        let mut m = machine(COUNT_LOOP);
        m.stop_conditions = vec![StopWhen::PcCount {
            pc: 0x40000a,
            count: 5,
        }];
        // mov, add, jmp, add: two hits counted before the fuel runs out.
        assert_eq!(m.run(4).reason, ExitReason::FuelExhausted);
        assert_eq!(m.threads[0].regs.read(elfie_isa::Reg::Rcx), 2);
        assert_eq!(m.run(10_000).reason, ExitReason::StopCondition(0));
        assert_eq!(m.threads[0].regs.read(elfie_isa::Reg::Rcx), 5);
    }

    #[test]
    fn graceful_exit_via_perf_counter() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rax, 10000     ; PERF_ARM_EXIT
                mov rdi, 20
                syscall
            spin:
                jmp spin
            "#,
        );
        let s = m.run(10_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        // 3 startup instructions + 20 counted after arming.
        assert_eq!(m.threads[0].icount, 23);
    }

    #[test]
    fn interposer_skips_syscall() {
        struct SkipAll;
        impl SyscallInterposer for SkipAll {
            fn on_syscall(
                &mut self,
                _tid: u32,
                nr: u64,
                _args: [u64; 6],
                _mem: &mut Memory,
            ) -> SyscallAction {
                if nr == 96 {
                    // Inject a fixed gettimeofday result.
                    SyscallAction::Skip {
                        ret: 0,
                        writes: vec![(0x600000, vec![42u8; 8])],
                    }
                } else {
                    SyscallAction::PassThrough
                }
            }
        }
        let prog = assemble(
            r#"
            .org 0x400000
            start:
                mov rax, 96
                mov rdi, 0x600000
                mov rsi, 0
                syscall
                mov rax, 231
                mov rdi, 0
                syscall
            .org 0x600000
            tv: .zero 16
            "#,
        )
        .unwrap();
        let mut m = Machine::new(MachineConfig::default());
        m.load_program(&prog);
        m.set_interposer(Box::new(SkipAll));
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        assert_eq!(m.mem.read_u8(0x600000).unwrap(), 42, "injected side effect");
    }

    #[test]
    fn futex_wait_wake() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rax, 56
                mov rdi, 0
                mov rsi, 0x7f00100000
                syscall
                cmp rax, 0
                je child
                ; parent: futex wait on word (value 0)
                mov rax, 202
                mov rdi, word
                mov rsi, 0          ; FUTEX_WAIT
                mov rdx, 0          ; expected value
                syscall
                mov rax, 231
                mov rdi, 0
                syscall
            child:
                mov rbx, word
                mov rdx, 1
                mov [rbx], rdx
                mov rax, 202
                mov rdi, word
                mov rsi, 1          ; FUTEX_WAKE
                mov rdx, 1
                syscall
                mov rax, 60
                mov rdi, 0
                syscall
            .align 8
            word: .quad 0
            "#,
        );
        m.mem
            .map_range(0x7f000f0000, 0x7f00100000, Perm::RW)
            .unwrap();
        let s = m.run(1_000_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
    }

    #[test]
    fn stack_randomization_changes_rsp() {
        let prog = assemble(&format!(".org 0x400000\nstart: nop{EXIT0}")).unwrap();
        let rsp_for = |seed| {
            let cfg = MachineConfig {
                seed,
                ..MachineConfig::default()
            };
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.threads[0].regs.rsp()
        };
        assert_eq!(rsp_for(5), rsp_for(5));
        assert_ne!(rsp_for(5), rsp_for(6), "different seeds slide the stack");
    }

    #[test]
    fn deadlock_detected() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rax, 202
                mov rdi, word
                mov rsi, 0
                mov rdx, 0
                syscall
            .align 8
            word: .quad 0
            "#,
        );
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::Deadlock);
    }

    #[test]
    fn cycles_exceed_insns_with_memory_traffic() {
        let mut m = machine(
            r#"
            .org 0x400000
            start:
                mov rcx, 0
                mov rbx, 0x2000000
            loop:
                mov rax, 12       ; brk to map heap? use direct mmap'd region instead
                add rcx, 1
                cmp rcx, 100
                jne loop
                mov rax, 231
                mov rdi, 0
                syscall
            "#,
        );
        let s = m.run(100_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        assert!(s.cycles > s.insns);
    }
}
