//! The PinPlay logger: captures a region of a program's execution into a
//! [`Pinball`].
//!
//! The logger runs the test program on the guest machine with an
//! instrumentation observer attached (the Pin analogy), fast-forwards to
//! the region trigger, snapshots architectural and memory state, then logs
//! everything the region needs for constrained replay: system-call side
//! effects, the order of atomic operations, and the set of pages touched.
//!
//! [`Logger::capture_all`] logs many regions of one program in one pass:
//! it visits them in start order on one machine, and after each region
//! resets the observer and stop conditions and fast-forwards on to the
//! next trigger instead of booting again. A region it cannot reproduce
//! exactly that way gets a machine of its own, so every pinball is
//! byte-identical to the one [`Logger::capture`] of that region alone
//! would produce.
//!
//! The paper's logger switches map directly:
//!
//! * `-log:whole_image` → [`LoggerConfig::log_whole_image`] — record *all*
//!   mapped pages (including never-touched static data) in the image;
//! * `-log:pages_early` → [`LoggerConfig::pages_early`] — place touched
//!   pages in the initial memory image instead of lazy injection records;
//! * `-log:fat` → [`LoggerConfig::fat`] — both at once. All pinballs used
//!   for ELFie generation must be fat.

use elfie_isa::{page_base, Insn, MarkerKind, Program, RegFile};
use elfie_pinball::{
    MemoryImage, PageRecord, Pinball, PinballMeta, RaceLog, RegImage, RegionInfo, RegionTrigger,
    SyncPoint, SyscallEffect, ThreadRecord,
};
use elfie_vm::{ExitReason, Machine, MachineConfig, Observer, StopWhen};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// ISA identifier stamped into pinball metadata.
pub const ARCH_ID: &str = "elfie-isa-v1";

/// Logger configuration.
#[derive(Debug, Clone)]
pub struct LoggerConfig {
    /// Pinball name.
    pub name: String,
    /// Region start trigger.
    pub trigger: RegionTrigger,
    /// Region length in global retired instructions.
    pub length: u64,
    /// `-log:whole_image`: capture every mapped page, not just used ones.
    pub log_whole_image: bool,
    /// `-log:pages_early`: pre-load used pages into the initial image.
    pub pages_early: bool,
    /// Warm-up instruction count recorded in the region descriptor.
    pub warmup: u64,
    /// SimPoint weight recorded in the region descriptor.
    pub weight: f64,
    /// Slice index recorded in the region descriptor.
    pub slice_index: u64,
    /// Machine configuration for the logging run.
    pub machine: MachineConfig,
}

impl LoggerConfig {
    /// A fat-pinball configuration (`-log:fat`): the kind required for
    /// ELFie generation.
    pub fn fat(name: &str, trigger: RegionTrigger, length: u64) -> LoggerConfig {
        LoggerConfig {
            name: name.to_string(),
            trigger,
            length,
            log_whole_image: true,
            pages_early: true,
            warmup: 0,
            weight: 1.0,
            slice_index: 0,
            machine: MachineConfig::default(),
        }
    }

    /// A regular (lazy-injection) pinball configuration.
    pub fn regular(name: &str, trigger: RegionTrigger, length: u64) -> LoggerConfig {
        LoggerConfig {
            log_whole_image: false,
            pages_early: false,
            ..LoggerConfig::fat(name, trigger, length)
        }
    }

    /// True when this configuration produces a fat pinball.
    pub fn is_fat(&self) -> bool {
        self.log_whole_image && self.pages_early
    }
}

/// Errors from a capture run.
#[derive(Debug, Clone)]
pub enum CaptureError {
    /// The program ended (or faulted) before the region trigger fired.
    TriggerNotReached(String),
    /// The program faulted inside the region.
    ProgramFault(String),
    /// No live threads at the region start.
    NoLiveThreads,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::TriggerNotReached(why) => {
                write!(f, "region trigger not reached: {why}")
            }
            CaptureError::ProgramFault(why) => write!(f, "program faulted in region: {why}"),
            CaptureError::NoLiveThreads => write!(f, "no live threads at region start"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// The logging observer: counts instructions, tracks touched pages,
/// records syscall side effects and the atomic-operation order.
#[derive(Debug, Default)]
pub struct LogObserver {
    active: bool,
    region_insns: BTreeMap<u32, u64>,
    pending_sys: Option<(u32, u64, [u64; 6])>,
    syscalls: BTreeMap<u32, Vec<SyscallEffect>>,
    atomic_seq: BTreeMap<u32, u64>,
    races: Vec<SyncPoint>,
    pending_atomic: Option<u32>,
    touched_pages: BTreeSet<u64>,
    spawned: Vec<u32>,
}

impl LogObserver {
    fn new() -> LogObserver {
        LogObserver::default()
    }
}

impl Observer for LogObserver {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, len: usize) {
        if !self.active {
            return;
        }
        *self.region_insns.entry(tid).or_insert(0) += 1;
        self.touched_pages.insert(page_base(rip));
        self.touched_pages.insert(page_base(rip + len as u64 - 1));
        if insn.is_atomic() {
            self.pending_atomic = Some(tid);
        }
    }

    fn on_mem_read(&mut self, tid: u32, addr: u64, size: u64) {
        if !self.active {
            return;
        }
        self.touched_pages.insert(page_base(addr));
        self.touched_pages.insert(page_base(addr + size.max(1) - 1));
        if self.pending_atomic == Some(tid) {
            let seq = self.atomic_seq.entry(tid).or_insert(0);
            self.races.push(SyncPoint {
                tid,
                seq: *seq,
                addr,
            });
            *seq += 1;
            self.pending_atomic = None;
        }
    }

    fn on_mem_write(&mut self, _tid: u32, addr: u64, size: u64) {
        if !self.active {
            return;
        }
        self.touched_pages.insert(page_base(addr));
        self.touched_pages.insert(page_base(addr + size.max(1) - 1));
    }

    fn on_syscall(&mut self, tid: u32, nr: u64, args: &[u64; 6]) {
        if self.active {
            self.pending_sys = Some((tid, nr, *args));
        }
    }

    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: u64, writes: &[(u64, Vec<u8>)]) {
        let _ = tid;
        if !self.active {
            return;
        }
        if let Some((ptid, pnr, args)) = self.pending_sys.take() {
            debug_assert_eq!((ptid, pnr), (tid, nr), "syscall enter/exit pairing");
            self.syscalls.entry(tid).or_default().push(SyscallEffect {
                nr,
                args,
                ret,
                writes: writes.to_vec(),
            });
        }
    }

    fn on_thread_start(&mut self, _parent: u32, child: u32) {
        if self.active {
            self.spawned.push(child);
        }
    }

    fn on_marker(&mut self, _tid: u32, _kind: MarkerKind, _tag: u32) {}
}

/// The PinPlay logger.
#[derive(Debug, Clone)]
pub struct Logger {
    cfg: LoggerConfig,
}

impl Logger {
    /// Creates a logger with the given configuration.
    pub fn new(cfg: LoggerConfig) -> Logger {
        Logger { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LoggerConfig {
        &self.cfg
    }

    /// Runs `prog` under instrumentation and captures the configured
    /// region. `setup` can pre-populate the machine (guest files, extra
    /// mappings) before execution starts. This is the one-region case of
    /// [`Logger::capture_all`].
    ///
    /// # Errors
    ///
    /// Returns [`CaptureError`] when the trigger is never reached or the
    /// program faults inside the region.
    pub fn capture(
        &self,
        prog: &Program,
        setup: impl Fn(&mut Machine<LogObserver>),
    ) -> Result<Pinball, CaptureError> {
        Logger::capture_all(std::slice::from_ref(&self.cfg), prog, setup)
            .pop()
            .expect("one result per configuration")
    }

    /// Captures every configured region of `prog`, returning one result
    /// per configuration in the order given. Each result is exactly what
    /// [`Logger::capture`] of that configuration alone returns.
    ///
    /// Regions are visited in increasing start order on one logging
    /// machine, which fast-forwards from each region's end to the next
    /// region's trigger instead of from program start. A region continues
    /// on that machine only while doing so cannot change its pinball:
    /// its trigger is a global instruction count at or after the
    /// machine's, the machine has only ever had one thread (a split
    /// `run()` moves the scheduler's quantum draws, which can only pick a
    /// different thread when there is one to pick), it runs under the
    /// same machine configuration, and no region on it failed. Any other
    /// region — a warm-up reaching back into the previous region, a
    /// `PcCount` trigger, a multi-threaded program — gets a machine of
    /// its own.
    pub fn capture_all(
        cfgs: &[LoggerConfig],
        prog: &Program,
        setup: impl Fn(&mut Machine<LogObserver>),
    ) -> Vec<Result<Pinball, CaptureError>> {
        let boot = |cfg: &LoggerConfig| {
            let mut m = Machine::with_observer(cfg.machine.clone(), LogObserver::new());
            m.load_program(prog);
            setup(&mut m);
            m
        };
        let mut order: Vec<usize> = (0..cfgs.len()).collect();
        order.sort_by_key(|&i| trigger_icount(cfgs[i].trigger).unwrap_or(u64::MAX));
        let mut results: Vec<Option<Result<Pinball, CaptureError>>> =
            cfgs.iter().map(|_| None).collect();
        // The machine the next region may continue on: always one that
        // has only ever had one thread and on which no region failed.
        let mut shared: Option<Machine<LogObserver>> = None;
        for i in order {
            let cfg = &cfgs[i];
            let result = match shared.take() {
                Some(mut m) if continues(&m, cfg) => match log_region(&mut m, cfg) {
                    Ok(pb) if m.threads.len() == 1 => {
                        shared = Some(m);
                        Ok(pb)
                    }
                    // A failure, or a thread spawned after an earlier
                    // region split the run: only a machine of its own
                    // reproduces the region.
                    _ => log_region(&mut boot(cfg), cfg),
                },
                other => {
                    shared = other;
                    let mut m = boot(cfg);
                    let result = log_region(&mut m, cfg);
                    if shared.is_none() && result.is_ok() && m.threads.len() == 1 {
                        shared = Some(m);
                    }
                    result
                }
            };
            results[i] = Some(result);
        }
        results
            .into_iter()
            .map(|r| r.expect("every region visited"))
            .collect()
    }
}

/// The global instruction count a trigger fires at, when it is one.
fn trigger_icount(trigger: RegionTrigger) -> Option<u64> {
    match trigger {
        RegionTrigger::ProgramStart => Some(0),
        RegionTrigger::GlobalIcount(n) => Some(n),
        RegionTrigger::PcCount { .. } => None,
    }
}

/// True when `cfg`'s region can be logged on the single-threaded `m`,
/// which earlier regions left where they ended, with the same outcome as
/// on a fresh machine.
fn continues(m: &Machine<LogObserver>, cfg: &LoggerConfig) -> bool {
    trigger_icount(cfg.trigger).is_some_and(|n| n >= m.global_icount())
        && m.config().fingerprint() == cfg.machine.fingerprint()
}

/// Logs `cfg`'s region on `m`: fast-forward to the trigger, snapshot,
/// log, assemble. Leaves `m` with a fresh observer and no stop
/// conditions, so a later region can continue on it.
fn log_region(m: &mut Machine<LogObserver>, cfg: &LoggerConfig) -> Result<Pinball, CaptureError> {
    // Phase 1: fast-forward to the region trigger. A machine an earlier
    // region left exactly at the trigger is there already.
    let ff = match cfg.trigger {
        RegionTrigger::ProgramStart => None,
        RegionTrigger::GlobalIcount(n) if n > 0 && n == m.global_icount() => None,
        RegionTrigger::GlobalIcount(n) => Some(StopWhen::GlobalInsns(n)),
        RegionTrigger::PcCount { pc, count } => Some(StopWhen::PcCount { pc, count }),
    };
    if let Some(stop) = ff {
        m.stop_conditions.push(stop);
        let s = m.run(u64::MAX / 2);
        if !matches!(s.reason, ExitReason::StopCondition(_)) {
            return Err(CaptureError::TriggerNotReached(format!("{:?}", s.reason)));
        }
        m.stop_conditions.clear();
    }

    // Phase 2: snapshot at region start.
    let live: Vec<(u32, RegFile, u64)> = m
        .threads
        .iter()
        .filter(|t| !t.is_exited())
        .map(|t| (t.tid, t.regs.clone(), t.icount))
        .collect();
    if live.is_empty() {
        return Err(CaptureError::NoLiveThreads);
    }
    let start_pages: BTreeMap<u64, PageRecord> = m
        .mem
        .pages()
        .map(|(addr, perm, data)| (addr, PageRecord::new(perm.bits(), data)))
        .collect();
    let brk = m.kernel.brk();
    let brk_start = m.kernel.brk_start();
    let cwd = m.kernel.cwd.clone();
    let start_global = m.global_icount();
    let base_icounts: BTreeMap<u32, u64> = live.iter().map(|(tid, _, ic)| (*tid, *ic)).collect();

    // Phase 3: log the region.
    m.obs.active = true;
    m.stop_conditions
        .push(StopWhen::GlobalInsns(start_global + cfg.length));
    let s = m.run(u64::MAX / 2);
    match s.reason {
        ExitReason::StopCondition(_) | ExitReason::AllExited(_) => {}
        ExitReason::Fault { tid, fault } => {
            return Err(CaptureError::ProgramFault(format!("tid {tid}: {fault}")));
        }
        other => return Err(CaptureError::ProgramFault(format!("{other:?}"))),
    }
    let region_global = s.insns;
    let obs = std::mem::take(&mut m.obs);
    m.stop_conditions.clear();

    // Phase 4: assemble the pinball.
    let mut thread_icounts: BTreeMap<u32, u64> = BTreeMap::new();
    for t in &m.threads {
        if let Some(b) = base_icounts.get(&t.tid) {
            thread_icounts.insert(t.tid, t.icount - b);
        } else if obs.spawned.contains(&t.tid) {
            // Spawned inside the region: every retired instruction
            // counts.
            thread_icounts.insert(t.tid, t.icount);
        }
    }

    let mut threads: Vec<ThreadRecord> = Vec::new();
    for (tid, regs, _) in &live {
        threads.push(ThreadRecord {
            tid: *tid,
            regs: RegImage::from(regs),
            syscalls: obs.syscalls.get(tid).cloned().unwrap_or_default(),
            spawned: false,
        });
    }
    for child in &obs.spawned {
        let regs = &m.threads[*child as usize].regs;
        threads.push(ThreadRecord {
            tid: *child,
            regs: RegImage::from(regs),
            syscalls: obs.syscalls.get(child).cloned().unwrap_or_default(),
            spawned: true,
        });
    }
    threads.sort_by_key(|t| t.tid);

    // Page sets.
    let minimal: BTreeSet<u64> = live
        .iter()
        .flat_map(|(_, regs, _)| [page_base(regs.rip), page_base(regs.rsp())])
        .collect();
    let base_set: BTreeSet<u64> = if cfg.log_whole_image {
        start_pages.keys().copied().collect()
    } else {
        minimal
            .into_iter()
            .filter(|a| start_pages.contains_key(a))
            .collect()
    };
    let zero_page = || elfie_pinball::PageArena::global().zero_page();
    let mut image = MemoryImage::new();
    let mut lazy: BTreeMap<u64, PageRecord> = BTreeMap::new();
    for &addr in &base_set {
        image.pages.insert(addr, start_pages[&addr].clone());
    }
    for &addr in &obs.touched_pages {
        if base_set.contains(&addr) {
            continue;
        }
        let record = start_pages
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| PageRecord::from_data(3, zero_page()));
        if cfg.pages_early {
            image.pages.insert(addr, record);
        } else {
            lazy.insert(addr, record);
        }
    }

    Ok(Pinball {
        meta: PinballMeta {
            name: cfg.name.clone(),
            fat: cfg.is_fat(),
            arch: ARCH_ID.to_string(),
            brk,
            brk_start,
            cwd,
        },
        region: RegionInfo {
            name: format!("{}.{}", cfg.name, cfg.slice_index),
            trigger: cfg.trigger,
            length: region_global,
            thread_icounts,
            warmup: cfg.warmup,
            weight: cfg.weight,
            slice_index: cfg.slice_index,
        },
        image,
        threads,
        races: RaceLog { order: obs.races },
        lazy_pages: lazy,
    })
}
