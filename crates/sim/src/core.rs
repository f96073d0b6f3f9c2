//! The timing core model shared by the three simulators.
//!
//! A [`TimingObserver`] attaches to any execution harness (native machine,
//! ELFie run, constrained pinball replay) and charges cycles per retired
//! instruction: issue-width base cost, branch-misprediction penalties from
//! a bimodal predictor, and memory stalls from a three-level cache + TLB
//! hierarchy with ROB-dependent latency overlap. A full-system mode
//! expands each system call into synthetic ring-0 kernel work that runs
//! through the *same* hierarchy — reproducing the user-level vs
//! full-system comparison of the paper's CoreSim case study (Table IV).

use crate::cache::{Cache, CacheParams, NextLinePrefetcher, Tlb};
use elfie_isa::{Insn, MarkerKind, U64BuildHasher};
use elfie_vm::Observer;
use std::collections::{BTreeMap, HashSet};

/// Micro-architecture parameters.
#[derive(Debug, Clone, Copy)]
pub struct CoreParams {
    /// Human-readable configuration name.
    pub name: &'static str,
    /// Nominal clock in GHz.
    pub ghz: f64,
    /// Sustained issue width (instructions per cycle).
    pub issue_width: u64,
    /// Reorder-buffer entries (drives memory-latency overlap).
    pub rob: u64,
    /// Load/store-queue entries (extra overlap for stores).
    pub lsq: u64,
    /// Branch-misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2.
    pub l2: CacheParams,
    /// Shared L3.
    pub l3: CacheParams,
    /// L2 hit latency (cycles beyond L1).
    pub l2_lat: u64,
    /// L3 hit latency.
    pub l3_lat: u64,
    /// Memory latency.
    pub mem_lat: u64,
    /// Data TLB entries (4 KiB pages).
    pub dtlb_entries: u64,
    /// TLB-miss page-walk penalty in cycles.
    pub tlb_walk: u64,
    /// Enable the next-line L3 prefetcher.
    pub prefetch: bool,
}

impl CoreParams {
    /// An Intel Nehalem-like core (the gem5 case study's smaller config).
    pub fn nehalem_like() -> CoreParams {
        CoreParams {
            name: "nehalem-like",
            ghz: 2.66,
            issue_width: 4,
            rob: 128,
            lsq: 48,
            mispredict_penalty: 17,
            l1i: CacheParams {
                size: 32 << 10,
                line: 64,
                ways: 4,
            },
            l1d: CacheParams {
                size: 32 << 10,
                line: 64,
                ways: 8,
            },
            l2: CacheParams {
                size: 256 << 10,
                line: 64,
                ways: 8,
            },
            l3: CacheParams {
                size: 8 << 20,
                line: 64,
                ways: 16,
            },
            l2_lat: 10,
            l3_lat: 38,
            mem_lat: 190,
            dtlb_entries: 64,
            tlb_walk: 30,
            prefetch: true,
        }
    }

    /// An Intel Haswell-like core: larger ROB/RF/LSQ and wider issue (the
    /// gem5 case study's "impact of increasing the size of critical
    /// resources").
    pub fn haswell_like() -> CoreParams {
        CoreParams {
            name: "haswell-like",
            ghz: 3.4,
            issue_width: 8,
            rob: 192,
            lsq: 72,
            mispredict_penalty: 15,
            l2_lat: 11,
            l3_lat: 34,
            mem_lat: 170,
            dtlb_entries: 128,
            ..CoreParams::nehalem_like()
        }
    }

    /// An Intel Gainestown-like core, 8 of which make up the Sniper
    /// multi-core configuration of the paper's Section IV-B.
    pub fn gainestown_like() -> CoreParams {
        CoreParams {
            name: "gainestown-like",
            ghz: 2.66,
            ..CoreParams::nehalem_like()
        }
    }

    /// An Intel Skylake-like core (the CoreSim detailed model of Section
    /// IV-C).
    pub fn skylake_like() -> CoreParams {
        CoreParams {
            name: "skylake-like",
            ghz: 3.2,
            issue_width: 8,
            rob: 224,
            lsq: 128,
            mispredict_penalty: 16,
            l1d: CacheParams {
                size: 32 << 10,
                line: 64,
                ways: 8,
            },
            l2: CacheParams {
                size: 1 << 20,
                line: 64,
                ways: 16,
            },
            ..CoreParams::nehalem_like()
        }
    }

    /// Memory-level-parallelism factor: bigger ROBs overlap more of the
    /// miss latency.
    fn overlap(&self) -> f64 {
        let mlp = (self.rob as f64 / 48.0).clamp(1.0, 6.0);
        1.0 / mlp
    }
}

/// When the timing model starts charging cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoiMode {
    /// Model everything from the first instruction.
    #[default]
    Always,
    /// Stay functional-only until a marker of this kind retires (the
    /// "skip the ELFie startup code" requirement).
    FromMarker(MarkerKind),
}

/// Synthetic kernel-cost model for full-system simulation.
#[derive(Debug, Clone, Copy)]
pub struct KernelModel {
    /// Ring-0 instructions charged per syscall (before per-kind scaling).
    pub base_insns: u64,
    /// Kernel data working-set size in bytes.
    pub working_set: u64,
    /// Base virtual address of kernel data (for cache/TLB modelling).
    pub data_base: u64,
    /// Base virtual address of kernel text.
    pub text_base: u64,
}

impl Default for KernelModel {
    fn default() -> Self {
        KernelModel {
            base_insns: 250,
            working_set: 192 << 10,
            data_base: 0xffff_8800_0000_0000,
            text_base: 0xffff_8000_0000_0000,
        }
    }
}

impl KernelModel {
    fn insns_for(&self, nr: u64) -> u64 {
        // Rough per-class costs, scaled from the base.
        let scale = match nr {
            0 | 1 => 2,  // read/write: copy loops
            2 => 3,      // open: path walk
            9 | 11 => 3, // mmap/munmap
            12 => 1,     // brk
            56 => 5,     // clone
            96 => 1,     // gettimeofday (vdso-ish, still kernel here)
            _ => 1,
        };
        self.base_insns * scale
    }
}

#[derive(Debug, Clone)]
struct BranchPredictor {
    table: Vec<u8>,
}

impl BranchPredictor {
    fn new() -> BranchPredictor {
        BranchPredictor {
            table: vec![1u8; 4096],
        }
    }

    fn index(pc: u64) -> usize {
        ((pc >> 1) & 0xfff) as usize
    }

    /// Predicts and updates; returns true on misprediction.
    fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let e = &mut self.table[Self::index(pc)];
        let predicted = *e >= 2;
        if taken {
            *e = (*e + 1).min(3);
        } else {
            *e = e.saturating_sub(1);
        }
        predicted != taken
    }
}

struct CoreState {
    cycles: f64,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    bp: BranchPredictor,
}

#[derive(Debug, Clone, Copy)]
struct PendingBranch {
    pc: u64,
    fallthrough: u64,
}

/// Per-thread observer state, in a `Vec` indexed by tid (tids are dense
/// thread indices).
#[derive(Debug, Clone, Copy, Default)]
struct ThreadState {
    /// The conditional branch this thread's next instruction resolves.
    pending: Option<PendingBranch>,
    /// Modelled instructions (the `SimStats::per_thread` entry).
    insns: u64,
}

/// Cycle charges derived once from [`CoreParams`]: the same f64 values
/// the per-event expressions would produce, so cycle sums are unchanged.
#[derive(Debug, Clone, Copy)]
struct Charges {
    /// `1 / issue_width`: base cost of one instruction.
    issue: f64,
    /// Instruction fetch that hits in L2 or L3 (no overlap).
    fetch_l2: f64,
    /// Data access served by L2, L3, memory (overlapped by the ROB).
    l2: f64,
    l3: f64,
    mem: f64,
    tlb_walk: f64,
    mispredict: f64,
}

impl Charges {
    fn new(p: &CoreParams) -> Charges {
        let overlap = p.overlap();
        Charges {
            issue: 1.0 / p.issue_width as f64,
            fetch_l2: p.l2_lat as f64,
            l2: p.l2_lat as f64 * overlap,
            l3: p.l3_lat as f64 * overlap,
            mem: p.mem_lat as f64 * overlap,
            tlb_walk: p.tlb_walk as f64,
            mispredict: p.mispredict_penalty as f64,
        }
    }
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// User (ring-3) instructions modelled.
    pub user_insns: u64,
    /// Kernel (ring-0) instructions modelled (full-system only).
    pub kernel_insns: u64,
    /// Per-thread modelled instruction counts.
    pub per_thread: BTreeMap<u32, u64>,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Distinct user data cache lines touched (demand + prefetch).
    pub footprint_lines: u64,
    /// Distinct kernel data cache lines touched.
    pub kernel_footprint_lines: u64,
}

impl SimStats {
    /// Folds `other` into `self`, summing every counter and merging the
    /// per-thread map. Used by the sharded simulator to stitch per-slice
    /// statistics: the event counters are additive across consecutive
    /// slices, but the footprint fields are *per-slice distinct* counts, so
    /// the stitched footprint is the sum of per-slice cardinalities (an
    /// upper bound on the true distinct-line count — lines touched in two
    /// slices are counted twice).
    pub fn absorb(&mut self, other: &SimStats) {
        self.user_insns = self.user_insns.saturating_add(other.user_insns);
        self.kernel_insns = self.kernel_insns.saturating_add(other.kernel_insns);
        for (&tid, &n) in &other.per_thread {
            let e = self.per_thread.entry(tid).or_insert(0);
            *e = e.saturating_add(n);
        }
        self.mispredicts = self.mispredicts.saturating_add(other.mispredicts);
        self.l1d_misses = self.l1d_misses.saturating_add(other.l1d_misses);
        self.l2_misses = self.l2_misses.saturating_add(other.l2_misses);
        self.l3_misses = self.l3_misses.saturating_add(other.l3_misses);
        self.dtlb_misses = self.dtlb_misses.saturating_add(other.dtlb_misses);
        self.prefetches = self.prefetches.saturating_add(other.prefetches);
        self.footprint_lines = self.footprint_lines.saturating_add(other.footprint_lines);
        self.kernel_footprint_lines = self
            .kernel_footprint_lines
            .saturating_add(other.kernel_footprint_lines);
    }
}

/// The timing observer.
pub struct TimingObserver {
    params: CoreParams,
    charges: Charges,
    /// `log2(l1d.line)`: footprint line index of an address.
    line_shift: u32,
    ncores: usize,
    cores: Vec<CoreState>,
    l3: Cache,
    pf: NextLinePrefetcher,
    kernel: Option<KernelModel>,
    roi: RoiMode,
    active: bool,
    /// Event counters; `per_thread` is filled from `threads` by
    /// [`TimingObserver::stats`].
    stats: SimStats,
    footprint: HashSet<u64, U64BuildHasher>,
    kernel_footprint: HashSet<u64, U64BuildHasher>,
    threads: Vec<ThreadState>,
    syscall_counter: u64,
}

impl TimingObserver {
    /// Creates an observer with `ncores` private L1/L2 cores sharing one
    /// L3. `kernel` enables full-system mode.
    pub fn new(
        params: CoreParams,
        ncores: usize,
        roi: RoiMode,
        kernel: Option<KernelModel>,
    ) -> Self {
        let ncores = ncores.max(1);
        let cores = (0..ncores)
            .map(|_| CoreState {
                cycles: 0.0,
                l1i: Cache::new(params.l1i),
                l1d: Cache::new(params.l1d),
                l2: Cache::new(params.l2),
                dtlb: Tlb::new(params.dtlb_entries, 4096, 4),
                bp: BranchPredictor::new(),
            })
            .collect();
        TimingObserver {
            params,
            charges: Charges::new(&params),
            line_shift: params.l1d.line.trailing_zeros(),
            ncores,
            cores,
            l3: Cache::new(params.l3),
            pf: NextLinePrefetcher::default(),
            kernel,
            roi,
            active: matches!(roi, RoiMode::Always),
            stats: SimStats::default(),
            footprint: HashSet::default(),
            kernel_footprint: HashSet::default(),
            threads: Vec::new(),
            syscall_counter: 0,
        }
    }

    fn core_of(&self, tid: u32) -> usize {
        tid as usize % self.ncores
    }

    /// True once the ROI has been reached.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Simulated time: the maximum core cycle count (cores run in
    /// parallel).
    pub fn cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).fold(0.0, f64::max) as u64
    }

    /// Total core cycles summed (serialised view).
    pub fn total_core_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).sum::<f64>() as u64
    }

    /// Simulated wall-clock nanoseconds.
    pub fn runtime_ns(&self) -> u64 {
        (self.cycles() as f64 / self.params.ghz) as u64
    }

    /// Statistics snapshot (per-thread counts and footprints folded in).
    /// A thread appears in `per_thread` once it has a modelled
    /// instruction.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.per_thread = (0u32..)
            .zip(&self.threads)
            .filter(|(_, t)| t.insns > 0)
            .map(|(tid, t)| (tid, t.insns))
            .collect();
        s.footprint_lines = self.footprint.len() as u64;
        s.kernel_footprint_lines = self.kernel_footprint.len() as u64;
        s
    }

    /// The core parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    fn data_access(&mut self, core: usize, addr: u64, kernel: bool) {
        let line = addr >> self.line_shift;
        if kernel {
            self.kernel_footprint.insert(line);
        } else {
            self.footprint.insert(line);
        }
        let c = &mut self.cores[core];
        if !c.dtlb.access(addr) {
            self.stats.dtlb_misses += 1;
            c.cycles += self.charges.tlb_walk;
        }
        if c.l1d.access(addr) {
            return;
        }
        self.stats.l1d_misses += 1;
        if c.l2.access(addr) {
            c.cycles += self.charges.l2;
            return;
        }
        self.stats.l2_misses += 1;
        if self.l3.access(addr) {
            c.cycles += self.charges.l3;
            return;
        }
        self.stats.l3_misses += 1;
        c.cycles += self.charges.mem;
        if self.params.prefetch {
            let next = self.pf.on_miss(&mut self.l3, addr);
            self.stats.prefetches += 1;
            let nline = next >> self.line_shift;
            if kernel {
                self.kernel_footprint.insert(nline);
            } else {
                self.footprint.insert(nline);
            }
        }
    }

    fn charge_kernel(&mut self, core: usize, nr: u64) {
        let Some(model) = self.kernel else { return };
        let insns = model.insns_for(nr);
        self.stats.kernel_insns += insns;
        self.cores[core].cycles += insns as f64 / self.params.issue_width as f64;
        self.syscall_counter += 1;
        // Kernel instruction fetch: walk a window of kernel text.
        let text_lines = insns / 8;
        for i in 0..text_lines {
            let addr = model.text_base + ((nr * 8192 + i * 64) % (128 << 10));
            let c = &mut self.cores[core];
            if !c.l1i.access(addr) && !c.l2.access(addr) && !self.l3.access(addr) {
                c.cycles += self.charges.mem;
            }
        }
        // Kernel data: a sequential walk starting at a per-syscall
        // rotating offset (buffer copies, dentry/page-cache touches).
        let data_accesses = insns / 6;
        let base_off = (self.syscall_counter * 8192) % model.working_set;
        for i in 0..data_accesses {
            let addr = model.data_base + ((base_off + i * 64) % model.working_set);
            self.data_access(core, addr, true);
        }
    }
}

impl Observer for TimingObserver {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, len: usize) {
        if !self.active {
            if let RoiMode::FromMarker(kind) = self.roi {
                if let Insn::Marker(k, tag) = insn {
                    // Reserved callback tags (elfie_on_start etc.) are not
                    // region-of-interest markers.
                    let callback = (0xE1F0..=0xE1F2).contains(tag);
                    if *k == kind && !callback {
                        self.active = true;
                    }
                }
            }
            return;
        }
        let core = self.core_of(tid);
        let idx = tid as usize;
        if idx >= self.threads.len() {
            self.threads.resize(idx + 1, ThreadState::default());
        }
        let thread = &mut self.threads[idx];
        let c = &mut self.cores[core];
        // Resolve a pending conditional branch for this thread.
        if let Some(pb) = thread.pending.take() {
            let taken = rip != pb.fallthrough;
            if c.bp.resolve(pb.pc, taken) {
                self.stats.mispredicts += 1;
                c.cycles += self.charges.mispredict;
            }
        }
        self.stats.user_insns += 1;
        thread.insns += 1;
        c.cycles += self.charges.issue;
        // Instruction fetch.
        if !c.l1i.access(rip) {
            if !c.l2.access(rip) && !self.l3.access(rip) {
                c.cycles += self.charges.mem;
            } else {
                c.cycles += self.charges.fetch_l2;
            }
        }
        if let Insn::Jcc(..) = insn {
            thread.pending = Some(PendingBranch {
                pc: rip,
                fallthrough: rip + len as u64,
            });
        }
    }

    fn on_mem_read(&mut self, tid: u32, addr: u64, _size: u64) {
        if self.active {
            self.data_access(self.core_of(tid), addr, false);
        }
    }

    fn on_mem_write(&mut self, tid: u32, addr: u64, _size: u64) {
        if self.active {
            self.data_access(self.core_of(tid), addr, false);
        }
    }

    fn on_syscall(&mut self, tid: u32, nr: u64, _args: &[u64; 6]) {
        if self.active {
            // SYSCALL itself costs a pipeline drain either way.
            let core = self.core_of(tid);
            self.cores[core].cycles += 40.0;
            self.charge_kernel(core, nr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elfie_isa::Reg;

    fn obs(params: CoreParams) -> TimingObserver {
        TimingObserver::new(params, 1, RoiMode::Always, None)
    }

    #[test]
    fn cycles_accumulate_with_instructions() {
        let mut t = obs(CoreParams::nehalem_like());
        for i in 0..100u64 {
            t.on_insn(0, 0x400000 + i * 4, &Insn::Nop, 1);
        }
        let s = t.stats();
        assert_eq!(s.user_insns, 100);
        assert!(t.cycles() >= 100 / 4);
    }

    #[test]
    fn memory_misses_cost_cycles() {
        let mut a = obs(CoreParams::nehalem_like());
        let mut b = obs(CoreParams::nehalem_like());
        for i in 0..200u64 {
            a.on_insn(
                0,
                0x400000,
                &Insn::Load(Reg::Rax, elfie_isa::Mem::base(Reg::Rbx)),
                9,
            );
            a.on_mem_read(0, 0x10_0000, 8); // same line: hits
            b.on_insn(
                0,
                0x400000,
                &Insn::Load(Reg::Rax, elfie_isa::Mem::base(Reg::Rbx)),
                9,
            );
            b.on_mem_read(0, 0x10_0000 + i * 4096 * 7, 8); // page stride: misses
        }
        assert!(
            b.cycles() > 2 * a.cycles(),
            "a={} b={}",
            a.cycles(),
            b.cycles()
        );
        assert!(b.stats().dtlb_misses > a.stats().dtlb_misses);
    }

    #[test]
    fn bigger_rob_hides_latency() {
        let run = |p: CoreParams| {
            let mut t = obs(p);
            for i in 0..500u64 {
                t.on_insn(0, 0x400000, &Insn::Nop, 1);
                t.on_mem_read(0, 0x20_0000 + i * 64 * 97, 8);
            }
            t.cycles()
        };
        let small = run(CoreParams::nehalem_like());
        let big = run(CoreParams::haswell_like());
        assert!(big < small, "haswell {big} < nehalem {small}");
    }

    #[test]
    fn branch_mispredictions_detected() {
        let mut t = obs(CoreParams::nehalem_like());
        // Alternate taken/not-taken: bimodal predictor mispredicts often.
        let branch = Insn::Jcc(elfie_isa::Cond::E, 10);
        for i in 0..100u64 {
            t.on_insn(0, 0x400000, &branch, 6);
            let next = if i % 2 == 0 { 0x400006 } else { 0x400020 };
            t.on_insn(0, next, &Insn::Nop, 1);
        }
        assert!(
            t.stats().mispredicts > 20,
            "mispredicts: {}",
            t.stats().mispredicts
        );
    }

    #[test]
    fn per_thread_state_is_indexed_by_tid() {
        // Threads 0 and 5 (a gap in the tids) interleave, each with its
        // own branch at its own predictor entry: thread 0's loops onto
        // itself (always taken), thread 5's falls through (never taken),
        // and thread 0 retires between thread 5's branch and the
        // instruction that resolves it.
        let jcc = Insn::Jcc(elfie_isa::Cond::E, -6);
        let (a, b) = (0x40_0000u64, 0x50_0100u64);
        let mut t = obs(CoreParams::nehalem_like());
        for _ in 0..50 {
            t.on_insn(5, b, &jcc, 6);
            t.on_insn(0, a, &jcc, 6);
            t.on_insn(5, b + 6, &Insn::Nop, 1);
        }
        let s = t.stats();
        // Resolved per thread, only thread 0's first (weakly not-taken)
        // prediction misses. Resolving against the other thread's rip
        // would train thread 5's entry towards taken and miss again.
        assert_eq!(s.mispredicts, 1);
        assert_eq!(s.per_thread, BTreeMap::from([(0, 50), (5, 100)]));
        assert_eq!(s.user_insns, 150);
    }

    #[test]
    fn roi_mode_skips_startup() {
        let mut t = TimingObserver::new(
            CoreParams::nehalem_like(),
            1,
            RoiMode::FromMarker(MarkerKind::Sniper),
            None,
        );
        for _ in 0..50 {
            t.on_insn(0, 0x100, &Insn::Nop, 1);
        }
        assert_eq!(t.stats().user_insns, 0, "startup not modelled");
        t.on_insn(0, 0x200, &Insn::Marker(MarkerKind::Sniper, 1), 6);
        assert!(t.is_active());
        t.on_insn(0, 0x206, &Insn::Nop, 1);
        assert_eq!(t.stats().user_insns, 1);
    }

    #[test]
    fn full_system_adds_kernel_instructions_and_footprint() {
        let run = |kernel: Option<KernelModel>| {
            let mut t = TimingObserver::new(CoreParams::skylake_like(), 1, RoiMode::Always, kernel);
            for i in 0..1000u64 {
                t.on_insn(0, 0x400000 + (i % 64) * 4, &Insn::Nop, 1);
                t.on_mem_read(0, 0x60_0000 + (i % 256) * 64, 8);
                if i % 100 == 0 {
                    t.on_syscall(0, 0, &[0; 6]);
                }
            }
            (t.stats(), t.cycles())
        };
        let (user_only, user_cycles) = run(None);
        let (full, full_cycles) = run(Some(KernelModel::default()));
        assert_eq!(user_only.kernel_insns, 0);
        assert!(full.kernel_insns > 0);
        assert_eq!(
            full.user_insns, user_only.user_insns,
            "ring3 count unchanged"
        );
        assert!(full_cycles > user_cycles, "kernel work costs time");
        assert!(
            full.kernel_footprint_lines > 0,
            "kernel data counted separately"
        );
    }

    #[test]
    fn threads_map_to_cores() {
        let mut t = TimingObserver::new(CoreParams::gainestown_like(), 4, RoiMode::Always, None);
        for tid in 0..4u32 {
            for _ in 0..100 {
                // Distinct code per thread so the shared L3 does not make
                // later cores cheaper.
                t.on_insn(tid, 0x400000 + tid as u64 * 0x10000, &Insn::Nop, 1);
            }
        }
        let s = t.stats();
        assert_eq!(s.per_thread.len(), 4);
        // Parallel: max core time ~ single thread's time, not the sum.
        assert!(t.cycles() * 3 < t.total_core_cycles());
    }
}
