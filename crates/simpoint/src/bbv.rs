//! Basic-block-vector (BBV) profiling.
//!
//! SimPoint-style phase analysis fingerprints each fixed-length slice of
//! dynamic execution with a vector of basic-block execution counts
//! (weighted by block length, as SimPoint does). The profiler is just an
//! [`Observer`] on the guest machine — the same role the paper's Pin-based
//! BBV collectors play, and the reason it notes that "generating pinballs
//! and ELFies is much faster" than gem5-based BBV collection.

use elfie_isa::{Insn, Program, U64BuildHasher};
use elfie_vm::{FastPathStats, Machine, MachineConfig, Observer};
use std::collections::{BTreeMap, HashMap};

/// One slice's sparse basic-block vector: block start pc → weighted count.
pub type Bbv = BTreeMap<u64, u64>;

/// A complete BBV profile of an execution.
#[derive(Debug, Clone, Default)]
pub struct BbvProfile {
    /// Slice size in instructions.
    pub slice_size: u64,
    /// One vector per slice, in execution order.
    pub slices: Vec<Bbv>,
    /// Total dynamic instructions profiled.
    pub total_insns: u64,
}

impl BbvProfile {
    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Stable hash over the full profile contents (slice size, every
    /// vector entry, total instruction count). Used to assert that a
    /// cached profile is interchangeable with a recomputed one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = elfie_isa::Fnv64::new()
            .u64(self.slice_size)
            .u64(self.total_insns);
        h = h.u64(self.slices.len() as u64);
        for slice in &self.slices {
            h = h.u64(slice.len() as u64);
            for (&pc, &count) in slice {
                h = h.u64(pc).u64(count);
            }
        }
        h.finish()
    }
}

/// Identity of a BBV profiling run: hash of the inputs that fully
/// determine the resulting [`BbvProfile`]. Profiling is deterministic, so
/// two runs with equal keys produce identical profiles — this is the
/// content-addressed cache key the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Content hash of the workload (program, files, data maps).
    pub workload: u64,
    /// [`MachineConfig::fingerprint`] of the profiling machine.
    pub machine: u64,
    /// Slice size in instructions.
    pub slice_size: u64,
    /// Fuel bound of the profiling run.
    pub fuel: u64,
}

impl ProfileKey {
    /// Builds the key from pre-hashed workload identity and the profiling
    /// parameters.
    pub fn new(workload: u64, machine: &MachineConfig, slice_size: u64, fuel: u64) -> ProfileKey {
        ProfileKey {
            workload,
            machine: machine.fingerprint(),
            slice_size,
            fuel,
        }
    }

    /// Folds the key into a single stable `u64`.
    pub fn digest(&self) -> u64 {
        elfie_isa::Fnv64::new()
            .u64(self.workload)
            .u64(self.machine)
            .u64(self.slice_size)
            .u64(self.fuel)
            .finish()
    }
}

/// The profiling observer. Attach to a machine and run; collect with
/// [`BbvCollector::finish`].
#[derive(Debug)]
pub struct BbvCollector {
    slice_size: u64,
    /// The open slice; sorted into a [`Bbv`] once, when it is flushed.
    current: HashMap<u64, u64, U64BuildHasher>,
    slices: Vec<Bbv>,
    insns_in_slice: u64,
    total: u64,
    /// Indexed by tid: (open block's start pc, its length so far).
    block_start: Vec<(u64, u64)>,
}

impl BbvCollector {
    /// Creates a collector with the given slice size.
    pub fn new(slice_size: u64) -> BbvCollector {
        BbvCollector {
            slice_size: slice_size.max(1),
            current: HashMap::default(),
            slices: Vec::new(),
            insns_in_slice: 0,
            total: 0,
            block_start: Vec::new(),
        }
    }

    /// Credits every thread's open block to the current slice and
    /// closes it, so each slice is self-contained.
    fn close_open_blocks(&mut self) {
        for block in &mut self.block_start {
            let (start, len) = std::mem::take(block);
            if len > 0 {
                *self.current.entry(start).or_insert(0) += len;
            }
        }
    }

    /// Finalises the profile (flushes the partial last slice).
    pub fn finish(mut self) -> BbvProfile {
        self.close_open_blocks();
        if !self.current.is_empty() {
            self.slices.push(self.current.drain().collect());
        }
        BbvProfile {
            slice_size: self.slice_size,
            slices: self.slices,
            total_insns: self.total,
        }
    }
}

impl Observer for BbvCollector {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, _len: usize) {
        let idx = tid as usize;
        if idx >= self.block_start.len() {
            self.block_start.resize(idx + 1, (0, 0));
        }
        let entry = &mut self.block_start[idx];
        if entry.1 == 0 {
            entry.0 = rip;
        }
        entry.1 += 1;
        self.total += 1;
        self.insns_in_slice += 1;
        if insn.ends_basic_block() {
            let (start, len) = std::mem::take(entry);
            *self.current.entry(start).or_insert(0) += len;
        }
        if self.insns_in_slice >= self.slice_size {
            self.close_open_blocks();
            self.slices.push(self.current.drain().collect());
            self.insns_in_slice = 0;
        }
    }
}

/// Profiles a whole program run, returning its BBV profile.
///
/// `setup` can pre-populate the machine (files, extra mappings); `fuel`
/// bounds the run length.
pub fn profile_program(
    prog: &Program,
    machine_cfg: MachineConfig,
    slice_size: u64,
    fuel: u64,
    setup: impl FnOnce(&mut Machine<BbvCollector>),
) -> BbvProfile {
    profile_program_stats(prog, machine_cfg, slice_size, fuel, setup).0
}

/// Like [`profile_program`], but also returns the VM fast-path counters
/// (block cache and TLB effectiveness) of the profiling run, for pipeline
/// instrumentation.
pub fn profile_program_stats(
    prog: &Program,
    machine_cfg: MachineConfig,
    slice_size: u64,
    fuel: u64,
    setup: impl FnOnce(&mut Machine<BbvCollector>),
) -> (BbvProfile, FastPathStats) {
    let mut m = Machine::with_observer(machine_cfg, BbvCollector::new(slice_size));
    m.load_program(prog);
    setup(&mut m);
    m.run(fuel);
    let fastpath = m.fastpath_stats();
    // Swap the observer out to finish it.
    let profile = std::mem::replace(&mut m.obs, BbvCollector::new(slice_size)).finish();
    (profile, fastpath)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elfie_isa::assemble;

    fn phase_program() -> Program {
        // Phase A: tight add loop. Phase B: multiply loop with different
        // blocks. Then phase A again.
        assemble(
            r#"
            .org 0x400000
            start:
                mov rcx, 300
            phase_a1:
                add rax, 1
                sub rcx, 1
                cmp rcx, 0
                jne phase_a1
                mov rcx, 300
            phase_b:
                imul rbx, 3
                add rbx, 1
                sub rcx, 1
                cmp rcx, 0
                jne phase_b
                mov rcx, 300
            phase_a2:
                add rax, 1
                sub rcx, 1
                cmp rcx, 0
                jne phase_a2
                mov rax, 231
                mov rdi, 0
                syscall
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn slice_flush_credits_each_threads_open_block() {
        // Threads 0 and 5 (a gap in the tids) interleave over their own
        // `nop; nop; jcc` blocks; the 3-instruction slice ends mid-block
        // for both, and the next slice's blocks start where each thread
        // resumed.
        let (a, b) = (0x1000u64, 0x2000u64);
        let jcc = Insn::Jcc(elfie_isa::Cond::E, -8);
        let mut c = BbvCollector::new(3);
        c.on_insn(0, a, &Insn::Nop, 1);
        c.on_insn(5, b, &Insn::Nop, 1);
        c.on_insn(0, a + 1, &Insn::Nop, 1);
        // Slice 0 flushed: thread 0's block is open at 2, thread 5's at 1.
        c.on_insn(5, b + 1, &Insn::Nop, 1);
        c.on_insn(0, a + 2, &jcc, 6);
        c.on_insn(5, b + 2, &jcc, 6);
        let profile = c.finish();
        assert_eq!(profile.total_insns, 6);
        assert_eq!(
            profile.slices,
            vec![
                Bbv::from([(a, 2), (b, 1)]),
                Bbv::from([(a + 2, 1), (b + 1, 2)]),
            ]
        );
    }

    #[test]
    fn block_cache_does_not_change_the_profile() {
        // Acceptance check for the VM fast path: BBV profiling through the
        // decoded block cache must produce the exact same profile as the
        // per-step interpreter, fingerprint and all.
        let prog = phase_program();
        let cached_cfg = MachineConfig {
            block_cache: true,
            ..MachineConfig::default()
        };
        let uncached_cfg = MachineConfig {
            block_cache: false,
            ..MachineConfig::default()
        };
        let cached = profile_program(&prog, cached_cfg, 200, 1_000_000, |_| {});
        let uncached = profile_program(&prog, uncached_cfg, 200, 1_000_000, |_| {});
        assert_eq!(cached.total_insns, uncached.total_insns);
        assert_eq!(cached.slices, uncached.slices);
        assert_eq!(cached.fingerprint(), uncached.fingerprint());
    }

    #[test]
    fn slices_cover_whole_run() {
        let prog = phase_program();
        let profile = profile_program(&prog, MachineConfig::default(), 200, 1_000_000, |_| {});
        assert!(profile.total_insns > 3000);
        let sum: u64 = profile.slices.iter().flat_map(|s| s.values()).sum();
        assert_eq!(
            sum, profile.total_insns,
            "every instruction attributed to a block"
        );
        // Slice boundaries: all but the last slice hold >= slice_size.
        for s in &profile.slices[..profile.slices.len() - 1] {
            let n: u64 = s.values().sum();
            assert!(n >= 200, "slice has {n}");
        }
    }

    #[test]
    fn different_phases_have_different_vectors() {
        let prog = phase_program();
        let profile = profile_program(&prog, MachineConfig::default(), 300, 1_000_000, |_| {});
        assert!(profile.slice_count() >= 3);
        let first = &profile.slices[0];
        let mid = &profile.slices[profile.slice_count() / 2];
        assert_ne!(first, mid, "phase A and phase B vectors differ");
    }

    #[test]
    fn block_keys_are_code_addresses() {
        let prog = phase_program();
        let profile = profile_program(&prog, MachineConfig::default(), 500, 1_000_000, |_| {});
        for s in &profile.slices {
            for &pc in s.keys() {
                assert!((0x400000..0x401000).contains(&pc), "pc {pc:#x}");
            }
        }
    }
}
