//! Differential property tests for the VM fast path.
//!
//! The decoded basic-block cache and the software TLB are pure
//! optimisations: execution through them must be **bit-identical** to the
//! per-step interpreter. These tests enforce that by running the same
//! program on two machines that differ only in `MachineConfig::block_cache`
//! and comparing everything observable:
//!
//! * the full observer event stream (instructions, memory accesses,
//!   syscalls, markers, thread lifecycle),
//! * the [`RunSummary`] (exit reason, retired instructions, cycles),
//! * final register files of every thread,
//! * the complete memory image (page bases, permissions, bytes),
//! * kernel stdout.
//!
//! Programs come from three generators: random straight-line instruction
//! soup (via `elfie_isa::test_strategies`, including faulting and
//! undecodable cases), random branchy block graphs that loop enough to
//! re-execute warm cached blocks, and a hand-written self-modifying
//! program that overwrites a block the cache has already decoded. The
//! random programs may also run under an armed stop condition, which the
//! cached run must honour on exactly the instruction the per-step
//! interpreter stops on.

use elfie_isa::test_strategies::arb_insn;
use elfie_isa::{assemble, decode, encode, Cond, Insn, MarkerKind, Reg, RegFile};
use elfie_vm::{
    ExitReason, FastPathStats, Machine, MachineConfig, Observer, Perm, RunSummary, StopWhen,
};
use proptest::prelude::*;

/// One observer callback, recorded verbatim.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Insn(u32, u64, Insn, usize),
    Read(u32, u64, u64),
    Write(u32, u64, u64),
    Sys(u32, u64, [u64; 6]),
    SysRet(u32, u64, u64, usize),
    Marker(u32, MarkerKind, u32),
    Start(u32, u32),
    Exit(u32, i32),
}

/// Records every observer callback in order.
#[derive(Debug, Default)]
struct RecObs(Vec<Ev>);

impl Observer for RecObs {
    fn on_insn(&mut self, tid: u32, rip: u64, insn: &Insn, len: usize) {
        self.0.push(Ev::Insn(tid, rip, *insn, len));
    }
    fn on_mem_read(&mut self, tid: u32, addr: u64, size: u64) {
        self.0.push(Ev::Read(tid, addr, size));
    }
    fn on_mem_write(&mut self, tid: u32, addr: u64, size: u64) {
        self.0.push(Ev::Write(tid, addr, size));
    }
    fn on_syscall(&mut self, tid: u32, nr: u64, args: &[u64; 6]) {
        self.0.push(Ev::Sys(tid, nr, *args));
    }
    fn on_syscall_ret(&mut self, tid: u32, nr: u64, ret: u64, writes: &[(u64, Vec<u8>)]) {
        self.0.push(Ev::SysRet(tid, nr, ret, writes.len()));
    }
    fn on_marker(&mut self, tid: u32, kind: MarkerKind, tag: u32) {
        self.0.push(Ev::Marker(tid, kind, tag));
    }
    fn on_thread_start(&mut self, parent: u32, child: u32) {
        self.0.push(Ev::Start(parent, child));
    }
    fn on_thread_exit(&mut self, tid: u32, code: i32) {
        self.0.push(Ev::Exit(tid, code));
    }
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    summary: RunSummary,
    events: Vec<Ev>,
    regs: Vec<RegFile>,
    mem: Vec<(u64, Perm, Vec<u8>)>,
    stdout: Vec<u8>,
}

fn run_one(
    setup: &dyn Fn(&mut Machine<RecObs>),
    fuel: u64,
    cached: bool,
) -> (Outcome, FastPathStats) {
    let cfg = MachineConfig {
        block_cache: cached,
        ..MachineConfig::default()
    };
    let mut m = Machine::with_observer(cfg, RecObs::default());
    setup(&mut m);
    let summary = m.run(fuel);
    let stats = m.fastpath_stats();
    let outcome = Outcome {
        summary,
        events: std::mem::take(&mut m.obs.0),
        regs: m.threads.iter().map(|t| t.regs.clone()).collect(),
        mem: m
            .mem
            .pages()
            .map(|(base, perm, data)| (base, perm, data.to_vec()))
            .collect(),
        stdout: m.kernel.stdout.clone(),
    };
    (outcome, stats)
}

/// Runs `setup` twice — block cache on and off — and asserts the two
/// executions are indistinguishable. Returns the cached run for further
/// checks.
fn assert_identical(setup: &dyn Fn(&mut Machine<RecObs>), fuel: u64) -> (Outcome, FastPathStats) {
    let (cached, stats) = run_one(setup, fuel, true);
    let (uncached, base) = run_one(setup, fuel, false);
    assert_eq!(base.block_hits, 0, "uncached run must not touch the cache");
    assert_eq!(cached.summary, uncached.summary, "run summary diverged");
    assert_eq!(cached.regs, uncached.regs, "final registers diverged");
    assert_eq!(cached.stdout, uncached.stdout, "stdout diverged");
    // Compare event streams with a usable message on first divergence.
    for (i, (a, b)) in cached.events.iter().zip(uncached.events.iter()).enumerate() {
        assert_eq!(a, b, "event {i} diverged (cached vs uncached)");
    }
    assert_eq!(
        cached.events.len(),
        uncached.events.len(),
        "event count diverged"
    );
    assert_eq!(cached.mem, uncached.mem, "memory image diverged");
    (cached, stats)
}

const CODE_BASE: u64 = 0x1000;
const ARENA_BASE: u64 = 0x20000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random instruction soup, including control flow, faulting memory
    /// operands and undecodable tails. Registers point into a mapped
    /// arena so some accesses succeed; `rcx` is kept small so `rep movs`
    /// stays bounded.
    #[test]
    fn straight_line_soup_is_bit_identical(
        insns in proptest::collection::vec(arb_insn(), 1..32),
        stop in arb_stop(),
    ) {
        let mut code = Vec::new();
        for i in &insns {
            code.extend(encode(i));
        }
        let stop = stop_condition(stop, &insn_addrs(CODE_BASE, &code));
        let setup = move |m: &mut Machine<RecObs>| {
            m.stop_conditions.extend(stop);
            m.mem.map_range(CODE_BASE, 0x5000, Perm::RWX).unwrap();
            m.mem
                .map_range(ARENA_BASE, ARENA_BASE + 0x20000, Perm::RW)
                .unwrap();
            m.mem.write_bytes_unchecked(CODE_BASE, &code).unwrap();
            let mut regs = RegFile::new();
            regs.rip = CODE_BASE;
            for r in 0..16u8 {
                let reg = Reg::from_index(r).unwrap();
                regs.write(reg, ARENA_BASE + 0x10000 + (r as u64) * 64);
            }
            regs.write(Reg::Rcx, 4); // bound rep movs
            regs.write(Reg::Rsp, ARENA_BASE + 0x1f000);
            m.add_thread(regs);
        };
        assert_identical(&setup, 4_000);
    }

    /// Random block graphs with loops: conditional and unconditional jumps
    /// between blocks re-execute the same addresses, exercising warm block
    /// cache hits and per-thread cursors across taken/not-taken branches.
    #[test]
    fn branchy_blocks_are_bit_identical(src in branchy_source(), stop in arb_stop()) {
        let prog = assemble(&src).expect("generated source assembles");
        let pcs: Vec<u64> = prog
            .chunks
            .iter()
            .flat_map(|c| insn_addrs(c.addr, &c.bytes))
            .collect();
        let stop = stop_condition(stop, &pcs);
        let setup = move |m: &mut Machine<RecObs>| {
            m.load_program(&prog);
            m.stop_conditions.extend(stop);
            m.mem
                .map_range(ARENA_BASE, ARENA_BASE + 0x1000, Perm::RW)
                .unwrap();
            m.threads[0].regs.write(Reg::R15, ARENA_BASE);
        };
        let (outcome, stats) = assert_identical(&setup, 20_000);
        // Loops mean warm execution: unless the program exited almost
        // immediately, the cache must have served instructions.
        if outcome.summary.insns > 200 {
            prop_assert!(stats.block_hits > 0, "no cache hits after {} insns", outcome.summary.insns);
        }
    }
}

/// Raw choice of the stop condition a random case arms: `(kind, count,
/// pick)`, turned into a [`StopWhen`] by [`stop_condition`].
fn arb_stop() -> impl Strategy<Value = (u8, u64, usize)> {
    (0u8..5, 0u64..600, proptest::arbitrary::any::<usize>())
}

/// No stop condition, `GlobalInsns`, `ThreadInsns` (thread 0, or a
/// thread that never exists), `PcCount` on one of the program's
/// instruction addresses `pcs`, or `Marker`. Counts start at 0: a
/// condition already met before the first instruction.
fn stop_condition((kind, count, pick): (u8, u64, usize), pcs: &[u64]) -> Option<StopWhen> {
    match kind {
        1 => Some(StopWhen::GlobalInsns(count)),
        2 => Some(StopWhen::ThreadInsns((pick % 2) as u32, count)),
        3 if !pcs.is_empty() => Some(StopWhen::PcCount {
            pc: pcs[pick % pcs.len()],
            count: count % 40,
        }),
        4 => Some(StopWhen::Marker(
            MarkerKind::ALL[pick % MarkerKind::ALL.len()],
        )),
        _ => None,
    }
}

/// Addresses of the instructions in `code` (loaded at `base`), decoded
/// linearly up to the first undecodable byte.
fn insn_addrs(base: u64, code: &[u8]) -> Vec<u64> {
    let mut addrs = Vec::new();
    let mut off = 0;
    while off < code.len() {
        let Ok((_, len)) = decode(&code[off..]) else {
            break;
        };
        addrs.push(base + off as u64);
        off += len;
    }
    addrs
}

/// Generates assembly for a random graph of small basic blocks. Each block
/// does a few safe ALU/move/load/store/marker ops (memory via `r15` into a
/// mapped arena) and ends with a jump, a conditional jump, or a
/// fall-through; the final fall-through lands on an `exit(0)` stub.
fn branchy_source() -> impl Strategy<Value = String> {
    const REGS: [&str; 6] = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi"];
    let op = (
        0u8..10,
        0usize..6,
        0usize..6,
        0u32..64,
        (0u64..63).prop_map(|d| d * 8),
    );
    let block = (
        proptest::collection::vec(op, 1..6),
        0u8..14,
        proptest::arbitrary::any::<usize>(),
        0usize..12,
    );
    proptest::collection::vec(block, 2..8).prop_map(|blocks| {
        let n = blocks.len();
        let mut s = String::from(".org 0x1000\n");
        for (i, (ops, kind, target, cond)) in blocks.iter().enumerate() {
            s.push_str(&format!("b{i}:\n"));
            for (k, r1, r2, imm, disp) in ops {
                let (r1, r2) = (REGS[*r1], REGS[*r2]);
                s.push_str(&match k {
                    0 => format!("    add {r1}, {r2}\n"),
                    1 => format!("    sub {r1}, {imm}\n"),
                    2 => format!("    mov {r1}, {imm}\n"),
                    3 => format!("    mov {r1}, {r2}\n"),
                    4 => format!("    cmp {r1}, {r2}\n"),
                    5 => format!("    xor {r1}, {r2}\n"),
                    6 => format!("    mov [r15 + {disp}], {r1}\n"),
                    7 => format!("    mov {r1}, [r15 + {disp}]\n"),
                    8 => format!("    marker sniper, {imm}\n"),
                    _ => format!("    marker ssc, {imm}\n"),
                });
            }
            let t = target % n;
            match kind {
                0..=3 => s.push_str(&format!("    jmp b{t}\n")),
                4..=11 => {
                    let suffix = Cond::ALL[*cond].suffix();
                    s.push_str(&format!("    j{suffix} b{t}\n"));
                }
                _ => {} // fall through
            }
        }
        s.push_str("exit:\n    mov rax, 60\n    mov rdi, 0\n    syscall\n");
        s
    })
}

/// Assembles `body` on its own and returns its encoded bytes.
fn body_bytes(body: &str) -> Vec<u8> {
    let prog = assemble(&format!(".org 0x1000\n{body}")).expect("body assembles");
    let mut bytes = Vec::new();
    for c in &prog.chunks {
        bytes.extend_from_slice(&c.bytes);
    }
    bytes
}

/// Self-modifying code: the guest executes a block (caching it), then
/// overwrites that same block's bytes with a patched copy and re-executes
/// it. Cached execution must both match the uncached interpreter *and*
/// actually run the new bytes — a stale cached block would compute the
/// pre-patch value.
#[test]
fn smc_overwrites_already_cached_block() {
    let original = "    mov rax, 111\n    add rax, 7\n    add rax, 9\n";
    let patched = original.replace("111", "222");
    let orig_bytes = body_bytes(original);
    let patch_bytes = body_bytes(&patched);
    assert_eq!(
        orig_bytes.len(),
        patch_bytes.len(),
        "patched block must be the same size so the copy is length-safe"
    );
    let nop = encode(&Insn::Nop);
    // Pad the region to a multiple of 8 so the guest can patch it with
    // plain 64-bit load/store pairs.
    let pad = (8 - orig_bytes.len() % 8) % 8;
    let region = orig_bytes.len() + pad;
    let pad_asm: String = "    nop\n".repeat(pad / nop.len());
    let mut patch_data: Vec<u8> = patch_bytes.clone();
    for _ in 0..pad / nop.len() {
        patch_data.extend_from_slice(&nop);
    }
    let patch_decl = patch_data
        .iter()
        .map(|b| format!("{b:#04x}"))
        .collect::<Vec<_>>()
        .join(", ");
    let copies: String = (0..region / 8)
        .map(|q| {
            let off = q * 8;
            format!("    mov r10, [r12 + {off}]\n    mov [r13 + {off}], r10\n")
        })
        .collect();
    let src = format!(
        r#"
        .org 0x1000
        start:
            mov r14, 0
        run:
        target:
        {original}{pad_asm}
            mov rbx, rax        ; latch the block's result
            cmp r14, 1
            je done
            mov r14, 1
            mov r12, patch_src
            mov r13, target
        {copies}
            jmp run
        done:
            mov rax, 60
            mov rdi, 0
            syscall
        patch_src:
            .byte {patch_decl}
        "#
    );
    let prog = assemble(&src).expect("smc program assembles");
    let setup = move |m: &mut Machine<RecObs>| m.load_program(&prog);
    let (outcome, stats) = assert_identical(&setup, 10_000);
    assert_eq!(outcome.summary.reason, ExitReason::AllExited(0));
    // Pass 1 computes 111+7+9 = 127 and patches; pass 2 must see the new
    // bytes: 222+7+9 = 238.
    assert_eq!(
        outcome.regs[0].read(Reg::Rbx),
        238,
        "patched block did not take effect"
    );
    assert!(
        stats.block_evictions >= 1,
        "SMC write must evict the cached block"
    );
    assert!(stats.block_hits > 0, "block was executed from the cache");
}

/// A tight counted loop stays bit-identical and runs almost entirely out
/// of the block cache once warm.
#[test]
fn counted_loop_runs_warm() {
    let prog = assemble(
        r#"
        .org 0x1000
        start:
            mov rcx, 5000
            mov rax, 0
        loop:
            add rax, 3
            sub rcx, 1
            cmp rcx, 0
            jne loop
            mov rax, 60
            mov rdi, 0
            syscall
        "#,
    )
    .expect("assembles");
    let setup = move |m: &mut Machine<RecObs>| m.load_program(&prog);
    let (outcome, stats) = assert_identical(&setup, 100_000);
    assert_eq!(outcome.summary.reason, ExitReason::AllExited(0));
    let rate = stats.block_hit_rate();
    assert!(
        rate > 0.95,
        "warm loop should run from the cache (hit rate {rate:.3})"
    );
}
