//! Machine-level integration tests: scheduler, kernel and counter
//! behaviours that only show up across modules.

use elfie_isa::{assemble, Program, Reg};
use elfie_vm::{ExitReason, Machine, MachineConfig, Perm, StopWhen};

fn load(src: &str, cfg: MachineConfig) -> Machine {
    let prog: Program = assemble(src).expect("assembles");
    let mut m = Machine::new(cfg);
    m.load_program(&prog);
    m
}

const EXIT: &str = "\n mov rax, 231\n mov rdi, 0\n syscall\n";

#[test]
fn same_seed_reproduces_multithreaded_run_exactly() {
    let src = r#"
        .org 0x400000
        start:
            mov rax, 56
            mov rdi, 0
            mov rsi, 0x7f00100000
            syscall
            cmp rax, 0
            je child
            mov rcx, 3000
        p:
            mov rdx, 1
            mov rbx, word
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne p
        pw:
            mov rdx, [done]
            cmp rdx, 1
            jne pw
            mov rax, 231
            mov rdi, 0
            syscall
        child:
            mov rcx, 3000
        c:
            mov rdx, 1
            mov rbx, word
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne c
            mov rdx, 1
            mov rbx, done
            mov [rbx], rdx
            mov rax, 60
            mov rdi, 0
            syscall
        .org 0x600000
        word: .quad 0
        done: .quad 0
    "#;
    let run = |seed| {
        let mut m = load(
            src,
            MachineConfig {
                seed,
                ..MachineConfig::default()
            },
        );
        m.mem
            .map_range(0x7f000f0000, 0x7f00100000, Perm::RW)
            .unwrap();
        let s = m.run(10_000_000);
        assert_eq!(s.reason, ExitReason::AllExited(0));
        (
            m.threads[0].icount,
            m.threads[1].icount,
            m.threads[0].cycles,
        )
    };
    assert_eq!(run(5), run(5), "same seed, identical interleaving");
    assert_ne!(run(5), run(6), "different seed, different interleaving");
}

#[test]
fn exit_group_terminates_spinning_sibling() {
    // Thread 1 spins forever; main exit_group must take it down.
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
        delay:
            sub rcx, 1
            cmp rcx, 0
            jne delay
            mov rax, 231
            mov rdi, 9
            syscall
        child:
        spin:
            pause
            jmp spin
    "#;
    let mut m = load(src, MachineConfig::default());
    m.mem
        .map_range(0x7f000f0000, 0x7f00100000, Perm::RW)
        .unwrap();
    let s = m.run(10_000_000);
    assert_eq!(s.reason, ExitReason::AllExited(9));
    assert!(
        m.threads[1].is_exited(),
        "spinner was terminated by exit_group"
    );
}

#[test]
fn rearming_the_exit_counter_extends_the_run() {
    let src = r#"
        .org 0x400000
        start:
            mov rax, 10000
            mov rdi, 10
            syscall
            mov rax, 10000     ; re-arm before the first target hits
            mov rdi, 1000
            syscall
        spin:
            jmp spin
    "#;
    let mut m = load(src, MachineConfig::default());
    let s = m.run(1_000_000);
    assert_eq!(s.reason, ExitReason::AllExited(0));
    // 6 startup instructions + 1000 counted after the re-arm.
    assert_eq!(m.threads[0].icount, 1006);
}

#[test]
fn stop_conditions_compose_first_wins() {
    let mut m = load(
        ".org 0x400000\nstart: jmp start\n",
        MachineConfig::default(),
    );
    m.stop_conditions.push(StopWhen::GlobalInsns(1_000));
    m.stop_conditions.push(StopWhen::GlobalInsns(100));
    let s = m.run(1_000_000);
    assert_eq!(
        s.reason,
        ExitReason::StopCondition(1),
        "tighter condition fires"
    );
    assert_eq!(m.global_icount(), 100);
}

#[test]
fn brk_heap_survives_write_read_cycle() {
    let src = &format!(
        r#"
        .org 0x400000
        start:
            mov rax, 12          ; brk(0) -> current
            mov rdi, 0
            syscall
            mov r12, rax         ; base
            mov rax, 12          ; brk(base + 0x3000)
            mov rdi, r12
            add rdi, 0x3000
            syscall
            mov rbx, r12
            mov rcx, 0x600        ; 1536 quadwords
        fill:
            mov [rbx], rcx
            add rbx, 8
            sub rcx, 1
            cmp rcx, 0
            jne fill
            mov rax, [r12]       ; readback of first cell (wrote 0x600)
            mov r15, rax
            {EXIT}
        "#
    );
    let mut m = load(src, MachineConfig::default());
    let s = m.run(1_000_000);
    assert_eq!(s.reason, ExitReason::AllExited(0));
    assert_eq!(m.threads[0].regs.read(Reg::R15), 0x600);
}

#[test]
fn repmovs_copies_large_ranges_across_pages() {
    let src = &format!(
        r#"
        .org 0x400000
        start:
            ; stamp a pattern at src
            mov rbx, 0x600000
            mov rcx, 0x1000      ; 4096 quadwords = 32 KiB
        stamp:
            mov [rbx], rcx
            add rbx, 8
            sub rcx, 1
            cmp rcx, 0
            jne stamp
            ; bulk copy 32 KiB
            mov rsi, 0x600000
            mov rdi, 0x700000
            mov rcx, 0x1000
            repmovs
            mov r13, rcx          ; must be 0
            mov rax, [0x700000]
            mov r14, rax
            mov rbx, 0x700000
            add rbx, 0x7ff8
            mov rax, [rbx]
            mov r15, rax
            {EXIT}
        "#
    );
    let mut m = load(src, MachineConfig::default());
    m.mem.map_range(0x600000, 0x610000, Perm::RW).unwrap();
    m.mem.map_range(0x700000, 0x710000, Perm::RW).unwrap();
    let s = m.run(1_000_000);
    assert_eq!(s.reason, ExitReason::AllExited(0));
    assert_eq!(m.threads[0].regs.read(Reg::R13), 0, "rcx consumed");
    assert_eq!(
        m.threads[0].regs.read(Reg::R14),
        0x1000,
        "first quadword copied"
    );
    assert_eq!(m.threads[0].regs.read(Reg::R15), 1, "last quadword copied");
}

#[test]
fn repmovs_fault_rewinds_for_retry() {
    // Destination page unmapped: the fault must leave rip ON the repmovs
    // so a harness can map the page and re-execute (lazy injection).
    let src = r#"
        .org 0x400000
        start:
            mov rsi, 0x600000
            mov rdi, 0x900000    ; unmapped
            mov rcx, 8
            repmovs
            mov rax, 231
            mov rdi, 0
            syscall
    "#;
    let mut m = load(src, MachineConfig::default());
    m.mem.map_range(0x600000, 0x601000, Perm::RW).unwrap();
    let s = m.run(1_000);
    let ExitReason::Fault { tid: 0, .. } = s.reason else {
        panic!("expected fault, got {:?}", s.reason);
    };
    let rip = m.threads[0].regs.rip;
    // Map the page and resume: the copy must complete this time.
    m.mem.map_range(0x900000, 0x901000, Perm::RW).unwrap();
    let s2 = m.run(1_000);
    assert_eq!(s2.reason, ExitReason::AllExited(0));
    assert!(m.threads[0].regs.rip > rip);
}

#[test]
fn gettimeofday_advances_with_cycles() {
    let src = &format!(
        r#"
        .org 0x400000
        start:
            mov rax, 96
            mov rdi, 0x600000
            mov rsi, 0
            syscall
            mov r12, [0x600008]   ; usec #1
            mov rcx, 60000
        burn:
            sub rcx, 1
            cmp rcx, 0
            jne burn
            mov rax, 96
            mov rdi, 0x600000
            mov rsi, 0
            syscall
            mov r13, [0x600008]   ; usec #2
            {EXIT}
        "#
    );
    let mut m = load(src, MachineConfig::default());
    m.mem.map_range(0x600000, 0x601000, Perm::RW).unwrap();
    let s = m.run(10_000_000);
    assert_eq!(s.reason, ExitReason::AllExited(0));
    let t1 = m.threads[0].regs.read(Reg::R12);
    let t2 = m.threads[0].regs.read(Reg::R13);
    assert!(t2 > t1, "time moved forward: {t1} -> {t2}");
}

#[test]
fn fuel_budget_is_exact_across_calls() {
    let mut m = load(
        ".org 0x400000\nstart: jmp start\n",
        MachineConfig::default(),
    );
    let s1 = m.run(77);
    assert_eq!(s1.reason, ExitReason::FuelExhausted);
    assert_eq!(s1.insns, 77);
    let s2 = m.run(23);
    assert_eq!(s2.insns, 23);
    assert_eq!(
        m.global_icount(),
        100,
        "machine-lifetime counter accumulates"
    );
}

/// A page-sized payload with a distinct byte pattern.
fn pattern_page(seed: u8) -> elfie_vm::PageData {
    let mut page = [0u8; elfie_isa::PAGE_SIZE as usize];
    for (i, b) in page.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(seed);
    }
    std::sync::Arc::new(page)
}

/// The shared payload backing the page at `addr`, if it is still shared.
fn shared_payload<O: elfie_vm::Observer>(m: &Machine<O>, addr: u64) -> Option<elfie_vm::PageData> {
    m.mem
        .pages_with_sharing()
        .find(|(base, ..)| *base == addr)
        .and_then(|(_, _, _, shared)| shared.cloned())
}

#[test]
fn repmovs_of_whole_pages_aliases_a_shared_source() {
    let src = &format!(
        r#"
        .org 0x400000
        start:
            mov rsi, 0x600000
            mov rdi, 0x700000
            mov rcx, 0x400       ; two pages
            repmovs
            mov r13, rsi
            mov r14, rdi
            mov r15, rcx
            mov rbx, 0x700000
            mov rax, 0xee
            mov [rbx], rax       ; a later write to the destination
            {EXIT}
        "#
    );
    let mut m = load(src, MachineConfig::default());
    let (a, b) = (pattern_page(1), pattern_page(2));
    m.mem.map_shared_page(0x600000, Perm::RW, a.clone());
    m.mem.map_shared_page(0x601000, Perm::RW, b.clone());
    m.mem.map_range(0x700000, 0x702000, Perm::RW).unwrap();
    let before = m.mem.materialize_stats();
    let s = m.run(1_000);
    assert_eq!(s.reason, ExitReason::AllExited(0));
    let regs = &m.threads[0].regs;
    assert_eq!(
        (
            regs.read(Reg::R13),
            regs.read(Reg::R14),
            regs.read(Reg::R15)
        ),
        (0x602000, 0x702000, 0),
        "rsi/rdi advance and rcx drains as for a byte copy"
    );

    // The untouched destination page aliases its source payload; the
    // written one was privatised and kept the copied bytes.
    let second = shared_payload(&m, 0x701000).expect("second page still shared");
    assert!(std::sync::Arc::ptr_eq(&second, &b));
    assert!(
        shared_payload(&m, 0x700000).is_none(),
        "write privatised it"
    );
    let mut got = vec![0u8; 0x1000];
    m.mem.read_bytes(0x700000, &mut got).unwrap();
    assert_eq!(&got[..8], &0xeeu64.to_le_bytes());
    assert_eq!(&got[8..], &a[8..]);

    // The write to the destination left the source and its payload alone.
    let source = shared_payload(&m, 0x600000).expect("source still shared");
    assert!(std::sync::Arc::ptr_eq(&source, &a));
    assert_eq!(*a, *pattern_page(1));

    let after = m.mem.materialize_stats();
    assert_eq!(
        after.shared_pages - before.shared_pages,
        2,
        "two aliased copies"
    );
    assert_eq!(
        after.cow_breaks - before.cow_breaks,
        1,
        "only the written page"
    );
}

#[test]
fn repmovs_onto_a_cached_code_page_evicts_its_blocks() {
    let src = &format!(
        r#"
        .org 0x400000
        start:
            mov rbx, 0x500000
            call rbx             ; runs, and caches, the old code
            mov r12, rax
            mov rsi, 0x600000
            mov rdi, 0x500000
            mov rcx, 0x200
            repmovs              ; whole-page copy of new code
            mov rbx, 0x500000
            call rbx
            mov r13, rax
            {EXIT}
        .org 0x500000
        old:
            mov rax, 1
            ret
        "#
    );
    let new_code = assemble(".org 0x500000\nnew:\n mov rax, 2\n ret\n").expect("assembles");
    let mut page = [0u8; elfie_isa::PAGE_SIZE as usize];
    page[..new_code.chunks[0].bytes.len()].copy_from_slice(&new_code.chunks[0].bytes);
    let mut m = load(src, MachineConfig::default());
    m.mem
        .map_shared_page(0x600000, Perm::R, std::sync::Arc::new(page));
    assert_eq!(m.run(1_000).reason, ExitReason::AllExited(0));
    assert_eq!(m.threads[0].regs.read(Reg::R12), 1);
    assert_eq!(m.threads[0].regs.read(Reg::R13), 2, "the copied code ran");
    assert!(m.fastpath_stats().block_evictions >= 1);
    assert!(shared_payload(&m, 0x500000).is_some(), "the copy aliased");
}

#[test]
fn repmovs_of_whole_pages_faults_like_a_byte_copy() {
    use elfie_vm::{Access, Fault, MemError};
    let src = r#"
        .org 0x400000
        start:
            mov rsi, 0x600000
            mov rdi, 0x700000
            mov rcx, 0x400       ; two pages
        copy:
            repmovs
            mov rax, 231
            mov rdi, 0
            syscall
    "#;
    let copy_rip = assemble(src).unwrap().symbol("copy").unwrap();
    let run = |map: &dyn Fn(&mut Machine)| {
        let mut m = load(src, MachineConfig::default());
        map(&mut m);
        let reason = m.run(1_000).reason;
        let t = &m.threads[0];
        (reason, t.regs.rip, t.regs.read(Reg::Rcx), m)
    };
    let fault = |addr, access| ExitReason::Fault {
        tid: 0,
        fault: Fault::Mem(MemError::Unmapped { addr, access }),
    };

    // Unmapped source: the read faults first, before the destination.
    let (reason, rip, rcx, _) = run(&|m| {
        m.mem.map_range(0x700000, 0x702000, Perm::RW).unwrap();
    });
    assert_eq!(reason, fault(0x600000, Access::Read));
    assert_eq!((rip, rcx), (copy_rip, 0x400), "rip stays on the repmovs");

    // Unmapped second destination page: the first page is copied, then
    // the write faults.
    let (reason, rip, rcx, m) = run(&|m| {
        m.mem.map_shared_page(0x600000, Perm::R, pattern_page(4));
        m.mem.map_shared_page(0x601000, Perm::R, pattern_page(5));
        m.mem.map_range(0x700000, 0x701000, Perm::RW).unwrap();
    });
    assert_eq!(reason, fault(0x701000, Access::Write));
    assert_eq!((rip, rcx), (copy_rip, 0x400));
    assert_eq!(m.mem.read_u8(0x700001).unwrap(), pattern_page(4)[1]);

    // Read-only destination: a protection fault on the write.
    let (reason, rip, _, _) = run(&|m| {
        m.mem.map_range(0x600000, 0x602000, Perm::RW).unwrap();
        m.mem.map_range(0x700000, 0x702000, Perm::R).unwrap();
    });
    assert_eq!(
        reason,
        ExitReason::Fault {
            tid: 0,
            fault: Fault::Mem(MemError::Protection {
                addr: 0x700000,
                access: Access::Write,
                perm: Perm::R,
            }),
        }
    );
    assert_eq!(rip, copy_rip);
}
