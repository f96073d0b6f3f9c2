//! `Logger::capture_all` against one `Logger::capture` per region: the
//! one-pass capture must return, for every configuration, the very
//! pinball (or error) the region's own capture returns — also in the
//! cases that have to leave the shared machine: a warm-up reaching back
//! into the previous region, a `ProgramStart` region, a `PcCount`
//! region, a failing region and a multi-threaded program.

use elfie_isa::{assemble, Program};
use elfie_pinball::RegionTrigger;
use elfie_pinplay::{LogObserver, Logger, LoggerConfig};
use elfie_vm::{Machine, MachineConfig};

fn counter_program(iters: u64) -> Program {
    assemble(&format!(
        r#"
        .org 0x400000
        start:
            mov rbx, 0x30000000
            mov rcx, {iters}
        loop:
            mov rdx, rcx
            imul rdx, 17
            mov [rbx], rdx
            add rbx, 8
            and rbx, 0x3000ffff
            or rbx, 0x30000000
            sub rcx, 1
            cmp rcx, 0
            jne loop
            mov rax, 231
            mov rdi, 0
            syscall
        "#
    ))
    .expect("assembles")
}

/// The parent spawns a child at its fourth instruction; both bump a
/// shared counter atomically.
fn two_thread_program() -> Program {
    assemble(
        r#"
        .org 0x400000
        start:
            mov rcx, 0
            mov rcx, 0
            mov rax, 56
            mov rdi, 0
            mov rsi, 0x7f00200000
            syscall
            cmp rax, 0
            je child
            mov rcx, 300
        ploop:
            mov rdx, 1
            mov rbx, shared
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne ploop
        pwait:
            mov rdx, [done]
            cmp rdx, 1
            jne pwait
            mov rax, 231
            mov rdi, 0
            syscall
        child:
            mov rcx, 300
        cloop:
            mov rdx, 1
            mov rbx, shared
            xadd [rbx], rdx
            sub rcx, 1
            cmp rcx, 0
            jne cloop
            mov rdx, 1
            mov rbx, done
            mov [rbx], rdx
            mov rax, 60
            mov rdi, 0
            syscall
        .align 8
        shared: .quad 0
        done: .quad 0
        "#,
    )
    .expect("assembles")
}

fn map_array(m: &mut Machine<LogObserver>) {
    m.mem
        .map_range(0x3000_0000, 0x3001_0000, elfie_vm::Perm::RW)
        .unwrap();
}

fn region(name: &str, trigger: RegionTrigger, length: u64) -> LoggerConfig {
    let mut cfg = LoggerConfig::fat(name, trigger, length);
    cfg.slice_index = trigger_tag(trigger);
    cfg
}

fn trigger_tag(trigger: RegionTrigger) -> u64 {
    match trigger {
        RegionTrigger::ProgramStart => 0,
        RegionTrigger::GlobalIcount(n) => n,
        RegionTrigger::PcCount { count, .. } => count,
    }
}

/// Captures `cfgs` in one pass and each alone, and requires the same
/// bytes (or the same error) for every region. Returns how many failed.
fn assert_one_pass_matches(
    cfgs: &[LoggerConfig],
    prog: &Program,
    setup: impl Fn(&mut Machine<LogObserver>),
) -> usize {
    let together = Logger::capture_all(cfgs, prog, &setup);
    assert_eq!(together.len(), cfgs.len());
    let mut failed = 0;
    for (cfg, got) in cfgs.iter().zip(together) {
        let alone = Logger::new(cfg.clone()).capture(prog, &setup);
        match (got, alone) {
            (Ok(got), Ok(alone)) => assert!(
                got.to_bytes() == alone.to_bytes(),
                "{:?}: one-pass pinball differs",
                cfg.trigger
            ),
            (Err(got), Err(alone)) => {
                assert_eq!(got.to_string(), alone.to_string(), "{:?}", cfg.trigger);
                failed += 1;
            }
            (got, alone) => panic!("{:?}: {got:?} vs {alone:?}", cfg.trigger),
        }
    }
    failed
}

#[test]
fn disjoint_regions_in_any_order_match_their_own_captures() {
    let cfgs = [
        region("c", RegionTrigger::GlobalIcount(20_000), 3_000),
        region("c", RegionTrigger::GlobalIcount(1_000), 2_000),
        region("c", RegionTrigger::GlobalIcount(9_000), 1_000),
        // Starts exactly where the previous region ends.
        region("c", RegionTrigger::GlobalIcount(10_000), 1_000),
        LoggerConfig {
            machine: MachineConfig {
                seed: 7,
                ..MachineConfig::default()
            },
            ..region("c", RegionTrigger::GlobalIcount(15_000), 1_000)
        },
    ];
    assert_eq!(
        assert_one_pass_matches(&cfgs, &counter_program(5_000), map_array),
        0
    );
}

#[test]
fn a_warmup_reaching_into_the_previous_region_falls_back() {
    let cfgs = [
        region("w", RegionTrigger::GlobalIcount(1_000), 3_000),
        region("w", RegionTrigger::GlobalIcount(2_500), 2_000),
        region("w", RegionTrigger::GlobalIcount(6_000), 1_000),
    ];
    assert_eq!(
        assert_one_pass_matches(&cfgs, &counter_program(5_000), map_array),
        0
    );
}

#[test]
fn a_program_start_region_falls_back_behind_a_later_one() {
    let cfgs = [
        region("p", RegionTrigger::GlobalIcount(500), 500),
        region("p", RegionTrigger::ProgramStart, 2_000),
        region("p", RegionTrigger::ProgramStart, 300),
        region("p", RegionTrigger::GlobalIcount(3_000), 500),
    ];
    assert_eq!(
        assert_one_pass_matches(&cfgs, &counter_program(5_000), map_array),
        0
    );
}

#[test]
fn a_pc_count_region_gets_its_own_machine() {
    let prog = counter_program(5_000);
    let pc = prog.symbols["loop"];
    let cfgs = [
        region("pc", RegionTrigger::GlobalIcount(100), 1_000),
        region("pc", RegionTrigger::PcCount { pc, count: 400 }, 1_000),
        region("pc", RegionTrigger::GlobalIcount(8_000), 1_000),
        region("pc", RegionTrigger::PcCount { pc, count: 10 }, 500),
    ];
    assert_eq!(assert_one_pass_matches(&cfgs, &prog, map_array), 0);
}

#[test]
fn failed_regions_report_their_own_errors() {
    // The counter program retires about 45k instructions, then exits.
    let cfgs = [
        region("f", RegionTrigger::GlobalIcount(1_000), 1_000),
        region("f", RegionTrigger::GlobalIcount(10_000_000), 1_000),
        region("f", RegionTrigger::GlobalIcount(4_000), 1_000),
        region("f", RegionTrigger::GlobalIcount(20_000_000), 1_000),
    ];
    assert_eq!(
        assert_one_pass_matches(&cfgs, &counter_program(5_000), map_array),
        2
    );
}

#[test]
fn a_multi_threaded_program_matches_per_region_capture() {
    let prog = two_thread_program();
    // The first region ends before the child is spawned, so the second
    // one starts on the shared machine and sees the spawn there.
    let cfgs = [
        region("mt", RegionTrigger::GlobalIcount(1), 2),
        region("mt", RegionTrigger::GlobalIcount(200), 400),
        region("mt", RegionTrigger::GlobalIcount(900), 400),
        region("mt", RegionTrigger::GlobalIcount(1_500), 400),
    ];
    assert_eq!(assert_one_pass_matches(&cfgs, &prog, |_| {}), 0);
}
