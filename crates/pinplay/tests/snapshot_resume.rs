//! Interval-snapshot capture/resume bit-identity.
//!
//! The contract under test: a session resumed from a snapshot walks
//! exactly the state sequence the capturing session walked. We prove it
//! two ways — re-capturing at the next boundary must reproduce the next
//! snapshot *byte for byte*, and running the last slice to completion
//! must reproduce the serial replay's summary and final machine state
//! bit for bit. Each chain is also run with the VM block cache off, where
//! replay steps one instruction per batch: batched replay must produce
//! the same pinball, snapshots, summary and final machine.

use elfie_isa::{assemble, Fnv64};
use elfie_pinball::{RegImage, RegionTrigger, Snapshot};
use elfie_pinplay::{Logger, LoggerConfig, ReplayConfig, ReplaySummary, Replayer, SessionStep};
use elfie_vm::{Machine, MachineConfig, Observer};

fn counter_program(iters: u64) -> elfie_isa::Program {
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

fn two_thread_program() -> elfie_isa::Program {
    assemble(
        r#"
        .org 0x400000
        start:
            mov rax, 56
            mov rdi, 0
            mov rsi, 0x7f00200000
            syscall
            cmp rax, 0
            je child
        parent_work:
            mov rcx, 150
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
            mov rcx, 150
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

/// Maps the counter program's data array before capture.
fn map_array<O: Observer>(m: &mut Machine<O>) {
    m.mem
        .map_range(0x3000_0000, 0x3001_0000, elfie_vm::Perm::RW)
        .unwrap();
}

/// Architectural digest of a final machine: every mapped page (address,
/// permissions, contents), every thread's registers and counters, and the
/// machine-global counters.
fn machine_digest<O: Observer>(m: &Machine<O>) -> u64 {
    let mut h = Fnv64::new();
    for (addr, perm, bytes) in m.mem.pages() {
        h = h.u64(addr).u64(perm.bits() as u64).bytes(bytes);
    }
    for t in &m.threads {
        let regs = RegImage::from(&t.regs);
        for g in regs.gpr {
            h = h.u64(g);
        }
        h = h
            .u64(regs.rip)
            .u64(regs.rflags)
            .u64(regs.fs_base)
            .u64(regs.gs_base)
            .bytes(&regs.xsave)
            .u64(t.icount)
            .u64(t.cycles);
    }
    h.u64(m.global_icount()).u64(m.cycles()).finish()
}

/// Everything one capture-and-chain run produces.
struct ChainRun {
    pinball: Vec<u8>,
    snaps: Vec<Snapshot>,
    summary: ReplaySummary,
    digest: u64,
}

/// Captures a pinball with `capture` and checks its snapshot chain at
/// `interval` (see [`check_chain`]) twice: with the VM block cache on,
/// where replay and capture run as block batches, and off, where every
/// batch is one instruction and the run is the per-instruction reference.
/// The pinball, every snapshot (fuel and race-log position included), the
/// replay summary and the final machine must agree. Returns the chain
/// length.
fn check_chain_batched_vs_stepped(
    capture: impl Fn(MachineConfig) -> elfie_pinball::Pinball,
    interval: u64,
) -> usize {
    let [batched, stepped] = [true, false].map(|block_cache| {
        let machine = MachineConfig {
            block_cache,
            ..MachineConfig::default()
        };
        let pb = capture(machine.clone());
        let (snaps, summary, digest) = check_chain(&pb, interval, machine);
        ChainRun {
            pinball: pb.to_bytes(),
            snaps,
            summary,
            digest,
        }
    });
    assert!(
        batched.pinball == stepped.pinball,
        "captured pinball differs"
    );
    for (k, (a, b)) in batched.snaps.iter().zip(&stepped.snaps).enumerate() {
        assert_eq!(
            a, b,
            "snapshot {k} differs between batched and stepped replay"
        );
    }
    assert_eq!(
        batched.snaps.len(),
        stepped.snaps.len(),
        "chain length differs"
    );
    assert_eq!(batched.summary, stepped.summary, "replay summary differs");
    assert_eq!(batched.digest, stepped.digest, "final machine differs");
    batched.snaps.len()
}

/// Replays `pb` serially while capturing a snapshot every `interval`
/// instructions, then re-runs every slice from its snapshot and checks
/// each slice reproduces the next snapshot byte-for-byte (or, for the
/// last slice, the serial end state). Returns the chain, the serial
/// summary and the serial final-machine digest.
fn check_chain(
    pb: &elfie_pinball::Pinball,
    interval: u64,
    machine: MachineConfig,
) -> (Vec<Snapshot>, ReplaySummary, u64) {
    let replayer = Replayer::new(ReplayConfig {
        machine,
        ..ReplayConfig::default()
    });

    // Producer pass: serial run with interval captures.
    let mut session = replayer.session_with(pb, elfie_vm::NullObserver, None, |_| {});
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut boundary = interval;
    while let SessionStep::Paused = session.run_until(Some(boundary)) {
        snaps.push(session.capture(snaps.len() as u64 + 1, interval));
        boundary += interval;
    }
    let (serial_summary, serial_m) = session.finish();
    assert!(
        serial_summary.completed,
        "serial replay diverged: {:?}",
        serial_summary.divergence
    );
    let serial_digest = machine_digest(&serial_m);

    // Snapshots round-trip through their own codec.
    for s in &snaps {
        assert_eq!(&Snapshot::from_bytes(&s.to_bytes()).expect("decodes"), s);
    }

    // Consumer passes: each slice boots from its snapshot.
    for (k, snap) in snaps.iter().enumerate() {
        let mut slice = replayer.resume_with(pb, snap, elfie_vm::NullObserver, None);
        assert_eq!(slice.global_icount(), snap.meta.global_icount);
        match snaps.get(k + 1) {
            Some(next) => {
                assert_eq!(
                    slice.run_until(Some(next.meta.global_icount)),
                    SessionStep::Paused,
                    "slice {k} must pause at the next boundary"
                );
                let recapture = slice.capture(next.meta.slice_index, interval);
                assert_eq!(
                    recapture.to_bytes(),
                    next.to_bytes(),
                    "slice {k} re-capture must be byte-identical to snapshot {}",
                    k + 1
                );
            }
            None => {
                assert_eq!(slice.run_until(None), SessionStep::Done);
                let (sum, m) = slice.finish();
                assert_eq!(sum, serial_summary, "final slice summary != serial");
                assert_eq!(
                    machine_digest(&m),
                    serial_digest,
                    "final slice machine state != serial"
                );
            }
        }
    }
    (snaps, serial_summary, serial_digest)
}

/// Captures `length` instructions of the counter program from icount 50.
fn counter_region(length: u64) -> impl Fn(MachineConfig) -> elfie_pinball::Pinball {
    move |machine| {
        Logger::new(LoggerConfig {
            machine,
            ..LoggerConfig::fat("ctr", RegionTrigger::GlobalIcount(50), length)
        })
        .capture(&counter_program(5_000), map_array)
        .expect("captures")
    }
}

#[test]
fn single_thread_chain_is_bit_identical() {
    let n = check_chain_batched_vs_stepped(counter_region(5_000), 700);
    assert!(n >= 4, "expected several snapshots, got {n}");
}

#[test]
fn fine_interval_chain_is_bit_identical() {
    // Finer than the 64-insn scheduling slice: pauses land mid-thread-turn.
    let n = check_chain_batched_vs_stepped(counter_region(2_000), 150);
    assert!(n >= 10, "expected a long chain, got {n}");
}

#[test]
fn multithreaded_chain_with_races_is_bit_identical() {
    let capture = |machine| {
        let pb = Logger::new(LoggerConfig {
            machine,
            ..LoggerConfig::fat("mt", RegionTrigger::GlobalIcount(40), 1_200)
        })
        .capture(&two_thread_program(), |m| {
            m.mem
                .map_range(0x7f001f0000, 0x7f00200000, elfie_vm::Perm::RW)
                .unwrap();
        })
        .expect("captures");
        assert!(pb.threads.len() >= 2, "both threads captured");
        assert!(!pb.races.order.is_empty(), "atomic order recorded");
        pb
    };
    let n = check_chain_batched_vs_stepped(capture, 200);
    assert!(n >= 3, "expected several snapshots, got {n}");
}

#[test]
fn coarse_interval_produces_no_snapshots_and_matches_plain_replay() {
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        1_000,
    ))
    .capture(&counter_program(2_000), map_array)
    .expect("captures");
    let replayer = Replayer::new(ReplayConfig::default());
    let (plain, plain_m) = replayer.replay_full(&pb, |_| {});
    let mut session = replayer.session_with(&pb, elfie_vm::NullObserver, None, |_| {});
    assert_eq!(session.run_until(Some(u64::MAX)), SessionStep::Done);
    let (sum, m) = session.finish();
    assert_eq!(sum, plain);
    assert_eq!(machine_digest(&m), machine_digest(&plain_m));
}

#[test]
fn snapshot_delta_shrinks_with_position_independent_of_interval() {
    // The delta is cumulative vs. the boot image, so a snapshot taken at
    // the same icount must be identical no matter which interval schedule
    // produced it.
    let pb = Logger::new(LoggerConfig::fat(
        "ctr",
        RegionTrigger::GlobalIcount(50),
        4_000,
    ))
    .capture(&counter_program(5_000), map_array)
    .expect("captures");
    let replayer = Replayer::new(ReplayConfig::default());
    let capture_at = |boundary: u64| {
        let mut s = replayer.session_with(&pb, elfie_vm::NullObserver, None, |_| {});
        assert_eq!(s.run_until(Some(boundary)), SessionStep::Paused);
        s.capture(1, boundary)
    };
    let a = capture_at(2_000);
    let mut direct = capture_at(2_000);
    assert_eq!(a, direct);
    // Delta stays bounded by the pages the loop actually writes.
    assert!(
        a.delta.len() <= pb.image.page_count() + 4,
        "delta has {} pages",
        a.delta.len()
    );
    direct.meta.interval = 0; // meta differences only affect meta bytes
    assert_ne!(a.to_bytes(), direct.to_bytes());
}

#[test]
fn a_zero_boot_page_remapped_by_mmap_stays_out_of_the_delta() {
    // The region unmaps a zero page of the boot image and maps it again:
    // the fresh mapping reads as zeros, like the boot page, so it is
    // clean even though its frame is not the boot image's payload.
    let prog = assemble(
        r#"
        .org 0x400000
        start:
            mov rax, 11          ; munmap
            mov rdi, 0x30000000
            mov rsi, 0x1000
            syscall
            mov rax, 9           ; mmap the same page again
            mov rdi, 0x30000000
            mov rsi, 0x1000
            mov rdx, 3
            mov r10, 0x22
            mov r8, 0xffffffffffffffff
            mov r9, 0
            syscall
            mov r12, rax
            mov rcx, 200
        spin:
            sub rcx, 1
            cmp rcx, 0
            jne spin
            mov rax, 231
            mov rdi, 0
            syscall
        "#,
    )
    .expect("assembles");
    let pb = Logger::new(LoggerConfig::fat("remap", RegionTrigger::ProgramStart, 500))
        .capture(&prog, map_array)
        .expect("captures");
    assert!(
        pb.image.pages.contains_key(&0x3000_0000),
        "a zero boot page"
    );
    let replayer = Replayer::new(ReplayConfig::default());
    let mut s = replayer.session_with(&pb, elfie_vm::NullObserver, None, |_| {});
    assert_eq!(s.run_until(Some(100)), SessionStep::Paused);
    let snap = s.capture(1, 100);
    assert!(
        !snap.dropped.contains(&0x3000_0000),
        "the page is mapped again"
    );
    assert!(
        !snap.delta.contains_key(&0x3000_0000),
        "the re-mapped zero page is clean"
    );
}
