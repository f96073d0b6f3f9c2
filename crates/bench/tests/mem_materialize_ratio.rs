//! Enforces the zero-copy materialization path's page-byte reductions
//! *after replay*, once the region has broken its copy-on-write pages.
//! The gated `mem_materialize` scenario (`BENCH_mem.json`) only boots,
//! so this is the one check of post-replay residency; `cargo test` (and
//! CI) fails if it regresses:
//!
//! * a shared-arena boot allocates < 20% of the page bytes a deep-copy
//!   boot does (after the region has run and broken its CoW pages), and
//! * an 8-worker fleet sees a ≥ 4× reduction in resident page bytes.

use elfie::pinball::Pinball;
use elfie::pinplay::{BootMode, Logger, LoggerConfig, ReplayConfig, Replayer};
use elfie::vm::MaterializeStats;

const WORKERS: usize = 8;

fn capture() -> Pinball {
    let w = elfie::workloads::gcc_like(4);
    let logger = Logger::new(LoggerConfig::fat(
        &w.name,
        elfie::pinball::RegionTrigger::GlobalIcount(50_000),
        20_000,
    ));
    logger
        .capture(&w.program, |m| w.setup(m))
        .expect("captures")
}

/// Replays the checkpoint once and returns its materialization counters.
fn replay_stats(pb: &Pinball, boot: BootMode) -> MaterializeStats {
    let r = Replayer::new(ReplayConfig {
        boot,
        ..ReplayConfig::default()
    });
    let (summary, m) = r.replay_full(pb, |_| {});
    assert!(summary.completed, "replay must complete");
    m.fastpath_stats().mat
}

#[test]
fn shared_arena_boot_allocates_under_20_percent_of_deep_copy() {
    let pb = capture();
    let deep = replay_stats(&pb, BootMode::DeepCopy);
    let shared = replay_stats(&pb, BootMode::Shared);
    assert_eq!(deep.shared_pages, 0);
    assert_eq!(shared.pages_mapped, deep.pages_mapped);
    assert!(
        deep.peak_owned_bytes > 0,
        "deep-copy boot must own every page"
    );
    assert!(
        shared.peak_owned_bytes * 5 < deep.peak_owned_bytes,
        "shared boot owns {} bytes, deep-copy {} — want < 20%",
        shared.peak_owned_bytes,
        deep.peak_owned_bytes,
    );
}

#[test]
fn eight_worker_fleet_sees_at_least_4x_page_byte_reduction() {
    let pb = capture();
    let fleet = |boot: BootMode| -> u64 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| s.spawn(|| replay_stats(&pb, boot).peak_owned_bytes))
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        })
    };
    let deep_total = fleet(BootMode::DeepCopy);
    let shared_total = fleet(BootMode::Shared);
    assert!(
        shared_total * 4 <= deep_total,
        "8-worker resident page bytes: shared {shared_total}, deep-copy {deep_total} — want >= 4x reduction",
    );
}
