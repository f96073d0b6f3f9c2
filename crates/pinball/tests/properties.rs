//! Property-based tests for the pinball format: arbitrary pinballs must
//! round-trip bit-exactly through both the bundle and the directory
//! serialisations, the consecutive-run grouping must partition the
//! image without loss, and arbitrary interval snapshots must round-trip
//! through their codec with `encoded_len` equal to the encoded size.
//! The page arena must share an allocation exactly between equal pages.

use elfie_pinball::{
    CacheSnap, KernelSnap, MemoryImage, PageArena, PageRecord, Pinball, PinballError, PinballMeta,
    RaceLog, RegImage, RegionInfo, RegionTrigger, Snapshot, SnapshotMeta, SyncPoint, SyscallEffect,
    ThreadRecord, ThreadSnap, ThreadStateSnap,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const PAGE: usize = 4096;

/// A page filled deterministically from `seed` (cheaper than a
/// 4096-byte random vector, still covers content round-tripping).
fn arb_page_bytes(seed: u64) -> [u8; PAGE] {
    let mut data = [0u8; PAGE];
    let mut x = seed | 1;
    for chunk in data.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    data
}

fn arb_page() -> impl Strategy<Value = PageRecord> {
    (0u8..8, any::<u64>()).prop_map(|(perm, seed)| PageRecord::new(perm, &arb_page_bytes(seed)))
}

fn arb_image() -> impl Strategy<Value = MemoryImage> {
    proptest::collection::btree_map(
        (0u64..1024).prop_map(|p| p * PAGE as u64),
        arb_page(),
        0..12,
    )
    .prop_map(|pages| MemoryImage { pages })
}

fn arb_regimage() -> impl Strategy<Value = RegImage> {
    (
        proptest::array::uniform16(any::<u64>()),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(gpr, rip, rflags, fs_base, gs_base)| RegImage {
            gpr,
            rip,
            rflags,
            fs_base,
            gs_base,
            xsave: vec![0xa5; elfie_isa::XSAVE_AREA_SIZE],
        })
}

fn arb_syscall() -> impl Strategy<Value = SyscallEffect> {
    (
        any::<u64>(),
        proptest::array::uniform6(any::<u64>()),
        any::<u64>(),
        proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
            0..4,
        ),
    )
        .prop_map(|(nr, args, ret, writes)| SyscallEffect {
            nr,
            args,
            ret,
            writes,
        })
}

fn arb_thread(tid: u32) -> impl Strategy<Value = ThreadRecord> {
    (
        arb_regimage(),
        proptest::collection::vec(arb_syscall(), 0..6),
        any::<bool>(),
    )
        .prop_map(move |(regs, syscalls, spawned)| ThreadRecord {
            tid,
            regs,
            syscalls,
            spawned,
        })
}

fn arb_pinball() -> impl Strategy<Value = Pinball> {
    (
        arb_image(),
        proptest::collection::vec(arb_syscall(), 0..3),
        any::<bool>(),
        any::<u64>(),
        proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..8),
    )
        .prop_flat_map(|(image, _sys, fat, brk, race)| {
            let races = RaceLog {
                order: race
                    .into_iter()
                    .map(|(tid, seq, addr)| SyncPoint {
                        tid: tid % 4,
                        seq,
                        addr,
                    })
                    .collect(),
            };
            (arb_thread(0), arb_thread(1)).prop_map(move |(t0, t1)| Pinball {
                meta: PinballMeta {
                    name: "prop".into(),
                    fat,
                    arch: "elfie-isa-v1".into(),
                    brk,
                    brk_start: brk & !0xfff,
                    cwd: "/w d/с".into(), // exercises non-ASCII paths too
                },
                region: RegionInfo {
                    name: "prop.0".into(),
                    trigger: RegionTrigger::GlobalIcount(brk ^ 7),
                    length: 12345,
                    thread_icounts: BTreeMap::from([(0, 100), (1, 200)]),
                    warmup: 11,
                    weight: 0.5,
                    slice_index: 3,
                },
                image: image.clone(),
                threads: vec![t0, t1],
                races: races.clone(),
                lazy_pages: BTreeMap::new(),
            })
        })
}

fn arb_thread_snap() -> impl Strategy<Value = ThreadSnap> {
    (
        (any::<u32>(), any::<u32>()),
        arb_regimage(),
        (0u8..3, any::<u64>()),
        (any::<u64>(), any::<u64>()),
        proptest::option::of(any::<u64>()),
        (any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(
                (machine_tid, orig_tid),
                regs,
                (tag, payload),
                (icount, cycles),
                exit_target,
                (exit_count, exit_fired),
            )| {
                ThreadSnap {
                    machine_tid,
                    orig_tid,
                    regs,
                    state: match tag {
                        0 => ThreadStateSnap::Runnable,
                        1 => ThreadStateSnap::FutexWait(payload),
                        _ => ThreadStateSnap::Exited(payload as i32),
                    },
                    icount,
                    cycles,
                    exit_target,
                    exit_count,
                    exit_fired,
                }
            },
        )
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let cache = (
        proptest::collection::vec(any::<u64>(), 0..16),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(tags, hits, misses)| CacheSnap { tags, hits, misses });
    let kernel = (
        any::<u64>(),
        any::<u64>(),
        ".*",
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(brk_start, brk, cwd, stdout)| KernelSnap {
            brk_start,
            brk,
            cwd,
            stdout,
        });
    (
        proptest::collection::vec(any::<u64>(), 9..10),
        proptest::collection::vec(arb_thread_snap(), 0..4),
        proptest::collection::btree_map(any::<u32>(), any::<u64>(), 0..4),
        kernel,
        proptest::collection::vec(cache, 0..3),
        arb_image(),
        proptest::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(
            |(m, threads, consumed_syscalls, kernel, caches, image, dropped)| Snapshot {
                meta: SnapshotMeta {
                    slice_index: m[0],
                    interval: m[1],
                    global_icount: m[2],
                    cycles: m[3],
                    fuel_spent: m[4],
                    race_ptr: m[5],
                    spawns_adopted: m[6],
                    injected_syscalls: m[7],
                    lazy_pages_injected: m[8],
                },
                threads,
                consumed_syscalls,
                kernel,
                caches,
                delta: image.pages,
                dropped,
            },
        )
}

fn assert_pinball_eq(a: &Pinball, b: &Pinball) {
    assert_eq!(a.meta.fat, b.meta.fat);
    assert_eq!(a.meta.brk, b.meta.brk);
    assert_eq!(a.meta.cwd, b.meta.cwd);
    assert_eq!(a.region.length, b.region.length);
    assert_eq!(a.region.thread_icounts, b.region.thread_icounts);
    assert_eq!(a.image, b.image);
    assert_eq!(a.threads, b.threads);
    assert_eq!(a.races, b.races);
    assert_eq!(a.lazy_pages, b.lazy_pages);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bundle_roundtrip(pb in arb_pinball()) {
        let bytes = pb.to_bytes();
        let back = Pinball::from_bytes(&bytes).expect("decodes");
        assert_pinball_eq(&pb, &back);
    }

    #[test]
    fn snapshot_roundtrip_and_encoded_len(s in arb_snapshot()) {
        let bytes = s.to_bytes();
        prop_assert_eq!(s.encoded_len(), bytes.len());
        prop_assert_eq!(Snapshot::from_bytes(&bytes).expect("decodes"), s);
    }

    #[test]
    fn dir_roundtrip(pb in arb_pinball()) {
        let dir = std::env::temp_dir().join(format!(
            "pb-prop-{}-{:x}",
            std::process::id(),
            pb.meta.brk ^ pb.region.trigger_hash()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        pb.save_dir(&dir).expect("saves");
        let back = Pinball::load_dir(&dir, "prop").expect("loads");
        assert_pinball_eq(&pb, &back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consecutive_runs_partition_the_image(pb in arb_pinball()) {
        let runs = pb.image.consecutive_runs();
        // Total bytes preserved.
        let run_bytes: u64 = runs.iter().map(|r| r.byte_len()).sum();
        prop_assert_eq!(run_bytes, pb.image.byte_size());
        // Runs are sorted, non-overlapping and perm-homogeneous.
        for w in runs.windows(2) {
            prop_assert!(w[0].end() <= w[1].start);
        }
        // Every page is recoverable from its run.
        for (&addr, page) in &pb.image.pages {
            let run = runs
                .iter()
                .find(|r| r.start <= addr && addr < r.end())
                .expect("page in some run");
            let idx = ((addr - run.start) / PAGE as u64) as usize;
            prop_assert_eq!(&run.pages[idx][..], &page.data[..]);
            prop_assert_eq!(run.perm, page.perm);
        }
    }

    #[test]
    fn truncation_at_any_offset_is_a_wire_error(pb in arb_pinball(), cut in any::<u64>()) {
        let bytes = pb.to_bytes();
        // Map the arbitrary cut onto a strict prefix of this bundle.
        let cut = (cut % bytes.len() as u64) as usize;
        match Pinball::from_bytes(&bytes[..cut]) {
            Err(PinballError::Wire(_)) => {}
            other => prop_assert!(false, "cut at {cut} gave {other:?}"),
        }
    }

    #[test]
    fn arena_shares_exactly_equal_pages(
        seeds in (0u64..4, 0u64..4),
        at in 0usize..PAGE,
        flip in 0u8..3,
    ) {
        // Few seeds and a flip that is often zero make equal pairs common.
        let arena = PageArena::new();
        let a = arb_page_bytes(seeds.0);
        let mut b = arb_page_bytes(seeds.1);
        b[at] ^= flip;
        let (pa, pb) = (arena.intern(&a), arena.intern(&b));
        prop_assert_eq!(Arc::ptr_eq(&pa, &pb), a == b);
        prop_assert!(pa[..] == a[..] && pb[..] == b[..]);
    }

    #[test]
    fn byte_flip_at_any_offset_is_a_wire_error(pb in arb_pinball(), at in any::<u64>(), bit in 0u8..8) {
        let mut bytes = pb.to_bytes();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        // The trailing checksum makes every single-byte corruption —
        // header, metadata, page payloads, the checksum itself — decode
        // to a WireError rather than a silently different pinball.
        match Pinball::from_bytes(&bytes) {
            Err(PinballError::Wire(_)) => {}
            other => prop_assert!(false, "flip at {at} bit {bit} gave {other:?}"),
        }
    }
}

/// Helper used by the dir_roundtrip temp-dir naming.
trait TriggerHash {
    fn trigger_hash(&self) -> u64;
}

impl TriggerHash for RegionInfo {
    fn trigger_hash(&self) -> u64 {
        match self.trigger {
            RegionTrigger::ProgramStart => 1,
            RegionTrigger::GlobalIcount(n) => n,
            RegionTrigger::PcCount { pc, count } => pc ^ count,
        }
    }
}
