//! Integration tests for the content-addressed store: bit-identical
//! round-trips (property-tested), corruption detection, and gc safety.

use elfie_pinball::wire::WireError;
use elfie_pinball::{
    CacheSnap, KernelSnap, MemoryImage, PageRecord, PageSource, Pinball, PinballError, PinballMeta,
    RaceLog, RegImage, RegionInfo, RegionTrigger, Snapshot, SnapshotMeta, ThreadRecord,
};
use elfie_store::{ObjectKind, Store, StoreError, StoreStats};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const PAGE: usize = 4096;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("elfie-store-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Deterministic page payload from a seed: seed 0 is a zero page (the
/// common fat-pinball case), other seeds are xorshift noise.
fn page(seed: u64, perm: u8) -> PageRecord {
    let mut data = vec![0u8; PAGE];
    if seed != 0 {
        let mut x = seed;
        for chunk in data.chunks_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
    }
    PageRecord::from_slice(perm, &data).expect("page-sized buffer")
}

/// A synthetic fat pinball whose image pages come from `page_seeds`.
fn make_pinball(name: &str, page_seeds: &[u64]) -> Pinball {
    let mut image = MemoryImage::new();
    for (i, &seed) in page_seeds.iter().enumerate() {
        image
            .pages
            .insert(0x40_0000 + (i * PAGE) as u64, page(seed, 0b101));
    }
    let mut lazy_pages = BTreeMap::new();
    lazy_pages.insert(
        0x7f00_0000u64,
        page(page_seeds.first().copied().unwrap_or(0), 0b011),
    );
    let mut regs = RegImage {
        gpr: [0; 16],
        rip: 0x40_0010,
        rflags: 0x202,
        fs_base: 0x7000,
        gs_base: 0,
        xsave: vec![0xa5; elfie_isa::XSAVE_AREA_SIZE],
    };
    regs.gpr[4] = 0x7fff_f000;
    Pinball {
        meta: PinballMeta {
            name: name.to_string(),
            fat: true,
            arch: "elfie-isa-v1".into(),
            brk: 0x60_0000,
            brk_start: 0x60_0000,
            cwd: "/work".into(),
        },
        region: RegionInfo {
            name: format!("{name}.0"),
            trigger: RegionTrigger::GlobalIcount(10_000),
            length: 50_000,
            thread_icounts: BTreeMap::from([(0, 10_000)]),
            warmup: 1_000,
            weight: 1.0,
            slice_index: 0,
        },
        image,
        threads: vec![ThreadRecord {
            tid: 0,
            regs,
            syscalls: Vec::new(),
            spawned: false,
        }],
        races: RaceLog::default(),
        lazy_pages,
    }
}

#[test]
fn pinball_roundtrip_is_bit_identical() {
    let dir = tmp("pb-rt");
    let store = Store::open(&dir).unwrap();
    let pb = make_pinball("r0", &[0, 0, 1, 2, 0]);
    store.put_pinball("r0", &pb).unwrap();
    let back = store.get_pinball("r0").unwrap();
    assert_eq!(back.to_bytes(), pb.to_bytes(), "bit-identical bundle");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fat_regions_of_one_workload_dedup() {
    let dir = tmp("dedup");
    let store = Store::open(&dir).unwrap();
    // Three regions of the same workload: identical address space, one
    // private dirty page each — the fat-pinball redundancy pattern.
    for (i, dirty) in [11u64, 22, 33].iter().enumerate() {
        let pb = make_pinball(&format!("r{i}"), &[0, 0, 1, 2, *dirty]);
        store.put_pinball(&format!("r{i}"), &pb).unwrap();
    }
    let s = store.stats().unwrap();
    assert_eq!(s.objects, 3);
    assert!(
        s.dedup_ratio() > 1.5,
        "shared pages should dedup, got {:.2}x",
        s.dedup_ratio()
    );
    assert!(s.physical_bytes < s.logical_bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_catches_a_single_flipped_byte_in_any_blob() {
    let dir = tmp("flip");
    let store = Store::open(&dir).unwrap();
    let pb = make_pinball("v0", &[0, 5, 6]);
    store.put_pinball("v0", &pb).unwrap();
    assert!(store.verify().unwrap().is_ok());

    // Enumerate every blob file and flip one byte in each position class:
    // for each blob, flip a byte somewhere in the middle and at the end.
    let mut blob_files = Vec::new();
    for shard in std::fs::read_dir(dir.join("blobs")).unwrap() {
        for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            blob_files.push(f.unwrap().path());
        }
    }
    assert!(!blob_files.is_empty());
    for path in &blob_files {
        let orig = std::fs::read(path).unwrap();
        for at in [0, orig.len() / 2, orig.len() - 1] {
            let mut bad = orig.clone();
            bad[at] ^= 0x40;
            std::fs::write(path, &bad).unwrap();
            let report = store.verify().unwrap();
            assert!(
                !report.is_ok(),
                "flip at {at} of {} went undetected",
                path.display()
            );
        }
        std::fs::write(path, &orig).unwrap();
    }
    assert!(store.verify().unwrap().is_ok(), "restored store is clean");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_never_collects_a_referenced_blob() {
    let dir = tmp("gc");
    let store = Store::open(&dir).unwrap();
    // Two pinballs share pages 0/1/2; each has a private page.
    let keep = make_pinball("keep", &[0, 1, 2, 77]);
    let drop_ = make_pinball("drop", &[0, 1, 2, 88]);
    store.put_pinball("keep", &keep).unwrap();
    store.put_pinball("drop", &drop_).unwrap();

    // gc with both refs live must delete nothing.
    let report = store.gc().unwrap();
    assert_eq!((report.manifests_removed, report.blobs_removed), (0, 0));

    // Dropping one ref frees only what the survivor does not reference.
    assert!(store.remove("drop").unwrap());
    let report = store.gc().unwrap();
    assert_eq!(report.manifests_removed, 1);
    assert!(report.blobs_removed >= 1, "private page swept");

    // The survivor is intact, byte for byte, and the store verifies.
    let back = store.get_pinball("keep").unwrap();
    assert_eq!(back.to_bytes(), keep.to_bytes());
    assert!(store.verify().unwrap().is_ok());
    assert!(!store.contains("drop"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn elfie_bytes_roundtrip_and_list() {
    let dir = tmp("elfie");
    let store = Store::open(&dir).unwrap();
    let image: Vec<u8> = b"\x7fELF"
        .iter()
        .copied()
        .chain((0..20_000u32).map(|i| (i % 251) as u8))
        .collect();
    store.put_elfie("w.0.elfie", &image).unwrap();
    assert_eq!(store.get_elfie("w.0.elfie").unwrap(), image);
    let ls = store.list().unwrap();
    assert_eq!(ls.len(), 1);
    assert_eq!(ls[0].kind, ObjectKind::Elfie);
    assert_eq!(ls[0].logical_bytes, image.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_pinball_roundtrips_bit_identically(
        seeds in proptest::collection::vec(any::<u64>(), 0..10),
        salt in any::<u32>(),
    ) {
        let dir = tmp(&format!("prop-{salt:x}"));
        let store = Store::open(&dir).unwrap();
        let pb = make_pinball("p", &seeds);
        store.put_pinball("p", &pb).unwrap();
        let back = store.get_pinball("p").unwrap();
        prop_assert_eq!(back.to_bytes(), pb.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_byte_stream_roundtrips_bit_identically(
        data in proptest::collection::vec(any::<u8>(), 0..20_000),
        salt in any::<u32>(),
    ) {
        let dir = tmp(&format!("prop-raw-{salt:x}"));
        let store = Store::open(&dir).unwrap();
        store.put_elfie("e", &data).unwrap();
        prop_assert_eq!(store.get_elfie("e").unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn any_snapshot_delta_reconstructs_bit_identically(
        // Per boot page: 0 = clean, 1 = dirtied (new content), 2 = dropped.
        fates in proptest::collection::vec(0u8..3, 0..8),
        extra in proptest::collection::vec(any::<u64>(), 0..4),
        salt in any::<u32>(),
    ) {
        let dir = tmp(&format!("prop-snap-{salt:x}"));
        let store = Store::open(&dir).unwrap();
        let boot = make_pinball("p", &(1..=fates.len() as u64).collect::<Vec<_>>()).image;
        let mut s = Snapshot {
            meta: SnapshotMeta { slice_index: 1, global_icount: 1234, ..Default::default() },
            ..Default::default()
        };
        let mut expect = boot.pages.clone();
        for (i, (&fate, (&addr, _))) in fates.iter().zip(&boot.pages).enumerate() {
            match fate {
                1 => {
                    let rec = page(0x9000 + i as u64, 0b011);
                    s.delta.insert(addr, rec.clone());
                    expect.insert(addr, rec);
                }
                2 => {
                    s.dropped.push(addr);
                    expect.remove(&addr);
                }
                _ => {}
            }
        }
        for (i, seed) in extra.iter().enumerate() {
            // Newly-mapped pages outside the boot image.
            let addr = 0x9000_0000 + (i * PAGE) as u64;
            let rec = page(*seed, 0b111);
            s.delta.insert(addr, rec.clone());
            expect.insert(addr, rec);
        }
        store.put_snapshot("s", &s, None).unwrap();
        let (back, parent) = store.get_snapshot("s").unwrap();
        prop_assert_eq!(parent, None);
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_bytes(), s.to_bytes());
        prop_assert_eq!(back.reconstruct_pages(&boot), expect);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn empty_delta_snapshot_reconstructs_the_boot_image() {
    let dir = tmp("snap-empty");
    let store = Store::open(&dir).unwrap();
    let boot = make_pinball("p", &[1, 2, 3]).image;
    let s = Snapshot::default();
    store.put_snapshot("s", &s, None).unwrap();
    let (back, _) = store.get_snapshot("s").unwrap();
    assert!(back.delta.is_empty());
    assert_eq!(back.reconstruct_pages(&boot), boot.pages);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_pages_dirty_snapshot_overrides_every_boot_page() {
    let dir = tmp("snap-all-dirty");
    let store = Store::open(&dir).unwrap();
    let boot = make_pinball("p", &[1, 2, 3, 4]).image;
    let mut s = Snapshot::default();
    for (i, &addr) in boot.pages.keys().collect::<Vec<_>>().iter().enumerate() {
        s.delta.insert(*addr, page(0x77 + i as u64, 0b011));
    }
    store.put_snapshot("s", &s, None).unwrap();
    let (back, _) = store.get_snapshot("s").unwrap();
    let pages = back.reconstruct_pages(&boot);
    assert_eq!(pages.len(), boot.pages.len());
    for (addr, rec) in &pages {
        assert_eq!(rec.data, s.delta[addr].data, "page {addr:#x} overridden");
        assert_ne!(rec.data, boot.pages[addr].data);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The checked-in format 1 store (FNV-64 ids) an earlier build wrote,
/// with a bundle version 2 pinball and a snapshot version 1 file beside
/// it. `fixtures/v1/README.md` records how they were made.
fn v1_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// Overwrites the format version word of the file at `path`.
fn set_version(path: &Path, version: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// The fixture's snapshot chain: `slice` 1 and 2, one page each of
/// constant `fills`, and kernel, syscall and cache state that varies
/// with the slice.
fn chain_snapshot(slice: u64, fills: &[(u64, u8)], dropped: &[u64]) -> Snapshot {
    Snapshot {
        meta: SnapshotMeta {
            slice_index: slice,
            interval: 1000,
            global_icount: slice * 1000,
            cycles: slice * 1500,
            ..Default::default()
        },
        consumed_syscalls: BTreeMap::from([(0, slice)]),
        kernel: KernelSnap {
            brk_start: 0x60_0000,
            brk: 0x60_0000 + slice * PAGE as u64,
            cwd: "/work".into(),
            stdout: format!("slice {slice}\n").into_bytes(),
        },
        caches: vec![CacheSnap {
            tags: vec![u64::MAX, slice, 2],
            hits: slice * 10,
            misses: slice,
        }],
        delta: fills
            .iter()
            .map(|&(addr, fill)| (addr, PageRecord::new(0b011, &[fill; PAGE])))
            .collect(),
        dropped: dropped.to_vec(),
        ..Default::default()
    }
}

fn fixture_snapshots() -> (Snapshot, Snapshot) {
    (
        chain_snapshot(1, &[(0x40_0000, 7)], &[]),
        chain_snapshot(2, &[(0x40_0000, 7), (0x40_2000, 9)], &[0x40_1000]),
    )
}

fn fixture_elfie() -> Vec<u8> {
    b"\x7fELF"
        .iter()
        .copied()
        .chain((0..6_000u32).map(|i| (i % 251) as u8))
        .collect()
}

#[test]
fn format_1_store_reads_verifies_and_collects() {
    let dir = tmp("v1-store");
    copy_dir(&v1_fixture().join("store"), &dir);
    let store = Store::open(&dir).unwrap();

    // Every object reads back bit for bit.
    let pb = make_pinball("pinball", &[0, 0, 1, 2, 0]);
    assert_eq!(
        store.get_pinball("pinball").unwrap().to_bytes(),
        pb.to_bytes()
    );
    let lazy = store.get_pinball_lazy("pinball").unwrap();
    let mut skeleton = pb.clone();
    skeleton.image = MemoryImage::new();
    skeleton.lazy_pages.clear();
    assert_eq!(lazy.skeleton.to_bytes(), skeleton.to_bytes());
    assert_eq!(
        lazy.page_count(),
        pb.image.pages.len() + pb.lazy_pages.len()
    );
    for (&addr, rec) in pb.image.pages.iter().chain(&pb.lazy_pages) {
        assert_eq!(lazy.fetch_page(addr).as_ref(), Some(rec), "page {addr:#x}");
    }
    let (s1, s2) = fixture_snapshots();
    let listed = store.list().unwrap();
    let id1 = listed.iter().find(|e| e.name == "snap.1").unwrap().id;
    assert_eq!(store.get_snapshot("snap.1").unwrap(), (s1, None));
    assert_eq!(store.get_snapshot("snap.2").unwrap(), (s2, Some(id1)));
    assert_eq!(store.get_elfie("image.elfie").unwrap(), fixture_elfie());

    // verify is clean, and list and stats agree with each other and with
    // the figures the writing build reported for this store.
    let report = store.verify().unwrap();
    assert!(report.is_ok(), "{report}");
    assert_eq!(
        (
            report.blobs_checked,
            report.objects_checked,
            report.refs_checked
        ),
        (10, 4, 4)
    );
    let stats = store.stats().unwrap();
    assert_eq!(
        stats,
        StoreStats {
            objects: 4,
            blobs: 10,
            logical_bytes: 44_381,
            unique_bytes: 27_997,
            physical_bytes: 9_343,
        }
    );
    assert_eq!(listed.len(), stats.objects);
    assert_eq!(
        listed.iter().map(|e| e.logical_bytes).sum::<u64>(),
        stats.logical_bytes
    );

    // A new put writes format 2 beside the old objects. Dedup does not
    // cross versions: the pinball's three distinct pages and its skeleton
    // become four new blobs.
    store.put_pinball("pinball.v2", &pb).unwrap();
    assert_eq!(
        store.get_pinball("pinball.v2").unwrap().to_bytes(),
        pb.to_bytes()
    );
    assert!(store.verify().unwrap().is_ok());
    assert_eq!(store.stats().unwrap().blobs, 14);

    // Dropping the format 1 ref sweeps exactly its manifest and blobs;
    // the format 2 copy stays whole.
    assert!(store.remove("pinball").unwrap());
    let gc = store.gc().unwrap();
    assert_eq!((gc.manifests_removed, gc.blobs_removed), (1, 4));
    assert_eq!(
        store.get_pinball("pinball.v2").unwrap().to_bytes(),
        pb.to_bytes()
    );
    let report = store.verify().unwrap();
    assert!(report.is_ok(), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_bundle_and_snapshot_files_decode() {
    let bundle = std::fs::read(v1_fixture().join("exchange2_like.pbal")).unwrap();
    assert_eq!(bundle[4..8], 2u32.to_le_bytes(), "bundle version 2");
    let pb = Pinball::from_bytes(&bundle).unwrap();
    assert_eq!(
        (pb.region.name.as_str(), pb.region.length),
        ("exchange2_like.0", 3000)
    );
    let rewritten = pb.to_bytes();
    assert_eq!(rewritten[4..8], elfie_pinball::BUNDLE_VERSION.to_le_bytes());
    assert_eq!(
        Pinball::from_bytes(&rewritten).unwrap().to_bytes(),
        rewritten
    );

    let snap = std::fs::read(v1_fixture().join("snapshot.v1.bin")).unwrap();
    assert_eq!(snap[4..8], 1u32.to_le_bytes(), "snapshot version 1");
    assert_eq!(Snapshot::from_bytes(&snap).unwrap(), fixture_snapshots().1);
}

#[test]
fn unknown_format_versions_still_fail() {
    let mut bundle = std::fs::read(v1_fixture().join("exchange2_like.pbal")).unwrap();
    bundle[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Pinball::from_bytes(&bundle),
        Err(PinballError::Wire(WireError::BadVersion(99)))
    ));
    let mut snap = std::fs::read(v1_fixture().join("snapshot.v1.bin")).unwrap();
    snap[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(Snapshot::from_bytes(&snap), Err(WireError::BadVersion(99)));

    let dir = tmp("v99-store");
    copy_dir(&v1_fixture().join("store"), &dir);
    let store = Store::open(&dir).unwrap();
    let id = std::fs::read_to_string(dir.join("refs/pinball")).unwrap();
    set_version(&dir.join(format!("objects/{}.mf", id.trim())), 99);
    assert!(matches!(
        store.get_pinball("pinball"),
        Err(StoreError::Wire(WireError::BadVersion(99)))
    ));
    for shard in std::fs::read_dir(dir.join("blobs")).unwrap() {
        for blob in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            set_version(&blob.unwrap().path(), 99);
        }
    }
    assert!(matches!(
        store.get_elfie("image.elfie"),
        Err(StoreError::Wire(WireError::BadVersion(99)))
    ));
    assert!(matches!(
        store.stats(),
        Err(StoreError::Wire(WireError::BadVersion(99)))
    ));
    assert_eq!(store.verify().unwrap().errors.len(), 10 + 1 + 1);
    std::fs::remove_dir_all(&dir).ok();
}
