//! Integration tests for the content-addressed store: bit-identical
//! round-trips (property-tested), corruption detection, and gc safety.

use elfie_pinball::wire::WireError;
use elfie_pinball::{
    CacheSnap, KernelSnap, MemoryImage, PageData, PageRecord, PageSource, Pinball, PinballError,
    PinballMeta, RaceLog, RegImage, RegionInfo, RegionTrigger, Snapshot, SnapshotMeta,
    ThreadRecord,
};
use elfie_store::{ObjectKind, Store, StoreError, StoreStats};
use elfie_trace::{TraceMode, Tracer};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

#[test]
fn object_ids_of_fixed_inputs_are_pinned() {
    // Object ids are hashes of the manifest bytes, which name every blob
    // by its content hash: a change to the manifest layout, the blob
    // naming or the page order moves these literals.
    let dir = tmp("format-pin");
    let store = Store::open(&dir).unwrap();
    let pb = make_pinball("pin", &[0, 0, 1, 2, 0, 1]);
    let (s1, s2) = fixture_snapshots();
    let id1 = store.put_snapshot("snap.1", &s1, None).unwrap();
    let ids = [
        store.put_pinball("pin", &pb).unwrap(),
        id1,
        store.put_snapshot("snap.2", &s2, Some(id1)).unwrap(),
        store.put_elfie("image.elfie", &fixture_elfie()).unwrap(),
    ];
    assert_eq!(
        ids.map(|id| id.to_string()),
        [
            "6cefae93b1a835ce",
            "d689403400dcd612",
            "710da56a9989a548",
            "ae8bfe2b0f7a7581"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The args of every `store/<name>` event `tracer` recorded, in order.
fn store_events(tracer: &Tracer, name: &str) -> Vec<BTreeMap<&'static str, u64>> {
    let data = tracer.collect();
    let mut events: Vec<_> = data
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.cat == "store" && e.name == name)
        .collect();
    events.sort_by_key(|e| e.ts_ns);
    events
        .iter()
        .map(|e| e.args.entries().iter().copied().collect())
        .collect()
}

/// The path of the blob holding the page payload `rec`.
fn page_blob_path(dir: &Path, rec: &PageRecord) -> PathBuf {
    let hex = format!("{:016x}", elfie_isa::xxh64(&rec.data[..]));
    dir.join("blobs").join(&hex[..2]).join(hex + ".blob")
}

#[test]
fn a_get_reads_each_distinct_blob_once() {
    let dir = tmp("distinct-reads");
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let store = Store::open(&dir).unwrap().with_tracer(Arc::clone(&tracer));
    let seeds: Vec<u64> = (0..1200).map(|i| [0, 0xa1, 0xa2][i % 3]).collect();
    let pb = make_pinball("many", &seeds);
    store.put_pinball("many", &pb).unwrap();
    let back = store.get_pinball("many").unwrap();
    assert_eq!(back.to_bytes(), pb.to_bytes(), "bit-identical bundle");

    // Equal pages share one allocation: three payloads in all.
    let mut payloads: Vec<&PageData> = Vec::new();
    for p in back.image.pages.values().chain(back.lazy_pages.values()) {
        match payloads.iter().find(|d| ***d == p.data) {
            Some(d) => assert!(Arc::ptr_eq(d, &p.data), "a repeated page is shared"),
            None => payloads.push(&p.data),
        }
    }
    assert_eq!(payloads.len(), 3);

    // Three page blobs and the skeleton, read once each.
    let gets = store_events(&tracer, "get_pinball");
    assert_eq!(gets.len(), 1);
    assert_eq!(gets[0]["pages"], 1201);
    assert_eq!(gets[0]["blobs_read"], 4);
    assert_eq!(store_events(&tracer, "put_pinball")[0]["blobs"], 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_shared_blob_still_fails_the_get_and_is_repaired_by_a_put() {
    let dir = tmp("corrupt-shared");
    let store = Store::open(&dir).unwrap();
    let seeds: Vec<u64> = (0..1000)
        .map(|i| if i % 10 == 0 { 0x51 } else { 0xb0b0 })
        .collect();
    let pb = make_pinball("shared", &seeds);
    store.put_pinball("shared", &pb).unwrap();

    // Give the blob most pages name the bytes of another, valid blob.
    let shared = page_blob_path(&dir, &page(0xb0b0, 0));
    let other = page_blob_path(&dir, &page(0x51, 0));
    std::fs::copy(&other, &shared).unwrap();
    assert!(matches!(
        store.get_pinball("shared"),
        Err(StoreError::Corrupt(_))
    ));
    assert!(!shared.exists(), "the corrupt blob is removed");
    assert!(other.exists(), "the sound blob stays");

    store.put_pinball("shared", &pb).unwrap();
    assert_eq!(
        store.get_pinball("shared").unwrap().to_bytes(),
        pb.to_bytes()
    );
    assert!(store.verify().unwrap().is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_lazy_handle_reads_a_live_payload_once() {
    let dir = tmp("lazy-memo");
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let store = Store::open(&dir).unwrap().with_tracer(Arc::clone(&tracer));
    // Two addresses backed by one blob, whose payload nothing else in
    // the process holds once the source pinball is dropped.
    let mut pb = make_pinball("lazy", &[0x1a2b_3c4d, 0x1a2b_3c4d]);
    pb.lazy_pages.clear();
    let addrs: Vec<u64> = pb.image.pages.keys().copied().collect();
    store.put_pinball("lazy", &pb).unwrap();
    drop(pb);
    let lazy = store.get_pinball_lazy("lazy").unwrap();
    let fetches = || store_events(&tracer, "lazy_fetch").len();

    let first = lazy.fetch_page(addrs[0]).unwrap();
    let second = lazy.clone().fetch_page(addrs[1]).unwrap();
    assert_eq!(fetches(), 1, "a live payload is not read again");
    assert!(Arc::ptr_eq(&first.data, &second.data));

    // The handle holds its payloads weakly: once every returned page is
    // gone, the next fault reads the blob again.
    drop((first, second));
    let again = lazy.fetch_page(addrs[1]).unwrap();
    assert_eq!(fetches(), 2);
    assert_eq!(again.data, page(0x1a2b_3c4d, 0).data);
    std::fs::remove_dir_all(&dir).ok();
}
