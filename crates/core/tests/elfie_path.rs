//! The ELFie path pinned end to end: the bytes `convert` writes and what
//! `measure_elfie` observes running them, for the representative region
//! of a pointer-chasing, a streaming and a multi-threaded workload. A
//! change to how images are parsed, loaded or started must keep every
//! literal. A change to the file layout alone (where `convert` places
//! section data) may move the image digests, never the measurements.

use elfie::prelude::*;
use elfie::workloads::{find_workload, InputScale};

const FUEL: u64 = 50_000_000;
const SEED: u64 = 42;

/// The first candidate of cluster 0, captured and converted with the
/// standard recipe, plus its warm-up length and image page count.
fn representative(name: &str) -> (Elfie, SysState, u64, usize) {
    let w = find_workload(name, InputScale::Test).expect("known workload");
    let cfg = PinPointsConfig {
        slice_size: 5_000,
        warmup: 2_000,
        max_k: 6,
        ..PinPointsConfig::default()
    };
    let points = elfie::pipeline::select_regions(&w, &cfg, FUEL);
    let point = *points.candidates(0)[0];
    let pb = elfie::pipeline::capture_pinpoint(&w, &point).expect("captures");
    let (elfie, st) = elfie::pipeline::make_elfie(&pb, MarkerKind::Ssc).expect("converts");
    (elfie, st, point.warmup, pb.image.pages.len())
}

fn measure(elfie: &Elfie, st: &SysState, warmup: u64) -> NativeMeasurement {
    measure_elfie(&elfie.bytes, MarkerKind::Ssc, warmup, SEED, FUEL, |m| {
        st.stage_files(m)
    })
    .expect("loads")
}

#[test]
fn elfie_bytes_and_measurements_are_pinned() {
    let pinned: [(&str, u64, u64, u64, &str); 3] = [
        (
            "gcc_like",
            0x48ea_7c6a_6912_46de,
            5002,
            5302,
            "AllExited(0)",
        ),
        ("xz_like", 0x713c_73ac_ed86_592e, 5002, 5422, "AllExited(0)"),
        (
            "imagick_s_like",
            0xc6c5_d3af_3cae_ef1a,
            5098,
            6028,
            "AllExited(0)",
        ),
    ];
    let mut got = Vec::new();
    for (name, ..) in pinned {
        let (elfie, st, warmup, _) = representative(name);
        let m = measure(&elfie, &st, warmup);
        got.push((
            name,
            elfie::isa::xxh64(&elfie.bytes),
            m.insns,
            m.cycles,
            format!("{:?}", m.exit),
        ));
    }
    let got_refs: Vec<(&str, u64, u64, u64, &str)> = got
        .iter()
        .map(|(n, h, i, c, e)| (*n, *h, *i, *c, e.as_str()))
        .collect();
    assert_eq!(got_refs, pinned);
}

#[test]
fn measuring_an_elfie_copies_only_the_pages_it_writes() {
    // The startup remaps every pinball page from its shadow section with
    // a whole-page `rep movs` into a fresh `mmap`: both must be free, so
    // only the pages the region writes (and the loader's stack) become
    // private copies.
    let (elfie, st, warmup, pages) = representative("gcc_like");
    let m = measure(&elfie, &st, warmup);
    assert!(m.completed);
    let image_bytes = pages as u64 * elfie::isa::PAGE_SIZE;
    let peak = m.fastpath.mat.peak_owned_bytes;
    assert!(
        peak * 4 < image_bytes,
        "peak owned {peak} bytes of a {image_bytes}-byte image"
    );
}

#[test]
fn an_elfie_holds_each_page_once() {
    let (elfie, st, warmup, pages) = representative("gcc_like");
    let image = &elfie.bytes;
    let f = elfie::elf::ElfFile::parse(image).expect("parses");
    let range = |data: &[u8]| (data.as_ptr() as usize - image.as_ptr() as usize, data.len());
    let mut originals = 0;
    for shadow in f.sections.iter().filter(|s| s.name.starts_with(".shadow.")) {
        let at = shadow.name.trim_start_matches(".shadow.");
        let original = f
            .sections
            .iter()
            .find(|s| !s.alloc && s.name.ends_with(&format!(".{at}")))
            .expect("every shadow has its original");
        assert_eq!(
            range(original.data),
            range(shadow.data),
            "{}",
            original.name
        );
        originals += 1;
    }
    assert_eq!(originals, elfie.stats.remapped_runs);
    let page_bytes = pages as u64 * elfie::isa::PAGE_SIZE;
    assert!(
        elfie.stats.elf_bytes < page_bytes + (1 << 20),
        "{} image bytes for {page_bytes} page bytes",
        elfie.stats.elf_bytes
    );
    let m = measure(&elfie, &st, warmup);
    assert_eq!(format!("{:?}", m.exit), "AllExited(0)");
}
