//! Writer → reader round-trip over an ELFie-shaped image: the section,
//! symbol and segment conventions pinball2elf emits (per-address
//! `.text.*`/`.data.*` sections, a non-allocatable shadow stack, per-thread
//! register symbols, an ROI-marker symbol) must survive serialisation
//! exactly, and the image must load into a machine at the right addresses.

use elfie_elf::{load, ElfBuilder, ElfFile, LoaderConfig, SectionSpec, EM_ELFIE, ET_EXEC};
use elfie_isa::PAGE_SIZE;
use elfie_vm::{Machine, MachineConfig};

const STARTUP_BASE: u64 = 0x0070_0000;
const TEXT_BASE: u64 = 0x0040_0000;
const DATA_BASE: u64 = 0x0060_0160; // deliberately not page-aligned
const STACK_BASE: u64 = 0x7fff_e000;

/// A miniature ELFie: startup code, one code page, one data run, a
/// captured stack, a shadow copy the loader must skip, and the symbol
/// vocabulary of a two-thread capture.
fn build_elfie_shaped() -> Vec<u8> {
    let startup: Vec<u8> = vec![0x43, 0x01, 0x2a, 0, 0, 0, 0x25]; // marker ssc(42); ret
    let text: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
    let data: Vec<u8> = vec![0xd4; 200];
    let stack: Vec<u8> = vec![0x5a; 64];
    ElfBuilder::new()
        .entry(STARTUP_BASE)
        .section(SectionSpec::progbits(
            ".text.startup",
            STARTUP_BASE,
            startup,
            false,
            true,
        ))
        .section(SectionSpec::progbits(
            &format!(".text.{TEXT_BASE:x}"),
            TEXT_BASE,
            text,
            false,
            true,
        ))
        .section(SectionSpec::progbits(
            &format!(".data.{DATA_BASE:x}"),
            DATA_BASE,
            data,
            true,
            false,
        ))
        .section(SectionSpec::progbits(
            &format!(".stack.{STACK_BASE:x}"),
            STACK_BASE,
            stack.clone(),
            true,
            false,
        ))
        .section(
            SectionSpec::progbits(
                &format!(".shadow.{STACK_BASE:x}"),
                STACK_BASE,
                stack,
                true,
                false,
            )
            .non_alloc(),
        )
        .symbol(".t0.start", TEXT_BASE + 0x10)
        .symbol(".t0.rax", 0x1111_2222_3333_4444)
        .symbol(".t0.rsp", STACK_BASE + 0x30)
        .symbol(".t0.rip", TEXT_BASE + 0x10)
        .symbol(".t1.start", TEXT_BASE + 0x80)
        .symbol(".t1.rax", 0xdead_beef_0000_0001)
        .symbol(".t1.rsp", STACK_BASE + 0x10)
        .symbol(".t1.xmm0", 0x60)
        .symbol("elfie.roi.ssc", 42)
        .build()
}

#[test]
fn sections_round_trip_with_addresses_and_flags() {
    let bytes = build_elfie_shaped();
    let f = ElfFile::parse(&bytes).expect("parses");
    assert_eq!(f.etype, ET_EXEC);
    assert_eq!(f.machine, EM_ELFIE);
    assert_eq!(f.entry, STARTUP_BASE);

    let startup = f.section(".text.startup").expect("has startup");
    assert_eq!(startup.addr, STARTUP_BASE);
    assert_eq!(startup.data, vec![0x43, 0x01, 0x2a, 0, 0, 0, 0x25]);
    assert!(startup.exec && !startup.write && startup.alloc);

    let text = f
        .section(&format!(".text.{TEXT_BASE:x}"))
        .expect("has text");
    assert_eq!(text.addr, TEXT_BASE);
    assert_eq!(text.data, (0u16..256).map(|i| i as u8).collect::<Vec<u8>>());

    // Address round-trips even for section bases that are not page-aligned.
    let data = f
        .section(&format!(".data.{DATA_BASE:x}"))
        .expect("has data");
    assert_eq!(data.addr, DATA_BASE);
    assert_ne!(data.addr % PAGE_SIZE, 0);
    assert_eq!(data.data.len(), 200);
    assert!(data.write && !data.exec);

    // The shadow stack is present in the file but not loadable; the real
    // stack is. Both carry identical bytes.
    let stack = f
        .section(&format!(".stack.{STACK_BASE:x}"))
        .expect("has stack");
    let shadow = f
        .section(&format!(".shadow.{STACK_BASE:x}"))
        .expect("has shadow");
    assert!(stack.alloc && !shadow.alloc);
    assert_eq!(stack.data, shadow.data);
}

#[test]
fn per_thread_register_symbols_round_trip() {
    let bytes = build_elfie_shaped();
    let f = ElfFile::parse(&bytes).expect("parses");

    // Thread 0 and thread 1 register symbols come back verbatim, including
    // full-width 64-bit values.
    assert_eq!(f.symbol(".t0.start"), Some(TEXT_BASE + 0x10));
    assert_eq!(f.symbol(".t0.rax"), Some(0x1111_2222_3333_4444));
    assert_eq!(f.symbol(".t0.rsp"), Some(STACK_BASE + 0x30));
    assert_eq!(f.symbol(".t0.rip"), Some(TEXT_BASE + 0x10));
    assert_eq!(f.symbol(".t1.rax"), Some(0xdead_beef_0000_0001));
    assert_eq!(f.symbol(".t1.xmm0"), Some(0x60));
    assert_eq!(f.symbol(".t2.rax"), None, "no third thread was recorded");

    // The per-thread namespaces are disjoint and complete: each thread
    // contributes exactly its own symbols.
    let t0: Vec<&str> = f
        .symbols
        .iter()
        .filter(|(n, _)| n.starts_with(".t0."))
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(t0, vec![".t0.start", ".t0.rax", ".t0.rsp", ".t0.rip"]);
}

#[test]
fn roi_marker_symbol_round_trips() {
    let bytes = build_elfie_shaped();
    let f = ElfFile::parse(&bytes).expect("parses");
    // pinball2elf records the ROI marker as `elfie.roi.<kind>` → tag.
    assert_eq!(f.symbol("elfie.roi.ssc"), Some(42));
    assert_eq!(f.symbol("elfie.roi.sniper"), None);
    // The tag also appears in the startup code as the marker immediate.
    let startup = f.section(".text.startup").expect("has startup");
    assert_eq!(
        startup.data[2], 42,
        "marker immediate matches the symbol value"
    );
}

#[test]
fn loadable_segments_are_mmapable_and_load_correctly() {
    let bytes = build_elfie_shaped();
    let f = ElfFile::parse(&bytes).expect("parses");

    // One PT_LOAD per allocatable section, all page-congruent so a real
    // mmap-based loader could map them straight from the file.
    assert_eq!(f.segments.len(), 4, "shadow section must not be loadable");
    for seg in &f.segments {
        assert_eq!(seg.offset % PAGE_SIZE, seg.vaddr % PAGE_SIZE);
    }

    // And the emulated system loader agrees: bytes land at their section
    // addresses, nothing lands where only the shadow claimed to live...
    let mut m = Machine::new(MachineConfig::default());
    let img = load(&mut m, &bytes, &LoaderConfig::default()).expect("loads");
    assert_eq!(img.entry, STARTUP_BASE);
    let read = |m: &Machine, addr: u64, len: usize| {
        let mut buf = vec![0u8; len];
        m.mem.read_bytes(addr, &mut buf).expect("mapped");
        buf
    };
    assert_eq!(read(&m, TEXT_BASE, 4), vec![0, 1, 2, 3]);
    assert_eq!(read(&m, DATA_BASE, 2), vec![0xd4, 0xd4]);
    assert_eq!(read(&m, STACK_BASE, 2), vec![0x5a, 0x5a]);
}

#[test]
fn build_parse_build_is_stable() {
    // Re-serialising the parsed image must reproduce it byte for byte —
    // the writer is deterministic and the reader loses nothing the writer
    // consumes.
    let first = build_elfie_shaped();
    let f = ElfFile::parse(&first).expect("parses");
    let mut again = ElfBuilder::new().entry(f.entry);
    for s in &f.sections {
        let mut spec = SectionSpec::progbits(&s.name, s.addr, s.data.to_vec(), s.write, s.exec);
        if !s.alloc {
            spec = spec.non_alloc();
        }
        again = again.section(spec);
    }
    for (name, value) in &f.symbols {
        again = again.symbol(name, *value);
    }
    assert_eq!(again.build(), first);
}
