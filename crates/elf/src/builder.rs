//! The ELF writer: assembles sections, symbols and an entry point into a
//! complete ELF64 executable (or relocatable object) image.

use crate::format::*;
use elfie_isa::{page_align_up, PAGE_SIZE};
use elfie_pinball::PageData;
use std::collections::HashMap;
use std::sync::Arc;

/// What a section holds: a byte buffer, or whole pinball pages that
/// [`ElfBuilder::build`] writes straight into the image. Both are shared:
/// sections that hold the same `Arc` (an ELFie's non-allocatable original
/// and its `.shadow` copy) get one file range, written once.
#[derive(Debug, Clone)]
pub enum SectionData {
    /// Contiguous bytes.
    Bytes(Arc<Vec<u8>>),
    /// Page payloads, in address order.
    Pages(Arc<Vec<PageData>>),
}

impl SectionData {
    /// Length in bytes.
    fn len(&self) -> usize {
        match self {
            SectionData::Bytes(b) => b.len(),
            SectionData::Pages(p) => p.len() * PAGE_SIZE as usize,
        }
    }

    /// True when the section holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The identity of the shared buffer: equal exactly for sections
    /// holding the same `Arc`.
    fn key(&self) -> *const () {
        match self {
            SectionData::Bytes(b) => Arc::as_ptr(b).cast(),
            SectionData::Pages(p) => Arc::as_ptr(p).cast(),
        }
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            SectionData::Bytes(b) => out.extend_from_slice(b),
            SectionData::Pages(pages) => {
                for p in pages.iter() {
                    out.extend_from_slice(&p[..]);
                }
            }
        }
    }
}

impl From<Vec<u8>> for SectionData {
    fn from(b: Vec<u8>) -> SectionData {
        SectionData::Bytes(Arc::new(b))
    }
}

impl From<Vec<PageData>> for SectionData {
    fn from(p: Vec<PageData>) -> SectionData {
        SectionData::Pages(Arc::new(p))
    }
}

impl From<Arc<Vec<PageData>>> for SectionData {
    fn from(p: Arc<Vec<PageData>>) -> SectionData {
        SectionData::Pages(p)
    }
}

/// A section to be placed in the output file.
#[derive(Debug, Clone)]
pub struct SectionSpec {
    /// Section name (e.g. `.text.400000`).
    pub name: String,
    /// Virtual address.
    pub addr: u64,
    /// Contents. Sections holding the same `Arc` share one file range, so
    /// an ELFie's non-allocatable original and its `.shadow` copy cost
    /// the image one copy of each page.
    pub data: SectionData,
    /// Writable at run time.
    pub write: bool,
    /// Executable.
    pub exec: bool,
    /// Allocatable: loaded into memory by the system loader. pinball2elf
    /// marks captured-stack sections non-allocatable so the loader leaves
    /// them out (stack-collision fix).
    pub alloc: bool,
}

impl SectionSpec {
    /// A loadable program section over `data`: a `Vec<u8>`, pinball pages
    /// (`Vec<PageData>`, or an `Arc` of them that another section also
    /// holds), or a [`SectionData`] cloned from another section.
    pub fn progbits(
        name: &str,
        addr: u64,
        data: impl Into<SectionData>,
        write: bool,
        exec: bool,
    ) -> SectionSpec {
        SectionSpec {
            name: name.to_string(),
            addr,
            data: data.into(),
            write,
            exec,
            alloc: true,
        }
    }

    /// Marks the section non-allocatable.
    pub fn non_alloc(mut self) -> SectionSpec {
        self.alloc = false;
        self
    }

    /// The page offset a loadable section's file range must have
    /// (`p_offset ≡ p_vaddr (mod page)`), or `None` when it is not loaded.
    fn congruence(&self) -> Option<u64> {
        (self.alloc && !self.data.is_empty()).then_some(self.addr % PAGE_SIZE)
    }
}

/// Builds ELF64 images.
///
/// ```
/// use elfie_elf::{ElfBuilder, SectionSpec};
/// let bytes = ElfBuilder::new()
///     .entry(0x400000)
///     .section(SectionSpec::progbits(".text", 0x400000, vec![0x25], false, true))
///     .symbol("start", 0x400000)
///     .build();
/// assert_eq!(&bytes[0..4], b"\x7fELF");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ElfBuilder {
    entry: u64,
    etype: Option<u16>,
    sections: Vec<SectionSpec>,
    symbols: Vec<(String, u64)>,
}

impl ElfBuilder {
    /// Creates an empty builder (executable output by default).
    pub fn new() -> ElfBuilder {
        ElfBuilder::default()
    }

    /// Sets the entry point.
    pub fn entry(mut self, entry: u64) -> ElfBuilder {
        self.entry = entry;
        self
    }

    /// Emits a relocatable object (`ET_REL`) instead of an executable —
    /// pinball2elf's object-only mode, for users who link their own
    /// startup code.
    pub fn object(mut self) -> ElfBuilder {
        self.etype = Some(ET_REL);
        self
    }

    /// Adds a section.
    pub fn section(mut self, s: SectionSpec) -> ElfBuilder {
        self.sections.push(s);
        self
    }

    /// Adds a symbol (name → absolute address).
    pub fn symbol(mut self, name: &str, value: u64) -> ElfBuilder {
        self.symbols.push((name.to_string(), value));
        self
    }

    /// Serialises the image. Every offset is computed first; the header,
    /// program headers, section data, tables and section headers are then
    /// written once, in file order, into a buffer of exact size.
    pub fn build(self) -> Vec<u8> {
        let nsections = self.sections.len();
        let loadable: Vec<usize> = (0..nsections)
            .filter(|&i| self.sections[i].alloc && !self.sections[i].data.is_empty())
            .collect();
        let phnum = loadable.len();

        // String tables.
        let mut shstrtab = vec![0u8]; // index 0 = empty name
        let mut name_offsets = Vec::with_capacity(nsections + 3);
        for s in &self.sections {
            name_offsets.push(shstrtab.len() as u32);
            shstrtab.extend_from_slice(s.name.as_bytes());
            shstrtab.push(0);
        }
        let push_name = |shstrtab: &mut Vec<u8>, n: &str| {
            let off = shstrtab.len() as u32;
            shstrtab.extend_from_slice(n.as_bytes());
            shstrtab.push(0);
            off
        };
        let symtab_name = push_name(&mut shstrtab, ".symtab");
        let strtab_name = push_name(&mut shstrtab, ".strtab");
        let shstrtab_name = push_name(&mut shstrtab, ".shstrtab");

        let mut strtab = vec![0u8];
        let mut symtab = Vec::with_capacity(self.symbols.len() * SYM_SIZE);
        for (name, value) in &self.symbols {
            let st_name = strtab.len() as u32;
            strtab.extend_from_slice(name.as_bytes());
            strtab.push(0);
            symtab.extend_from_slice(
                &Sym {
                    st_name,
                    st_value: *value,
                }
                .to_bytes(),
            );
        }

        // Layout: ehdr | phdrs | section data | symtab | strtab | shstrtab
        // | shdrs. Each distinct buffer gets one file range, which every
        // section holding it shares. A buffer that any loadable section
        // holds sits at that section's page congruence (p_offset ≡
        // p_vaddr (mod page), as real loaders require for mmap-ability),
        // whichever holder comes first. A second loadable holder at
        // another congruence gets its own copy.
        let mut want: HashMap<*const (), u64> = HashMap::new();
        for s in &self.sections {
            if let Some(c) = s.congruence() {
                want.entry(s.data.key()).or_insert(c);
            }
        }
        let mut placed: HashMap<*const (), u64> = HashMap::new();
        let mut writes: Vec<(u64, &SectionData)> = Vec::new();
        let mut offset = (EHDR_SIZE + phnum * PHDR_SIZE) as u64;
        let mut sec_offsets = vec![0u64; nsections];
        for (i, s) in self.sections.iter().enumerate() {
            let key = s.data.key();
            let congruence = s.congruence().or_else(|| want.get(&key).copied());
            if let Some(&off) = placed.get(&key) {
                if congruence.map_or(true, |c| off % PAGE_SIZE == c) {
                    sec_offsets[i] = off;
                    continue;
                }
            }
            if let Some(c) = congruence {
                offset += (c + PAGE_SIZE - offset % PAGE_SIZE) % PAGE_SIZE;
            }
            placed.entry(key).or_insert(offset);
            writes.push((offset, &s.data));
            sec_offsets[i] = offset;
            offset += s.data.len() as u64;
        }
        let symtab_off = offset;
        let strtab_off = symtab_off + symtab.len() as u64;
        let shstrtab_off = strtab_off + strtab.len() as u64;
        let shoff = shstrtab_off + shstrtab.len() as u64;
        // Section header table: NULL + sections + symtab + strtab + shstrtab.
        let shnum = nsections + 4;
        let shstrndx = shnum - 1;
        let strtab_index = nsections + 2;

        let total = shoff as usize + shnum * SHDR_SIZE;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(
            &Ehdr {
                e_type: self.etype.unwrap_or(ET_EXEC),
                e_machine: EM_ELFIE,
                e_entry: self.entry,
                e_phoff: if phnum > 0 { EHDR_SIZE as u64 } else { 0 },
                e_shoff: shoff,
                e_phnum: phnum as u16,
                e_shnum: shnum as u16,
                e_shstrndx: shstrndx as u16,
            }
            .to_bytes(),
        );

        // Program headers (one PT_LOAD per loadable section).
        for &i in &loadable {
            let s = &self.sections[i];
            let mut flags = PF_R;
            if s.write {
                flags |= PF_W;
            }
            if s.exec {
                flags |= PF_X;
            }
            out.extend_from_slice(
                &Phdr {
                    p_type: PT_LOAD,
                    p_flags: flags,
                    p_offset: sec_offsets[i],
                    p_vaddr: s.addr,
                    p_filesz: s.data.len() as u64,
                    p_memsz: page_align_up(s.data.len() as u64),
                    p_align: PAGE_SIZE,
                }
                .to_bytes(),
            );
        }

        for (off, data) in writes {
            out.resize(off as usize, 0);
            data.write_to(&mut out);
        }
        debug_assert_eq!(out.len() as u64, symtab_off);
        out.extend_from_slice(&symtab);
        out.extend_from_slice(&strtab);
        out.extend_from_slice(&shstrtab);
        debug_assert_eq!(out.len() as u64, shoff);

        out.extend_from_slice(
            &Shdr {
                sh_name: 0,
                sh_type: SHT_NULL,
                sh_flags: 0,
                sh_addr: 0,
                sh_offset: 0,
                sh_size: 0,
                sh_link: 0,
                sh_entsize: 0,
            }
            .to_bytes(),
        );
        for (i, s) in self.sections.iter().enumerate() {
            let mut flags = 0u64;
            if s.alloc {
                flags |= SHF_ALLOC;
            }
            if s.write {
                flags |= SHF_WRITE;
            }
            if s.exec {
                flags |= SHF_EXECINSTR;
            }
            out.extend_from_slice(
                &Shdr {
                    sh_name: name_offsets[i],
                    sh_type: SHT_PROGBITS,
                    sh_flags: flags,
                    sh_addr: s.addr,
                    sh_offset: sec_offsets[i],
                    sh_size: s.data.len() as u64,
                    sh_link: 0,
                    sh_entsize: 0,
                }
                .to_bytes(),
            );
        }
        for (sh_name, sh_type, sh_offset, sh_size, sh_link, sh_entsize) in [
            (
                symtab_name,
                SHT_SYMTAB,
                symtab_off,
                symtab.len(),
                strtab_index as u32,
                SYM_SIZE as u64,
            ),
            (strtab_name, SHT_STRTAB, strtab_off, strtab.len(), 0, 0),
            (
                shstrtab_name,
                SHT_STRTAB,
                shstrtab_off,
                shstrtab.len(),
                0,
                0,
            ),
        ] {
            out.extend_from_slice(
                &Shdr {
                    sh_name,
                    sh_type,
                    sh_flags: 0,
                    sh_addr: 0,
                    sh_offset,
                    sh_size: sh_size as u64,
                    sh_link,
                    sh_entsize,
                }
                .to_bytes(),
            );
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ElfFile;

    #[test]
    fn minimal_executable_roundtrips() {
        let bytes = ElfBuilder::new()
            .entry(0x400010)
            .section(SectionSpec::progbits(
                ".text",
                0x400000,
                vec![1, 2, 3, 4],
                false,
                true,
            ))
            .section(SectionSpec::progbits(
                ".data",
                0x600000,
                vec![9, 9],
                true,
                false,
            ))
            .symbol("start", 0x400010)
            .symbol(".t0.rax", 0x12345)
            .build();
        let f = ElfFile::parse(&bytes).expect("parses");
        assert_eq!(f.entry, 0x400010);
        assert_eq!(f.machine, EM_ELFIE);
        let text = f.section(".text").expect("has .text");
        assert_eq!(text.data, vec![1, 2, 3, 4]);
        assert!(text.exec && !text.write && text.alloc);
        let data = f.section(".data").expect("has .data");
        assert!(data.write && !data.exec);
        assert_eq!(f.symbol("start"), Some(0x400010));
        assert_eq!(f.symbol(".t0.rax"), Some(0x12345));
        assert_eq!(f.segments.len(), 2);
    }

    #[test]
    fn non_alloc_sections_get_no_segment() {
        let bytes = ElfBuilder::new()
            .entry(0)
            .section(SectionSpec::progbits(
                ".text",
                0x1000,
                vec![0u8; 8],
                false,
                true,
            ))
            .section(
                SectionSpec::progbits(".stack.shadow", 0x7fff0000, vec![0u8; 16], true, false)
                    .non_alloc(),
            )
            .build();
        let f = ElfFile::parse(&bytes).expect("parses");
        assert_eq!(f.segments.len(), 1, "only the alloc section is loadable");
        let shadow = f.section(".stack.shadow").expect("section still present");
        assert!(!shadow.alloc);
        assert_eq!(shadow.data.len(), 16);
    }

    #[test]
    fn loadable_offsets_are_page_congruent() {
        let bytes = ElfBuilder::new()
            .entry(0x400000)
            .section(SectionSpec::progbits(
                ".a",
                0x400123,
                vec![0xaa; 64],
                false,
                true,
            ))
            .section(SectionSpec::progbits(
                ".b",
                0x500456,
                vec![0xbb; 64],
                true,
                false,
            ))
            .build();
        let f = ElfFile::parse(&bytes).expect("parses");
        for seg in &f.segments {
            assert_eq!(
                seg.offset % elfie_isa::PAGE_SIZE,
                seg.vaddr % elfie_isa::PAGE_SIZE,
                "p_offset ≡ p_vaddr (mod pagesize)"
            );
        }
    }

    /// The `(offset, size)` a parsed section's data occupies in `image`.
    fn file_range(image: &[u8], data: &[u8]) -> (usize, usize) {
        (data.as_ptr() as usize - image.as_ptr() as usize, data.len())
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    /// A non-alloc original and an alloc shadow over one shared buffer.
    fn original_and_shadow(data: &SectionData, shadow_first: bool) -> Vec<u8> {
        let original =
            SectionSpec::progbits(".stack.7fff0000", 0x7fff_0000, data.clone(), true, false)
                .non_alloc();
        let shadow =
            SectionSpec::progbits(".shadow.7fff0000", 0x1000_0123, data.clone(), false, false);
        let (a, b) = if shadow_first {
            (shadow, original)
        } else {
            (original, shadow)
        };
        ElfBuilder::new().entry(0).section(a).section(b).build()
    }

    #[test]
    fn sections_sharing_a_buffer_share_one_file_range() {
        let payload = pattern(2 * PAGE_SIZE as usize, 0x5a);
        let bytes = original_and_shadow(&payload.clone().into(), false);
        let f = ElfFile::parse(&bytes).expect("parses");
        let original = f.section(".stack.7fff0000").expect("original");
        let shadow = f.section(".shadow.7fff0000").expect("shadow");
        assert_eq!(original.data, &payload[..]);
        assert_eq!(
            file_range(&bytes, original.data),
            file_range(&bytes, shadow.data)
        );
        let copies = bytes.windows(payload.len()).filter(|w| *w == &payload[..]);
        assert_eq!(copies.count(), 1, "the image holds the bytes once");
    }

    #[test]
    fn shared_placement_does_not_depend_on_section_order() {
        let data: SectionData = pattern(PAGE_SIZE as usize + 100, 0x3c).into();
        let mut datas = Vec::new();
        for shadow_first in [false, true] {
            let bytes = original_and_shadow(&data, shadow_first);
            let f = ElfFile::parse(&bytes).expect("parses");
            let original = f.section(".stack.7fff0000").expect("original");
            let shadow = f.section(".shadow.7fff0000").expect("shadow");
            let (off, _) = file_range(&bytes, shadow.data);
            assert_eq!(file_range(&bytes, original.data), (off, data.len()));
            assert_eq!(
                off as u64 % PAGE_SIZE,
                0x123,
                "shadow first: {shadow_first}"
            );
            assert_eq!(f.segments.len(), 1);
            assert_eq!(f.segments[0].offset, off as u64);
            datas.push((original.data.to_vec(), shadow.data.to_vec()));
        }
        assert_eq!(datas[0], datas[1]);
    }

    #[test]
    fn loadable_holders_at_two_congruences_get_two_copies() {
        let data: SectionData = pattern(300, 0x11).into();
        let bytes = ElfBuilder::new()
            .section(SectionSpec::progbits(
                ".a",
                0x400010,
                data.clone(),
                false,
                false,
            ))
            .section(SectionSpec::progbits(
                ".b",
                0x500020,
                data.clone(),
                false,
                false,
            ))
            .build();
        let f = ElfFile::parse(&bytes).expect("parses");
        for seg in &f.segments {
            assert_eq!(seg.offset % PAGE_SIZE, seg.vaddr % PAGE_SIZE);
            assert_eq!(seg.data, &pattern(300, 0x11)[..]);
        }
        assert_ne!(f.segments[0].offset, f.segments[1].offset);
    }

    #[test]
    fn page_sections_read_back_like_the_same_bytes() {
        let pages: Vec<PageData> = (0..3u8)
            .map(|k| {
                let mut page = [0u8; PAGE_SIZE as usize];
                page.copy_from_slice(&pattern(PAGE_SIZE as usize, k));
                Arc::new(page)
            })
            .collect();
        let flat: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
        let image = |data: SectionData| {
            ElfBuilder::new()
                .entry(0x400000)
                .section(SectionSpec::progbits(
                    ".text.startup",
                    0x100,
                    vec![1, 2, 3],
                    false,
                    true,
                ))
                .section(SectionSpec::progbits(
                    ".data.400000",
                    0x400000,
                    data,
                    true,
                    false,
                ))
                .build()
        };
        let from_pages = image(pages.into());
        let from_bytes = image(flat.clone().into());
        assert_eq!(from_pages, from_bytes);
        let f = ElfFile::parse(&from_pages).expect("parses");
        assert_eq!(f.section(".data.400000").expect("section").data, &flat[..]);
    }

    #[test]
    fn object_mode_sets_et_rel() {
        let bytes = ElfBuilder::new()
            .object()
            .section(SectionSpec::progbits(".text", 0, vec![1], false, true))
            .build();
        let f = ElfFile::parse(&bytes).expect("parses");
        assert_eq!(f.etype, ET_REL);
    }
}
