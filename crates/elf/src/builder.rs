//! The ELF writer: assembles sections, symbols and an entry point into a
//! complete ELF64 executable (or relocatable object) image.

use crate::format::*;
use elfie_isa::{page_align_up, PAGE_SIZE};
use std::sync::Arc;

/// A section to be placed in the output file.
#[derive(Debug, Clone)]
pub struct SectionSpec {
    /// Section name (e.g. `.text.400000`).
    pub name: String,
    /// Virtual address.
    pub addr: u64,
    /// Contents, shared so one buffer can back several sections (an
    /// ELFie's non-allocatable original and its `.shadow` copy).
    pub data: Arc<Vec<u8>>,
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
    /// A loadable program section over `data` (a `Vec<u8>`, or an
    /// `Arc<Vec<u8>>` another section also uses).
    pub fn progbits(
        name: &str,
        addr: u64,
        data: impl Into<Arc<Vec<u8>>>,
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

        // Layout: ehdr | phdrs | section data (page-congruent for loadable)
        // | symtab | strtab | shstrtab | shdrs.
        let mut offset = (EHDR_SIZE + phnum * PHDR_SIZE) as u64;
        let mut sec_offsets = vec![0u64; nsections];
        for (i, s) in self.sections.iter().enumerate() {
            if s.alloc && !s.data.is_empty() {
                // Keep p_offset ≡ p_vaddr (mod page) as real loaders
                // require for mmap-ability.
                let want = s.addr % PAGE_SIZE;
                let cur = offset % PAGE_SIZE;
                offset += (want + PAGE_SIZE - cur) % PAGE_SIZE;
            }
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

        for (s, &off) in self.sections.iter().zip(&sec_offsets) {
            out.resize(off as usize, 0);
            out.extend_from_slice(&s.data);
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
