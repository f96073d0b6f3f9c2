//! The ELF reader: parses images produced by [`crate::builder::ElfBuilder`]
//! (or any little-endian ELF64 within the supported subset) back into
//! structured form. Section and segment contents borrow the image bytes
//! instead of copying them.

use crate::format::*;

/// A parsed section.
#[derive(Debug, Clone)]
pub struct Section<'a> {
    /// Section name.
    pub name: String,
    /// Virtual address.
    pub addr: u64,
    /// Contents, borrowed from the image.
    pub data: &'a [u8],
    /// Writable flag.
    pub write: bool,
    /// Executable flag.
    pub exec: bool,
    /// Allocatable flag.
    pub alloc: bool,
}

/// A parsed loadable segment.
#[derive(Debug, Clone)]
pub struct Segment<'a> {
    /// Virtual load address.
    pub vaddr: u64,
    /// File offset.
    pub offset: u64,
    /// Access flags (`PF_*`).
    pub flags: u32,
    /// Contents (filesz bytes), borrowed from the image.
    pub data: &'a [u8],
    /// Memory size (≥ data.len(); remainder zero-filled at load).
    pub memsz: u64,
}

impl Segment<'_> {
    /// True if the segment is writable.
    pub fn is_write(&self) -> bool {
        self.flags & PF_W != 0
    }

    /// True if the segment is executable.
    pub fn is_exec(&self) -> bool {
        self.flags & PF_X != 0
    }
}

/// A fully parsed ELF image, borrowing the bytes it was parsed from.
#[derive(Debug, Clone)]
pub struct ElfFile<'a> {
    /// Object type (`ET_EXEC`/`ET_REL`).
    pub etype: u16,
    /// Machine id.
    pub machine: u16,
    /// Entry point.
    pub entry: u64,
    /// All sections (except the NULL section and the table sections).
    pub sections: Vec<Section<'a>>,
    /// Loadable segments.
    pub segments: Vec<Segment<'a>>,
    /// Symbols (name → value).
    pub symbols: Vec<(String, u64)>,
}

fn cstr_at(table: &[u8], off: usize) -> Result<String, ElfParseError> {
    let rest = table
        .get(off..)
        .ok_or(ElfParseError::Corrupt("string offset"))?;
    let end = rest
        .iter()
        .position(|&b| b == 0)
        .ok_or(ElfParseError::Corrupt("unterminated string"))?;
    Ok(String::from_utf8_lossy(&rest[..end]).into_owned())
}

impl<'a> ElfFile<'a> {
    /// Parses an ELF64 image.
    ///
    /// # Errors
    /// Returns [`ElfParseError`] on truncated or inconsistent images.
    pub fn parse(bytes: &'a [u8]) -> Result<ElfFile<'a>, ElfParseError> {
        let ehdr = Ehdr::from_bytes(bytes)?;

        // Program headers.
        let mut segments = Vec::with_capacity(ehdr.e_phnum as usize);
        for i in 0..ehdr.e_phnum as usize {
            let off = ehdr.e_phoff as usize + i * PHDR_SIZE;
            let p = Phdr::from_bytes(
                bytes
                    .get(off..)
                    .ok_or(ElfParseError::Truncated("program header table"))?,
            )?;
            if p.p_type != PT_LOAD {
                continue;
            }
            let data = bytes
                .get(p.p_offset as usize..(p.p_offset + p.p_filesz) as usize)
                .ok_or(ElfParseError::Corrupt("segment data range"))?;
            segments.push(Segment {
                vaddr: p.p_vaddr,
                offset: p.p_offset,
                flags: p.p_flags,
                data,
                memsz: p.p_memsz,
            });
        }

        // Section headers.
        let mut shdrs = Vec::with_capacity(ehdr.e_shnum as usize);
        for i in 0..ehdr.e_shnum as usize {
            let off = ehdr.e_shoff as usize + i * SHDR_SIZE;
            shdrs.push(Shdr::from_bytes(
                bytes
                    .get(off..)
                    .ok_or(ElfParseError::Truncated("section header table"))?,
            )?);
        }
        let shstr = shdrs
            .get(ehdr.e_shstrndx as usize)
            .ok_or(ElfParseError::Corrupt("shstrndx out of range"))?;
        let shstrtab = bytes
            .get(shstr.sh_offset as usize..(shstr.sh_offset + shstr.sh_size) as usize)
            .ok_or(ElfParseError::Corrupt("shstrtab range"))?;

        let mut sections = Vec::new();
        let mut symbols = Vec::new();
        for (i, sh) in shdrs.iter().enumerate() {
            let name = cstr_at(shstrtab, sh.sh_name as usize)?;
            match sh.sh_type {
                SHT_PROGBITS => {
                    let data = bytes
                        .get(sh.sh_offset as usize..(sh.sh_offset + sh.sh_size) as usize)
                        .ok_or(ElfParseError::Corrupt("section data range"))?;
                    sections.push(Section {
                        name,
                        addr: sh.sh_addr,
                        data,
                        write: sh.sh_flags & SHF_WRITE != 0,
                        exec: sh.sh_flags & SHF_EXECINSTR != 0,
                        alloc: sh.sh_flags & SHF_ALLOC != 0,
                    });
                }
                SHT_SYMTAB => {
                    let strtab_hdr = shdrs
                        .get(sh.sh_link as usize)
                        .ok_or(ElfParseError::Corrupt("symtab link"))?;
                    let strtab = bytes
                        .get(
                            strtab_hdr.sh_offset as usize
                                ..(strtab_hdr.sh_offset + strtab_hdr.sh_size) as usize,
                        )
                        .ok_or(ElfParseError::Corrupt("strtab range"))?;
                    let data = bytes
                        .get(sh.sh_offset as usize..(sh.sh_offset + sh.sh_size) as usize)
                        .ok_or(ElfParseError::Corrupt("symtab range"))?;
                    for chunk in data.chunks_exact(SYM_SIZE) {
                        let sym = Sym::from_bytes(chunk)?;
                        let name = cstr_at(strtab, sym.st_name as usize)?;
                        if !name.is_empty() {
                            symbols.push((name, sym.st_value));
                        }
                    }
                    let _ = i;
                }
                _ => {}
            }
        }

        Ok(ElfFile {
            etype: ehdr.e_type,
            machine: ehdr.e_machine,
            entry: ehdr.e_entry,
            sections,
            segments,
            symbols,
        })
    }

    /// Finds a section by name.
    pub fn section(&self, name: &str) -> Option<&Section<'a>> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Looks up a symbol value.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ElfBuilder, SectionSpec};
    use proptest::prelude::*;

    #[test]
    fn parse_rejects_truncated() {
        let bytes = ElfBuilder::new()
            .entry(0)
            .section(SectionSpec::progbits(
                ".text",
                0x1000,
                vec![0u8; 32],
                false,
                true,
            ))
            .build();
        assert!(ElfFile::parse(&bytes).is_ok());
        assert!(ElfFile::parse(&bytes[..bytes.len() - 10]).is_err());
        assert!(ElfFile::parse(&bytes[..40]).is_err());
    }

    proptest! {
        #[test]
        fn parse_never_panics_on_mutation(pos in 0usize..500, val in any::<u8>()) {
            let mut bytes = ElfBuilder::new()
                .entry(0x400000)
                .section(SectionSpec::progbits(".text", 0x400000, vec![0u8; 256], false, true))
                .symbol("a", 1)
                .build();
            if pos < bytes.len() {
                bytes[pos] = val;
            }
            let _ = ElfFile::parse(&bytes);
        }
    }
}
