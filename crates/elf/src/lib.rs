//! # elfie-elf
//!
//! A real ELF64 writer/reader plus an emulated "system loader".
//!
//! The writer ([`ElfBuilder`]) produces genuine little-endian ELF64
//! images — ELF header, program header table, `PT_LOAD` segments with
//! page-congruent file offsets, section header table, `.symtab` /
//! `.strtab` / `.shstrtab` — exactly the structures the paper's Fig. 2/3
//! illustrate. The only deviation from an x86-64 binary is the machine id
//! ([`format::EM_ELFIE`]), because the text sections carry `elfie-isa`
//! code rather than x86-64 code.
//!
//! The loader ([`loader::load`]) emulates the Linux program loader:
//! mapping `PT_LOAD` segments, building the initial stack (argc / argv /
//! envp / auxv) under a randomised stack top — including the
//! stack-collision failure an ELFie provokes when its captured stack pages
//! are left allocatable (paper Section II-B3).

pub mod builder;
pub mod format;
pub mod loader;
pub mod reader;

pub use builder::{ElfBuilder, SectionData, SectionSpec};
pub use format::{ElfParseError, EM_ELFIE, ET_EXEC, ET_REL};
pub use loader::{load, load_parsed, LoadError, LoadedImage, LoaderConfig};
pub use reader::{ElfFile, Section, Segment};
