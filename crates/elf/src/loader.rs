//! The emulated system ELF loader.
//!
//! Mirrors what the Linux loader does for a statically linked executable
//! (paper Section II-B3): parse the image, map the `PT_LOAD` segments,
//! then reserve and populate a fresh stack — command-line arguments,
//! environment pointers and auxiliary vector — below a (randomised) stack
//! top, and start the process at the entry point.
//!
//! Crucially, this loader reproduces the **stack collision** failure mode:
//! when loadable ELFie sections occupy the address range the loader wants
//! for the new stack, it "will be able to reserve only a very small amount
//! of the memory for the new stack", and if that is insufficient the
//! process is killed before any ELFie code executes
//! ([`LoadError::StackCollision`]).

use crate::format::{ElfParseError, EM_ELFIE, ET_EXEC};
use crate::reader::ElfFile;
use elfie_isa::{page_align_up, page_base, RegFile, PAGE_SIZE};
use elfie_vm::{Machine, Observer, Perm};
use std::fmt;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Nominal top of the stack.
    pub stack_top: u64,
    /// Desired stack size.
    pub stack_size: u64,
    /// Linux-style stack randomisation: slide the top down by a
    /// seed-dependent number of pages.
    pub randomize: bool,
    /// Randomisation seed.
    pub seed: u64,
    /// Minimum stack the loader must secure to pass environment and
    /// arguments; below this the process dies before user code runs.
    pub min_stack: u64,
    /// Command-line arguments.
    pub argv: Vec<String>,
    /// Environment strings (`KEY=value`).
    pub envp: Vec<String>,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            stack_top: 0x7ffd_8000_0000,
            stack_size: 1 << 20,
            randomize: true,
            seed: 1,
            min_stack: 64 * 1024,
            argv: vec!["elfie".to_string()],
            envp: vec!["PATH=/usr/bin".to_string()],
        }
    }
}

/// Errors from loading an executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The image failed to parse.
    Parse(ElfParseError),
    /// The image is not an `ET_EXEC` executable.
    NotExecutable(u16),
    /// The image targets a different machine.
    WrongMachine(u16),
    /// The loader could not reserve enough stack: loadable sections
    /// collide with the stack address range.
    StackCollision {
        /// Bytes the loader could still reserve below the stack top.
        available: u64,
        /// Bytes required ([`LoaderConfig::min_stack`]).
        required: u64,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "parse error: {e}"),
            LoadError::NotExecutable(t) => write!(f, "not an executable (e_type={t})"),
            LoadError::WrongMachine(m) => write!(f, "wrong machine id {m:#x}"),
            LoadError::StackCollision {
                available,
                required,
            } => write!(
                f,
                "stack collision: only {available:#x} bytes available, {required:#x} required \
                 — process killed before entry"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ElfParseError> for LoadError {
    fn from(e: ElfParseError) -> Self {
        LoadError::Parse(e)
    }
}

/// The result of a successful load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadedImage {
    /// Program entry point.
    pub entry: u64,
    /// Initial stack pointer (points at `argc`).
    pub rsp: u64,
    /// Lowest mapped stack address.
    pub stack_low: u64,
    /// Stack top (exclusive).
    pub stack_high: u64,
    /// Main thread id.
    pub tid: u32,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = (*state).max(1);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Loads an ELF executable image into `machine` and creates the main
/// thread, emulating the system loader.
///
/// # Errors
///
/// Returns [`LoadError`] for malformed images, wrong machine/type, or a
/// fatal stack collision.
pub fn load<O: Observer>(
    machine: &mut Machine<O>,
    elf_bytes: &[u8],
    cfg: &LoaderConfig,
) -> Result<LoadedImage, LoadError> {
    let file = ElfFile::parse(elf_bytes)?;
    load_parsed(machine, &file, cfg)
}

/// Like [`load`], for an already-parsed [`ElfFile`].
pub fn load_parsed<O: Observer>(
    machine: &mut Machine<O>,
    file: &ElfFile<'_>,
    cfg: &LoaderConfig,
) -> Result<LoadedImage, LoadError> {
    if file.etype != ET_EXEC {
        return Err(LoadError::NotExecutable(file.etype));
    }
    if file.machine != EM_ELFIE {
        return Err(LoadError::WrongMachine(file.machine));
    }

    // Map PT_LOAD segments at their virtual addresses. Non-allocatable
    // sections are NOT mapped — that is the whole point of the
    // stack-collision fix. Pages wholly covered by file bytes (and whole
    // zero pages of bss) are interned in the global page arena and
    // mapped copy-on-write, so concurrent machines loading the same
    // ELFie — a validate worker fleet measuring the same regions — share
    // one payload per distinct page instead of copying the image each.
    let arena = elfie_pinball::PageArena::global();
    for seg in &file.segments {
        let perm = match (seg.is_write(), seg.is_exec()) {
            (true, true) => Perm::RWX,
            (true, false) => Perm::RW,
            (false, true) => Perm::RX,
            (false, false) => Perm::R,
        };
        let start = page_base(seg.vaddr);
        let end = page_align_up(seg.vaddr + seg.memsz.max(seg.data.len() as u64).max(1));
        let data_end = seg.vaddr + seg.data.len() as u64;
        let mut addr = start;
        while addr < end {
            let next = addr + PAGE_SIZE;
            let fresh = !machine.mem.is_mapped(addr);
            if fresh && addr >= seg.vaddr && data_end >= next {
                // Wholly file-backed page: alias the interned payload.
                let off = (addr - seg.vaddr) as usize;
                let payload = arena
                    .intern_slice(&seg.data[off..off + PAGE_SIZE as usize])
                    .expect("page-sized chunk");
                machine.mem.map_shared_page(addr, perm, payload);
            } else if fresh && (next <= seg.vaddr || addr >= data_end) {
                // Pure bss / alignment padding: one shared zero page.
                machine.mem.map_shared_page(addr, perm, arena.zero_page());
            } else {
                // Partial page, or a page another segment already
                // populated (map_shared_page would replace its contents
                // wholesale): zero-map and copy the overlapping bytes,
                // exactly like the old whole-segment write.
                machine.mem.map_page(addr, perm);
                let lo = addr.max(seg.vaddr);
                let hi = next.min(data_end);
                if lo < hi {
                    let bytes = &seg.data[(lo - seg.vaddr) as usize..(hi - seg.vaddr) as usize];
                    machine
                        .mem
                        .write_bytes_unchecked(lo, bytes)
                        .expect("mapped segment");
                }
            }
            addr = next;
        }
    }

    // Reserve the stack, honouring randomisation.
    let mut rng = cfg.seed;
    let slide = if cfg.randomize {
        (xorshift(&mut rng) % 256) * PAGE_SIZE
    } else {
        0
    };
    let top = cfg.stack_top - slide;
    let desired_low = top - cfg.stack_size;

    // Find the highest already-mapped page inside the desired range; the
    // loader can only use the space above it.
    let mut highest_used: Option<u64> = None;
    let mut p = page_base(desired_low);
    while p < top {
        if machine.mem.is_mapped(p) {
            highest_used = Some(p);
        }
        p += PAGE_SIZE;
    }
    let low = match highest_used {
        Some(used) => used + PAGE_SIZE,
        None => desired_low,
    };
    let available = top - low;
    if available < cfg.min_stack {
        return Err(LoadError::StackCollision {
            available,
            required: cfg.min_stack,
        });
    }
    machine
        .mem
        .map_range(low, top, Perm::RW)
        .expect("stack range");

    // Populate the initial stack: strings at the top, then auxv, envp and
    // argv pointer arrays, then argc — as the System V ABI prescribes.
    let mut cursor = top;
    let mut push_str = |machine: &mut Machine<O>, s: &str| -> u64 {
        let bytes = s.as_bytes();
        cursor -= bytes.len() as u64 + 1;
        machine
            .mem
            .write_bytes(cursor, bytes)
            .expect("stack mapped");
        machine
            .mem
            .write_u8(cursor + bytes.len() as u64, 0)
            .expect("stack mapped");
        cursor
    };
    let env_ptrs: Vec<u64> = cfg.envp.iter().map(|s| push_str(machine, s)).collect();
    let arg_ptrs: Vec<u64> = cfg.argv.iter().map(|s| push_str(machine, s)).collect();

    let words = 1 /*argc*/ + arg_ptrs.len() + 1 + env_ptrs.len() + 1 + 2 /*AT_NULL*/;
    let mut sp = (cursor - (words as u64) * 8) & !15;
    let rsp = sp;
    let mut put = |machine: &mut Machine<O>, v: u64| {
        machine.mem.write_u64(sp, v).expect("stack mapped");
        sp += 8;
    };
    put(machine, cfg.argv.len() as u64);
    for &a in &arg_ptrs {
        put(machine, a);
    }
    put(machine, 0);
    for &e in &env_ptrs {
        put(machine, e);
    }
    put(machine, 0);
    put(machine, 0); // AT_NULL
    put(machine, 0);

    let mut regs = RegFile::new();
    regs.rip = file.entry;
    regs.set_rsp(rsp);
    let tid = machine.add_thread(regs);

    Ok(LoadedImage {
        entry: file.entry,
        rsp,
        stack_low: low,
        stack_high: top,
        tid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ElfBuilder, SectionSpec};
    use elfie_isa::assemble;
    use elfie_vm::{ExitReason, MachineConfig};

    fn exit_program_elf() -> Vec<u8> {
        let prog = assemble(
            r#"
            .org 0x400000
            start:
                mov rax, 231
                mov rdi, 5
                syscall
            "#,
        )
        .expect("assembles");
        ElfBuilder::new()
            .entry(prog.entry)
            .section(SectionSpec::progbits(
                ".text",
                0x400000,
                prog.bytes().to_vec(),
                false,
                true,
            ))
            .build()
    }

    #[test]
    fn load_and_run_executable() {
        let bytes = exit_program_elf();
        let mut m = Machine::new(MachineConfig::default());
        let img = load(&mut m, &bytes, &LoaderConfig::default()).expect("loads");
        assert_eq!(img.entry, 0x400000);
        assert_eq!(img.tid, 0);
        let s = m.run(1_000);
        assert_eq!(s.reason, ExitReason::AllExited(5));
    }

    #[test]
    fn initial_stack_holds_argc_argv() {
        let bytes = exit_program_elf();
        let mut m = Machine::new(MachineConfig::default());
        let cfg = LoaderConfig {
            argv: vec!["prog".into(), "arg1".into()],
            envp: vec!["HOME=/root".into()],
            randomize: false,
            ..LoaderConfig::default()
        };
        let img = load(&mut m, &bytes, &cfg).expect("loads");
        let argc = m.mem.read_u64(img.rsp).unwrap();
        assert_eq!(argc, 2);
        let argv0 = m.mem.read_u64(img.rsp + 8).unwrap();
        assert_eq!(m.mem.read_cstr(argv0, 64).unwrap(), "prog");
        let argv1 = m.mem.read_u64(img.rsp + 16).unwrap();
        assert_eq!(m.mem.read_cstr(argv1, 64).unwrap(), "arg1");
        // argv terminator, then envp.
        assert_eq!(m.mem.read_u64(img.rsp + 24).unwrap(), 0);
        let env0 = m.mem.read_u64(img.rsp + 32).unwrap();
        assert_eq!(m.mem.read_cstr(env0, 64).unwrap(), "HOME=/root");
    }

    #[test]
    fn stack_randomization_slides_with_seed() {
        let bytes = exit_program_elf();
        let rsp_for = |seed| {
            let mut m = Machine::new(MachineConfig::default());
            let cfg = LoaderConfig {
                seed,
                ..LoaderConfig::default()
            };
            load(&mut m, &bytes, &cfg).expect("loads").rsp
        };
        assert_eq!(rsp_for(7), rsp_for(7), "deterministic per seed");
        assert_ne!(rsp_for(7), rsp_for(8), "different seeds slide the stack");
    }

    #[test]
    fn alloc_section_in_stack_range_causes_collision() {
        // An ELFie whose captured stack pages are (wrongly) allocatable:
        // they land inside the loader's stack range and squeeze the new
        // stack below the minimum — the Fig. 4 failure.
        let cfg = LoaderConfig {
            randomize: false,
            ..LoaderConfig::default()
        };
        let stack_page = cfg.stack_top - 0x2000; // near the top of the range
        let prog = assemble(".org 0x400000\nstart: ret\n").unwrap();
        let bytes = ElfBuilder::new()
            .entry(0x400000)
            .section(SectionSpec::progbits(
                ".text",
                0x400000,
                prog.bytes().to_vec(),
                false,
                true,
            ))
            .section(SectionSpec::progbits(
                ".stack.pinball",
                stack_page,
                vec![0xccu8; 4096],
                true,
                false,
            ))
            .build();
        let mut m = Machine::new(MachineConfig::default());
        match load(&mut m, &bytes, &cfg) {
            Err(LoadError::StackCollision {
                available,
                required,
            }) => {
                assert!(available < required);
            }
            other => panic!("expected stack collision, got {other:?}"),
        }
    }

    #[test]
    fn non_alloc_stack_section_avoids_collision() {
        // The pinball2elf fix: mark the captured stack non-allocatable so
        // the loader ignores it.
        let cfg = LoaderConfig {
            randomize: false,
            ..LoaderConfig::default()
        };
        let stack_page = cfg.stack_top - 0x2000;
        let prog =
            assemble(".org 0x400000\nstart:\n mov rax, 231\n mov rdi, 0\n syscall\n").unwrap();
        let bytes = ElfBuilder::new()
            .entry(0x400000)
            .section(SectionSpec::progbits(
                ".text",
                0x400000,
                prog.bytes().to_vec(),
                false,
                true,
            ))
            .section(
                SectionSpec::progbits(
                    ".stack.pinball",
                    stack_page,
                    vec![0xccu8; 4096],
                    true,
                    false,
                )
                .non_alloc(),
            )
            .build();
        let mut m = Machine::new(MachineConfig::default());
        let img = load(&mut m, &bytes, &cfg).expect("loads without collision");
        assert!(!m.mem.is_mapped(stack_page) || img.stack_low <= stack_page);
        let s = m.run(100);
        assert_eq!(s.reason, ExitReason::AllExited(0));
    }

    #[test]
    fn wrong_machine_rejected() {
        let mut bytes = exit_program_elf();
        bytes[18] = 0x3e; // EM_X86_64
        bytes[19] = 0x00;
        let mut m = Machine::new(MachineConfig::default());
        assert!(matches!(
            load(&mut m, &bytes, &LoaderConfig::default()),
            Err(LoadError::WrongMachine(0x3e))
        ));
    }

    #[test]
    fn object_file_rejected() {
        let bytes = ElfBuilder::new()
            .object()
            .section(SectionSpec::progbits(".text", 0, vec![1], false, true))
            .build();
        let mut m = Machine::new(MachineConfig::default());
        assert!(matches!(
            load(&mut m, &bytes, &LoaderConfig::default()),
            Err(LoadError::NotExecutable(_))
        ));
    }
}
