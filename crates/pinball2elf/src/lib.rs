//! # elfie-pinball2elf
//!
//! The paper's primary contribution: converting a (fat) pinball into an
//! **ELFie** — a stand-alone, statically linked ELF executable that starts
//! with the exact program state captured at the beginning of a region of
//! interest and then runs natively, unconstrained.
//!
//! The conversion (paper Section II-B):
//!
//! * each run of consecutive pinball memory-image pages with identical
//!   permissions becomes an ELF section at its original virtual address,
//! * per-thread register state is packed into a context data section
//!   placed in an address range the pinball does not use,
//! * generated startup code remaps pinball pages (solving the **stack
//!   collision** by marking captured pages non-allocatable and copying
//!   them into place from shadow sections at run time), restores SYSSTATE
//!   (working directory, heap break via `prctl`, pre-opened `FD_n`
//!   descriptors), creates one thread per captured thread with `clone()`,
//!   restores each thread's full context (`FXRSTOR` + segment bases +
//!   `POPFQ` + GPR pops) and jumps to the captured code,
//! * optional features: `elfie_on_start` / `elfie_on_thread_start` /
//!   `elfie_on_exit` callback points, ROI markers for simulators
//!   (`--roi-start sniper|ssc|simics:TAG`), graceful-exit arming of
//!   per-thread retired-instruction counters, object-only output, a
//!   generated linker script, and `.t<N>.<object>` debug symbols.

pub mod layout;
pub mod startup;

use elfie_elf::{ElfBuilder, SectionSpec};
use elfie_isa::{assemble, AsmError, MarkerKind};
use elfie_pinball::{PageRun, Pinball};
use elfie_sysstate::SysState;
use startup::RemapRun;
use std::fmt;
use std::sync::Arc;

pub use startup::{TAG_ON_EXIT, TAG_ON_START, TAG_ON_THREAD_START};

/// Which pinball pages the startup code remaps from shadow copies instead
/// of having the system loader map them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemapMode {
    /// Remap every pinball page ("the most portable way", and the reason
    /// gdb cannot see application pages until `elfie_on_start`).
    #[default]
    AllPages,
    /// Remap only the captured stack pages; everything else is loaded
    /// directly by the system loader. Smaller startup overhead, but
    /// assumes no other section collides with loader-managed ranges.
    StackOnly,
}

/// Conversion options.
#[derive(Debug, Clone)]
pub struct ConvertOptions {
    /// Arm per-thread retired-instruction counters so each thread exits
    /// after its recorded region instruction count (graceful exit).
    pub graceful_exit: bool,
    /// Insert a region-of-interest marker just before application code
    /// (`--roi-start TYPE:TAG`).
    pub roi_marker: Option<(MarkerKind, u32)>,
    /// Emit `elfie_on_start` / `elfie_on_thread_start` (and, with
    /// [`ConvertOptions::monitor_thread`], `elfie_on_exit`) callback
    /// markers and symbols.
    pub callbacks: bool,
    /// Create a monitor thread that spawns the application threads, waits
    /// for them to exit and fires `elfie_on_exit` (`-e` switch).
    pub monitor_thread: bool,
    /// Embed sysstate references: the startup re-creates cwd, heap break
    /// and pre-opened descriptors.
    pub sysstate: Option<SysState>,
    /// Emit a relocatable object (no startup code) instead of an
    /// executable.
    pub object_only: bool,
    /// Convert a non-fat pinball anyway (the resulting ELFie will be
    /// missing pages and fail at run time — useful for ablations).
    pub force_regular: bool,
    /// Remap strategy.
    pub remap: RemapMode,
    /// Addresses at or above this are considered stack pages.
    pub stack_threshold: u64,
    /// Extra user assembly inserted at the top of every thread entry
    /// (straight-line code only; the "link extra code at thread entry"
    /// feature).
    pub thread_prologue_asm: Option<String>,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            graceful_exit: true,
            roi_marker: None,
            callbacks: true,
            monitor_thread: false,
            sysstate: None,
            object_only: false,
            force_regular: false,
            remap: RemapMode::default(),
            stack_threshold: 0x7000_0000_0000,
            thread_prologue_asm: None,
        }
    }
}

/// Conversion statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertStats {
    /// Number of captured (non-spawned) threads.
    pub threads: usize,
    /// Number of application page runs converted to sections.
    pub app_runs: usize,
    /// Number of page runs remapped via shadows at startup.
    pub remapped_runs: usize,
    /// Total ELF image size in bytes.
    pub elf_bytes: u64,
    /// Startup code size in bytes.
    pub startup_bytes: u64,
}

/// The conversion output.
#[derive(Debug, Clone)]
pub struct Elfie {
    /// The complete ELF image.
    pub bytes: Vec<u8>,
    /// Generated linker script describing the memory layout (paper: "the
    /// linker script contains the parent pinball memory layout").
    pub linker_script: String,
    /// The generated startup assembly listing (also serves as the
    /// thread-context dump feature).
    pub startup_asm: String,
    /// Statistics.
    pub stats: ConvertStats,
}

/// Conversion errors.
#[derive(Debug)]
pub enum ConvertError {
    /// The pinball is not fat; ELFie generation needs `-log:fat` pinballs.
    NotFat,
    /// The pinball captured no threads.
    NoThreads,
    /// No free address range for startup code/contexts.
    Layout(layout::LayoutError),
    /// Generated startup failed to assemble (internal error).
    Asm(AsmError),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::NotFat => {
                write!(
                    f,
                    "pinball is not fat; re-log with -log:fat (or set force_regular)"
                )
            }
            ConvertError::NoThreads => write!(f, "pinball captured no threads"),
            ConvertError::Layout(e) => write!(f, "layout: {e}"),
            ConvertError::Asm(e) => write!(f, "startup assembly: {e}"),
        }
    }
}

impl std::error::Error for ConvertError {}

impl From<layout::LayoutError> for ConvertError {
    fn from(e: layout::LayoutError) -> Self {
        ConvertError::Layout(e)
    }
}

impl From<AsmError> for ConvertError {
    fn from(e: AsmError) -> Self {
        ConvertError::Asm(e)
    }
}

fn section_name(prefix: &str, addr: u64) -> String {
    format!("{prefix}.{addr:x}")
}

/// Counts the instructions in a straight-line prologue snippet.
fn count_prologue_insns(prologue: &str) -> Result<u64, AsmError> {
    let prog = assemble(&format!(".org 0\nstart:\n{prologue}\n"))?;
    let mut count = 0u64;
    let mut pos = 0usize;
    let bytes = prog.bytes();
    while pos < bytes.len() {
        let (_, len) = elfie_isa::decode(&bytes[pos..]).map_err(|e| AsmError {
            line: 0,
            message: format!("prologue does not decode: {e}"),
        })?;
        pos += len;
        count += 1;
    }
    Ok(count)
}

/// Converts a pinball into an ELFie.
///
/// # Errors
///
/// Returns [`ConvertError`] when the pinball is not fat (and
/// `force_regular` is unset), has no threads, or no layout can be found.
pub fn convert(pinball: &Pinball, opts: &ConvertOptions) -> Result<Elfie, ConvertError> {
    if !pinball.meta.fat && !opts.force_regular {
        return Err(ConvertError::NotFat);
    }
    let threads: Vec<_> = pinball.threads.iter().filter(|t| !t.spawned).collect();
    if threads.is_empty() && !opts.object_only {
        return Err(ConvertError::NoThreads);
    }

    // Split the memory image into runs; decide which ones are remapped.
    let runs = pinball.image.consecutive_runs();
    let is_stack = |addr: u64| addr >= opts.stack_threshold;
    let remap_pred = |addr: u64| match opts.remap {
        RemapMode::AllPages => true,
        RemapMode::StackOnly => is_stack(addr),
    };

    if opts.object_only {
        // Object output: pinball pages as sections, no startup code.
        let mut builder = ElfBuilder::new().object();
        for run in &runs {
            let exec = run.perm & 4 != 0;
            let write = run.perm & 2 != 0;
            let prefix = if exec { ".text" } else { ".data" };
            builder = builder.section(SectionSpec::progbits(
                &section_name(prefix, run.start),
                run.start,
                run.pages.clone(),
                write,
                exec,
            ));
        }
        builder = add_thread_symbols(builder, pinball, None);
        let bytes = builder.build();
        let stats = ConvertStats {
            threads: threads.len(),
            app_runs: runs.len(),
            remapped_runs: 0,
            elf_bytes: bytes.len() as u64,
            startup_bytes: 0,
        };
        let linker_script = linker_script(pinball, &runs, None);
        return Ok(Elfie {
            bytes,
            linker_script,
            startup_asm: String::new(),
            stats,
        });
    }

    // Assign shadow addresses for remapped runs.
    let shadow_total: u64 = runs
        .iter()
        .filter(|r| remap_pred(r.start))
        .map(|r| elfie_isa::page_align_up(r.byte_len()))
        .sum();
    let layout = layout::choose(pinball, shadow_total.max(elfie_isa::PAGE_SIZE))?;

    let mut remaps = Vec::new();
    let mut shadow_cursor = layout.shadow_base;
    for run in &runs {
        if remap_pred(run.start) {
            remaps.push(RemapRun {
                orig: run.start,
                shadow: shadow_cursor,
                len: run.byte_len(),
                perm: run.perm,
            });
            shadow_cursor += elfie_isa::page_align_up(run.byte_len());
        }
    }

    let prologue_insns = match &opts.thread_prologue_asm {
        Some(p) => count_prologue_insns(p)?,
        None => 0,
    };

    // Generate and assemble the startup + context source.
    let src = startup::generate_asm(
        pinball,
        opts,
        &layout,
        &remaps,
        opts.sysstate.as_ref(),
        prologue_insns,
    );
    let prog = assemble(&src)?;
    debug_assert_eq!(prog.chunks.len(), 2, "startup chunk + context chunk");
    let startup_chunk = &prog.chunks[0];
    let ctx_chunk = &prog.chunks[1];

    // Build the ELF image.
    let mut builder = ElfBuilder::new().entry(prog.entry);
    builder = builder.section(SectionSpec::progbits(
        ".text.startup",
        startup_chunk.addr,
        startup_chunk.bytes.clone(),
        false,
        true,
    ));
    builder = builder.section(SectionSpec::progbits(
        ".data.elfie",
        ctx_chunk.addr,
        ctx_chunk.bytes.clone(),
        true,
        false,
    ));

    let mut remap_iter = remaps.iter();
    for run in &runs {
        let exec = run.perm & 4 != 0;
        let write = run.perm & 2 != 0;
        if remap_pred(run.start) {
            let remap = remap_iter.next().expect("remap assigned");
            debug_assert_eq!(remap.orig, run.start);
            // Original content kept as a non-allocatable section (for the
            // record and for tooling), plus an allocatable shadow the
            // startup copies from. Both hold one `Arc` of the run's
            // pages, so the image holds them once.
            let prefix = if is_stack(run.start) {
                ".stack"
            } else if exec {
                ".text"
            } else {
                ".data"
            };
            let pages = Arc::new(run.pages.clone());
            builder = builder.section(
                SectionSpec::progbits(
                    &section_name(prefix, run.start),
                    run.start,
                    Arc::clone(&pages),
                    write,
                    exec,
                )
                .non_alloc(),
            );
            builder = builder.section(SectionSpec::progbits(
                &section_name(".shadow", run.start),
                remap.shadow,
                pages,
                false,
                false,
            ));
        } else {
            let prefix = if exec { ".text" } else { ".data" };
            builder = builder.section(SectionSpec::progbits(
                &section_name(prefix, run.start),
                run.start,
                run.pages.clone(),
                write,
                exec,
            ));
        }
    }

    // Symbols: every startup label, per-thread register-slot symbols, and
    // ELFie metadata for tools.
    for (name, value) in &prog.symbols {
        builder = builder.symbol(name, *value);
    }
    builder = add_thread_symbols(builder, pinball, Some(&prog));
    builder = builder.symbol("elfie.nthreads", threads.len() as u64);
    builder = builder.symbol("elfie.global_icount", pinball.region.length);
    for rec in &threads {
        let icount = pinball
            .region
            .thread_icounts
            .get(&rec.tid)
            .copied()
            .unwrap_or(pinball.region.length);
        builder = builder.symbol(&format!("elfie.icount.{}", rec.tid), icount);
    }
    if let Some((kind, tag)) = opts.roi_marker {
        builder = builder.symbol(&format!("elfie.roi.{}", kind.name()), tag as u64);
    }

    let bytes = builder.build();
    let stats = ConvertStats {
        threads: threads.len(),
        app_runs: runs.len(),
        remapped_runs: remaps.len(),
        elf_bytes: bytes.len() as u64,
        startup_bytes: startup_chunk.bytes.len() as u64,
    };
    let linker_script = linker_script(pinball, &runs, Some(&layout));
    Ok(Elfie {
        bytes,
        linker_script,
        startup_asm: src,
        stats,
    })
}

fn add_thread_symbols(
    mut builder: ElfBuilder,
    pinball: &Pinball,
    prog: Option<&elfie_isa::Program>,
) -> ElfBuilder {
    for (k, rec) in pinball.threads.iter().filter(|t| !t.spawned).enumerate() {
        // Start-of-thread symbol: the captured RIP.
        builder = builder.symbol(&format!(".t{k}.start"), rec.regs.rip);
        if let Some(prog) = prog {
            if let Some(pop) = prog.symbol(&format!("t{k}_pop")) {
                builder = builder.symbol(&format!(".t{k}.rflags"), pop);
                for (i, reg) in layout::POP_ORDER.iter().enumerate() {
                    builder =
                        builder.symbol(&format!(".t{k}.{}", reg.name()), pop + 8 + i as u64 * 8);
                }
            }
            if let Some(xsave) = prog.symbol(&format!("t{k}_xsave")) {
                builder = builder.symbol(&format!(".t{k}.ext_area"), xsave);
                for x in 0..16 {
                    builder = builder.symbol(&format!(".t{k}.xmm{x}"), xsave + 160 + x * 16);
                }
            }
            if let Some(slot) = prog.symbol(&format!("t{k}_rsp_slot")) {
                builder = builder.symbol(&format!(".t{k}.rsp"), slot);
            }
            if let Some(slot) = prog.symbol(&format!("t{k}_rip_slot")) {
                builder = builder.symbol(&format!(".t{k}.rip"), slot);
            }
        }
    }
    builder
}

/// Generates a GNU-ld style linker script describing the ELFie layout —
/// gives users "explicit control over the process of linking an ELFie
/// object file with an object file containing user's extra code".
fn linker_script(pinball: &Pinball, runs: &[PageRun], layout: Option<&layout::Layout>) -> String {
    let mut s = String::new();
    s.push_str("/* Linker script generated by pinball2elf */\n");
    s.push_str(&format!(
        "/* pinball: {} region: {} */\n",
        pinball.meta.name, pinball.region.name
    ));
    if let Some(l) = layout {
        s.push_str(&format!("ENTRY(elfie_start) /* {:#x} */\n", l.startup_base));
    }
    s.push_str("SECTIONS\n{\n");
    if let Some(l) = layout {
        s.push_str(&format!(
            "  . = {:#x};\n  .text.startup : {{ *(.text.startup) }}\n",
            l.startup_base
        ));
        s.push_str(&format!(
            "  . = {:#x};\n  .data.elfie : {{ *(.data.elfie) }}\n",
            l.ctx_base
        ));
    }
    for run in runs {
        let exec = run.perm & 4 != 0;
        let prefix = if exec { ".text" } else { ".data" };
        let name = section_name(prefix, run.start);
        s.push_str(&format!(
            "  . = {:#x};\n  {name} : {{ *({name}) }} /* {} bytes, perm {:#o} */\n",
            run.start,
            run.byte_len(),
            run.perm
        ));
    }
    s.push_str("}\n");
    s
}
