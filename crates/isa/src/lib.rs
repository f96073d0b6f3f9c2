//! # elfie-isa
//!
//! Instruction-set architecture used throughout the ELFies reproduction.
//!
//! This crate defines a 64-bit, x86-flavoured guest ISA:
//!
//! * sixteen 64-bit general purpose registers named after their x86-64
//!   counterparts ([`Reg::Rax`] .. [`Reg::R15`]),
//! * a flags register with `ZF`/`SF`/`CF`/`OF`,
//! * `FS`/`GS` segment bases for thread-local addressing,
//! * sixteen 128-bit XMM registers held in an XSAVE-style save area
//!   ([`XSaveArea`]) that is restored with `FXRSTOR`/`XRSTOR` instructions,
//! * a variable-length binary encoding ([`fn@encode`]/[`fn@decode`]),
//! * a textual assembler ([`asm::Assembler`]) and disassembler
//!   ([`disasm::disassemble`]).
//!
//! The ISA intentionally mirrors the pieces of x86-64 that the ELFie
//! tool-chain manipulates: thread register contexts (GPRs + flags + segment
//! bases + extended state), variable-length instructions so that executing
//! an unmapped/garbage page faults realistically, atomic read-modify-write
//! instructions for spin locks, a `SYSCALL` instruction with the Linux
//! x86-64 argument convention, and the marker instructions
//! (`CPUID`-style, SSC and Simics-magic) that simulators use to detect the
//! start of the region of interest inside an ELFie.
//!
//! ## Example
//!
//! ```
//! use elfie_isa::Assembler;
//!
//! let prog = Assembler::new()
//!     .source(
//!         r#"
//!         .org 0x400000
//!         start:
//!             mov rax, 60        ; exit
//!             mov rdi, 0
//!             syscall
//!         "#,
//!     )
//!     .assemble()
//!     .expect("assembles");
//! assert_eq!(prog.origin, 0x400000);
//! assert!(!prog.is_empty());
//! ```

pub mod asm;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod hash;
pub mod insn;
pub mod reg;
#[cfg(any(test, feature = "test-strategies"))]
pub mod test_strategies;

pub use asm::{assemble, AsmError, Assembler, Chunk, Program};
pub use decode::{decode, DecodeError};
pub use disasm::{disassemble, format_insn, listing, DisasmLine};
pub use encode::{encode, encoded_len};
pub use hash::{fnv64, xxh64, Fnv64, U64BuildHasher, U64Hasher};
pub use insn::{AluOp, Cond, FpOp, Insn, MarkerKind, Mem, Scale, Seg};
pub use reg::{Flags, Reg, RegFile, XSaveArea, Xmm, XSAVE_AREA_SIZE};

/// Size in bytes of one guest page. Matches the 4 KiB pages that pinballs
/// and ELF program headers operate on.
pub const PAGE_SIZE: u64 = 4096;

/// Mask selecting the page-offset bits of a virtual address.
pub const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Rounds `addr` down to the containing page base.
///
/// ```
/// assert_eq!(elfie_isa::page_base(0x4011ff), 0x401000);
/// ```
#[inline]
pub const fn page_base(addr: u64) -> u64 {
    addr & !PAGE_MASK
}

/// Rounds `addr` up to the next page boundary (identity on boundaries).
///
/// ```
/// assert_eq!(elfie_isa::page_align_up(0x401001), 0x402000);
/// assert_eq!(elfie_isa::page_align_up(0x401000), 0x401000);
/// ```
#[inline]
pub const fn page_align_up(addr: u64) -> u64 {
    (addr + PAGE_MASK) & !PAGE_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_helpers_are_consistent() {
        for a in [0u64, 1, 4095, 4096, 4097, 0xdead_beef] {
            assert!(page_base(a) <= a);
            assert!(page_align_up(a) >= a);
            assert_eq!(page_base(a) % PAGE_SIZE, 0);
            assert_eq!(page_align_up(a) % PAGE_SIZE, 0);
        }
    }
}
