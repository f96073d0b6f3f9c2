//! The functional interpreter: executes one instruction at a time against
//! a [`Thread`] and a [`Memory`].
//!
//! The interpreter is deliberately free of scheduling policy — the
//! [`crate::machine::Machine`] (native execution), the PinPlay logger and
//! replayer, and the timing simulators all drive this same `step`
//! function, which is exactly the property the ELFie tool-chain relies on:
//! one functional ISA, many execution harnesses.

use crate::mem::{MemError, Memory};
use crate::obs::Observer;
use crate::thread::Thread;
use elfie_isa::{
    decode, AluOp, Cond, DecodeError, Flags, FpOp, Insn, MarkerKind, Mem, Seg, XSaveArea,
    PAGE_SIZE, XSAVE_AREA_SIZE,
};
use std::fmt;

/// Maximum encoded instruction length; the fetch window size.
pub const MAX_INSN_LEN: usize = 16;

/// A fault that terminates straight-line execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A data access faulted.
    Mem(MemError),
    /// Instruction fetch faulted (unmapped / non-executable page).
    Fetch(MemError),
    /// The bytes at `rip` do not decode.
    Decode { rip: u64, err: DecodeError },
    /// Integer division by zero.
    DivideByZero { rip: u64 },
    /// A `UD2` instruction was executed.
    InvalidOpcode { rip: u64 },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Mem(e) => write!(f, "memory fault: {e}"),
            Fault::Fetch(e) => write!(f, "fetch fault: {e}"),
            Fault::Decode { rip, err } => write!(f, "decode fault at {rip:#x}: {err}"),
            Fault::DivideByZero { rip } => write!(f, "divide by zero at {rip:#x}"),
            Fault::InvalidOpcode { rip } => write!(f, "invalid opcode (ud2) at {rip:#x}"),
        }
    }
}

impl std::error::Error for Fault {}

/// The outcome of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Execution continues at the (already updated) `rip`.
    Normal,
    /// A `SYSCALL` executed; `rip` points at the next instruction and the
    /// kernel should now service the request.
    Syscall,
    /// A marker instruction executed (ROI boundary etc.).
    Marker(MarkerKind, u32),
    /// Execution faulted; `rip` still points at the faulting instruction.
    Fault(Fault),
}

/// Per-step environment provided by the execution harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepEnv {
    /// Value `RDTSC` returns (the harness's notion of time).
    pub tsc: u64,
}

#[inline]
fn ea(t: &Thread, m: &Mem) -> u64 {
    let mut a = m.disp as i64 as u64;
    if let Some(b) = m.base {
        a = a.wrapping_add(t.regs.read(b));
    }
    if let Some(i) = m.index {
        a = a.wrapping_add(t.regs.read(i).wrapping_mul(m.scale.value()));
    }
    match m.seg {
        Some(Seg::Fs) => a = a.wrapping_add(t.regs.fs_base),
        Some(Seg::Gs) => a = a.wrapping_add(t.regs.gs_base),
        None => {}
    }
    a
}

fn set_zs(flags: &mut Flags, v: u64) {
    flags.zf = v == 0;
    flags.sf = (v as i64) < 0;
}

fn add_with_flags(a: u64, b: u64, flags: &mut Flags) -> u64 {
    let (r, cf) = a.overflowing_add(b);
    let of = (a as i64).overflowing_add(b as i64).1;
    flags.cf = cf;
    flags.of = of;
    set_zs(flags, r);
    r
}

fn sub_with_flags(a: u64, b: u64, flags: &mut Flags) -> u64 {
    let (r, cf) = a.overflowing_sub(b);
    let of = (a as i64).overflowing_sub(b as i64).1;
    flags.cf = cf;
    flags.of = of;
    set_zs(flags, r);
    r
}

fn logic_flags(flags: &mut Flags, r: u64) {
    flags.cf = false;
    flags.of = false;
    set_zs(flags, r);
}

fn alu(op: AluOp, a: u64, b: u64, flags: &mut Flags, rip: u64) -> Result<u64, Fault> {
    Ok(match op {
        AluOp::Add => add_with_flags(a, b, flags),
        AluOp::Sub => sub_with_flags(a, b, flags),
        AluOp::And => {
            let r = a & b;
            logic_flags(flags, r);
            r
        }
        AluOp::Or => {
            let r = a | b;
            logic_flags(flags, r);
            r
        }
        AluOp::Xor => {
            let r = a ^ b;
            logic_flags(flags, r);
            r
        }
        AluOp::Shl => {
            let s = b & 63;
            let r = if s == 0 { a } else { a << s };
            if s > 0 {
                flags.cf = (a >> (64 - s)) & 1 != 0;
                flags.of = false;
                set_zs(flags, r);
            }
            r
        }
        AluOp::Shr => {
            let s = b & 63;
            let r = if s == 0 { a } else { a >> s };
            if s > 0 {
                flags.cf = (a >> (s - 1)) & 1 != 0;
                flags.of = false;
                set_zs(flags, r);
            }
            r
        }
        AluOp::Sar => {
            let s = b & 63;
            let r = if s == 0 { a } else { ((a as i64) >> s) as u64 };
            if s > 0 {
                flags.cf = ((a as i64) >> (s - 1)) & 1 != 0;
                flags.of = false;
                set_zs(flags, r);
            }
            r
        }
        AluOp::Imul => {
            let full = (a as i64 as i128) * (b as i64 as i128);
            let r = full as i64;
            let overflow = full != r as i128;
            flags.cf = overflow;
            flags.of = overflow;
            set_zs(flags, r as u64);
            r as u64
        }
        AluOp::Udiv => {
            if b == 0 {
                return Err(Fault::DivideByZero { rip });
            }
            a / b
        }
        AluOp::Urem => {
            if b == 0 {
                return Err(Fault::DivideByZero { rip });
            }
            a % b
        }
    })
}

/// Evaluates a branch condition against the flags.
pub fn cond_holds(flags: Flags, c: Cond) -> bool {
    match c {
        Cond::E => flags.zf,
        Cond::Ne => !flags.zf,
        Cond::L => flags.sf != flags.of,
        Cond::Le => flags.zf || flags.sf != flags.of,
        Cond::G => !flags.zf && flags.sf == flags.of,
        Cond::Ge => flags.sf == flags.of,
        Cond::B => flags.cf,
        Cond::Be => flags.cf || flags.zf,
        Cond::A => !flags.cf && !flags.zf,
        Cond::Ae => !flags.cf,
        Cond::S => flags.sf,
        Cond::Ns => !flags.sf,
    }
}

/// Fetches and decodes the instruction at the thread's `rip`.
pub fn fetch_decode(t: &Thread, mem: &Memory) -> Result<(Insn, usize), Fault> {
    let mut buf = [0u8; MAX_INSN_LEN];
    let n = mem.fetch(t.regs.rip, &mut buf).map_err(Fault::Fetch)?;
    decode(&buf[..n]).map_err(|err| Fault::Decode {
        rip: t.regs.rip,
        err,
    })
}

// NOTE: expands inside `step` and relies on its locals: on a data fault
// the instruction must NOT retire, so `rip` is rewound to the faulting
// instruction — crucial for harnesses that handle the fault (lazy page
// injection) and re-execute it.
macro_rules! try_mem {
    ($t:expr, $rip:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $t.regs.rip = $rip;
                return Effect::Fault(Fault::Mem(e));
            }
        }
    };
}

/// Executes one instruction on `t`, reporting data accesses to `obs`.
///
/// On [`Effect::Normal`]/[`Effect::Syscall`]/[`Effect::Marker`] the
/// instruction retired and `rip` has advanced; the caller is responsible
/// for instruction-count accounting. On [`Effect::Fault`] the thread state
/// is unchanged except for partially completed memory writes (as on real
/// hardware).
pub fn step<O: Observer>(t: &mut Thread, mem: &mut Memory, env: StepEnv, obs: &mut O) -> Effect {
    let (insn, len) = match fetch_decode(t, mem) {
        Ok(v) => v,
        Err(f) => return Effect::Fault(f),
    };
    exec(t, mem, insn, len, env, obs)
}

/// Executes one *already decoded* instruction at the thread's `rip`.
///
/// This is [`step`] minus fetch+decode: the block-cache fast path
/// ([`crate::bbcache`]) calls it with pre-decoded instructions. `insn` and
/// `len` must be exactly what [`fetch_decode`] would return for the
/// current `rip` — the observer callback order, flag effects and fault
/// semantics (data faults rewind `rip` so the instruction can be
/// re-executed after e.g. lazy page injection) are identical to `step`.
#[inline]
pub fn exec<O: Observer>(
    t: &mut Thread,
    mem: &mut Memory,
    insn: Insn,
    len: usize,
    env: StepEnv,
    obs: &mut O,
) -> Effect {
    let rip = t.regs.rip;
    obs.on_insn(t.tid, rip, &insn, len);
    let next = rip.wrapping_add(len as u64);
    t.regs.rip = next;

    macro_rules! read_mem {
        ($m:expr, $sz:expr, $read:ident) => {{
            let a = ea(t, &$m);
            obs.on_mem_read(t.tid, a, $sz);
            try_mem!(t, rip, mem.$read(a))
        }};
    }
    macro_rules! write_mem {
        ($m:expr, $sz:expr, $write:ident, $v:expr) => {{
            let a = ea(t, &$m);
            obs.on_mem_write(t.tid, a, $sz);
            try_mem!(t, rip, mem.$write(a, $v))
        }};
    }

    match insn {
        Insn::Nop | Insn::Pause | Insn::Mfence => {}
        Insn::MovRR(d, s) => {
            let v = t.regs.read(s);
            t.regs.write(d, v);
        }
        Insn::MovRI(d, imm) => t.regs.write(d, imm),
        Insn::Load(d, m) => {
            let v = read_mem!(m, 8, read_u64);
            t.regs.write(d, v);
        }
        Insn::Store(m, s) => {
            let v = t.regs.read(s);
            write_mem!(m, 8, write_u64, v);
        }
        Insn::LoadB(d, m) => {
            let v = read_mem!(m, 1, read_u8);
            t.regs.write(d, v as u64);
        }
        Insn::StoreB(m, s) => {
            let v = t.regs.read(s) as u8;
            write_mem!(m, 1, write_u8, v);
        }
        Insn::LoadW(d, m) => {
            let v = read_mem!(m, 4, read_u32);
            t.regs.write(d, v as u64);
        }
        Insn::StoreW(m, s) => {
            let v = t.regs.read(s) as u32;
            write_mem!(m, 4, write_u32, v);
        }
        Insn::Lea(d, m) => {
            let a = ea(t, &m);
            t.regs.write(d, a);
        }
        Insn::Push(r) => {
            let v = t.regs.read(r);
            let sp = t.regs.rsp().wrapping_sub(8);
            obs.on_mem_write(t.tid, sp, 8);
            try_mem!(t, rip, mem.write_u64(sp, v));
            t.regs.set_rsp(sp);
        }
        Insn::Pop(r) => {
            let sp = t.regs.rsp();
            obs.on_mem_read(t.tid, sp, 8);
            let v = try_mem!(t, rip, mem.read_u64(sp));
            t.regs.set_rsp(sp.wrapping_add(8));
            t.regs.write(r, v);
        }
        Insn::Pushfq => {
            let v = t.regs.flags.to_bits();
            let sp = t.regs.rsp().wrapping_sub(8);
            obs.on_mem_write(t.tid, sp, 8);
            try_mem!(t, rip, mem.write_u64(sp, v));
            t.regs.set_rsp(sp);
        }
        Insn::Popfq => {
            let sp = t.regs.rsp();
            obs.on_mem_read(t.tid, sp, 8);
            let v = try_mem!(t, rip, mem.read_u64(sp));
            t.regs.set_rsp(sp.wrapping_add(8));
            t.regs.flags = Flags::from_bits(v);
        }
        Insn::Xchg(m, r) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, 8);
            let old = try_mem!(t, rip, mem.read_u64(a));
            obs.on_mem_write(t.tid, a, 8);
            try_mem!(t, rip, mem.write_u64(a, t.regs.read(r)));
            t.regs.write(r, old);
        }
        Insn::AluRR(op, d, s) => {
            let a = t.regs.read(d);
            let b = t.regs.read(s);
            match alu(op, a, b, &mut t.regs.flags, rip) {
                Ok(r) => t.regs.write(d, r),
                Err(f) => {
                    t.regs.rip = rip;
                    return Effect::Fault(f);
                }
            }
        }
        Insn::AluRI(op, d, imm) => {
            let a = t.regs.read(d);
            let b = imm as i64 as u64;
            match alu(op, a, b, &mut t.regs.flags, rip) {
                Ok(r) => t.regs.write(d, r),
                Err(f) => {
                    t.regs.rip = rip;
                    return Effect::Fault(f);
                }
            }
        }
        Insn::Neg(r) => {
            let a = t.regs.read(r);
            let v = sub_with_flags(0, a, &mut t.regs.flags);
            t.regs.flags.cf = a != 0;
            t.regs.write(r, v);
        }
        Insn::Not(r) => {
            let v = !t.regs.read(r);
            t.regs.write(r, v);
        }
        Insn::CmpRR(a, b) => {
            let (x, y) = (t.regs.read(a), t.regs.read(b));
            sub_with_flags(x, y, &mut t.regs.flags);
        }
        Insn::CmpRI(a, imm) => {
            let x = t.regs.read(a);
            sub_with_flags(x, imm as i64 as u64, &mut t.regs.flags);
        }
        Insn::TestRR(a, b) => {
            let r = t.regs.read(a) & t.regs.read(b);
            logic_flags(&mut t.regs.flags, r);
        }
        Insn::Jmp(rel) => t.regs.rip = next.wrapping_add(rel as i64 as u64),
        Insn::JmpR(r) => t.regs.rip = t.regs.read(r),
        Insn::JmpM(m) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, 8);
            let target = try_mem!(t, rip, mem.read_u64(a));
            t.regs.rip = target;
        }
        Insn::Jcc(c, rel) => {
            if cond_holds(t.regs.flags, c) {
                t.regs.rip = next.wrapping_add(rel as i64 as u64);
            }
        }
        Insn::Call(rel) => {
            let sp = t.regs.rsp().wrapping_sub(8);
            obs.on_mem_write(t.tid, sp, 8);
            try_mem!(t, rip, mem.write_u64(sp, next));
            t.regs.set_rsp(sp);
            t.regs.rip = next.wrapping_add(rel as i64 as u64);
        }
        Insn::CallR(r) => {
            let target = t.regs.read(r);
            let sp = t.regs.rsp().wrapping_sub(8);
            obs.on_mem_write(t.tid, sp, 8);
            try_mem!(t, rip, mem.write_u64(sp, next));
            t.regs.set_rsp(sp);
            t.regs.rip = target;
        }
        Insn::Ret => {
            let sp = t.regs.rsp();
            obs.on_mem_read(t.tid, sp, 8);
            let ra = try_mem!(t, rip, mem.read_u64(sp));
            t.regs.set_rsp(sp.wrapping_add(8));
            t.regs.rip = ra;
        }
        Insn::LockXadd(m, r) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, 8);
            let old = try_mem!(t, rip, mem.read_u64(a));
            let sum = add_with_flags(old, t.regs.read(r), &mut t.regs.flags);
            obs.on_mem_write(t.tid, a, 8);
            try_mem!(t, rip, mem.write_u64(a, sum));
            t.regs.write(r, old);
        }
        Insn::LockCmpXchg(m, r) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, 8);
            let cur = try_mem!(t, rip, mem.read_u64(a));
            let expected = t.regs.read(elfie_isa::Reg::Rax);
            sub_with_flags(expected, cur, &mut t.regs.flags);
            if cur == expected {
                obs.on_mem_write(t.tid, a, 8);
                try_mem!(t, rip, mem.write_u64(a, t.regs.read(r)));
            } else {
                t.regs.write(elfie_isa::Reg::Rax, cur);
            }
        }
        Insn::RepMovs => {
            let count = t.regs.read(elfie_isa::Reg::Rcx);
            let src = t.regs.read(elfie_isa::Reg::Rsi);
            let dst = t.regs.read(elfie_isa::Reg::Rdi);
            let bytes = count.saturating_mul(8);
            if bytes > 0 {
                obs.on_mem_read(t.tid, src, bytes);
                obs.on_mem_write(t.tid, dst, bytes);
                // Copy in page-sized chunks to bound the scratch buffer. A
                // chunk covering a whole source and destination page is
                // handed to `copy_page`, which aliases a shared source
                // instead of copying it.
                let mut off = 0u64;
                let mut buf = [0u8; PAGE_SIZE as usize];
                while off < bytes {
                    let n = (bytes - off).min(PAGE_SIZE);
                    let (s, d) = (src + off, dst + off);
                    if n == PAGE_SIZE && s % PAGE_SIZE == 0 && d % PAGE_SIZE == 0 {
                        try_mem!(t, rip, mem.copy_page(s, d));
                    } else {
                        let buf = &mut buf[..n as usize];
                        try_mem!(t, rip, mem.read_bytes(s, buf));
                        try_mem!(t, rip, mem.write_bytes(d, buf));
                    }
                    off += n;
                }
            }
            t.regs.write(elfie_isa::Reg::Rsi, src.wrapping_add(bytes));
            t.regs.write(elfie_isa::Reg::Rdi, dst.wrapping_add(bytes));
            t.regs.write(elfie_isa::Reg::Rcx, 0);
        }
        Insn::Syscall => return Effect::Syscall,
        Insn::Rdtsc => {
            t.regs.write(elfie_isa::Reg::Rax, env.tsc);
            t.regs.write(elfie_isa::Reg::Rdx, 0);
        }
        Insn::Ud2 => {
            t.regs.rip = rip;
            return Effect::Fault(Fault::InvalidOpcode { rip });
        }
        Insn::Marker(k, tag) => {
            obs.on_marker(t.tid, k, tag);
            return Effect::Marker(k, tag);
        }
        Insn::RdFsBase(r) => {
            let v = t.regs.fs_base;
            t.regs.write(r, v);
        }
        Insn::WrFsBase(r) => t.regs.fs_base = t.regs.read(r),
        Insn::RdGsBase(r) => {
            let v = t.regs.gs_base;
            t.regs.write(r, v);
        }
        Insn::WrGsBase(r) => t.regs.gs_base = t.regs.read(r),
        Insn::Fxsave(m) | Insn::Xsave(m) => {
            let a = ea(t, &m);
            obs.on_mem_write(t.tid, a, XSAVE_AREA_SIZE as u64);
            try_mem!(t, rip, mem.write_bytes(a, &t.regs.xsave.to_bytes()));
        }
        Insn::Fxrstor(m) | Insn::Xrstor(m) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, XSAVE_AREA_SIZE as u64);
            let mut buf = [0u8; XSAVE_AREA_SIZE];
            try_mem!(t, rip, mem.read_bytes(a, &mut buf));
            t.regs.xsave = XSaveArea::from_bytes(&buf);
        }
        Insn::MovsdXM(x, m) => {
            let a = ea(t, &m);
            obs.on_mem_read(t.tid, a, 8);
            let v = try_mem!(t, rip, mem.read_u64(a));
            t.regs.xsave.write_u64(x, v);
        }
        Insn::MovsdMX(m, x) => {
            let v = t.regs.xsave.read_u64(x);
            let a = ea(t, &m);
            obs.on_mem_write(t.tid, a, 8);
            try_mem!(t, rip, mem.write_u64(a, v));
        }
        Insn::MovsdXX(d, s) => {
            let v = t.regs.xsave.read_u64(s);
            t.regs.xsave.write_u64(d, v);
        }
        Insn::FpRR(op, d, s) => {
            let a = t.regs.xsave.read_f64(d);
            let b = t.regs.xsave.read_f64(s);
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
                FpOp::Min => a.min(b),
                FpOp::Max => a.max(b),
                FpOp::Sqrt => b.sqrt(),
            };
            t.regs.xsave.write_f64(d, r);
        }
        Insn::Cvtsi2sd(x, r) => {
            let v = t.regs.read(r) as i64 as f64;
            t.regs.xsave.write_f64(x, v);
        }
        Insn::Cvttsd2si(r, x) => {
            let v = t.regs.xsave.read_f64(x);
            t.regs.write(r, v as i64 as u64);
        }
        Insn::Comisd(a, b) => {
            let (x, y) = (t.regs.xsave.read_f64(a), t.regs.xsave.read_f64(b));
            let f = &mut t.regs.flags;
            f.sf = false;
            f.of = false;
            if x.is_nan() || y.is_nan() {
                f.zf = true;
                f.cf = true;
            } else if x < y {
                f.zf = false;
                f.cf = true;
            } else if x == y {
                f.zf = true;
                f.cf = false;
            } else {
                f.zf = false;
                f.cf = false;
            }
        }
        Insn::MovqRX(r, x) => {
            let v = t.regs.xsave.read_u64(x);
            t.regs.write(r, v);
        }
        Insn::MovqXR(x, r) => {
            let v = t.regs.read(r);
            t.regs.xsave.write_u64(x, v);
        }
    }
    Effect::Normal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Perm;
    use crate::obs::NullObserver;
    use elfie_isa::{assemble, Reg, RegFile, Xmm};

    fn machine_for(src: &str) -> (Thread, Memory) {
        let p = assemble(src).expect("assembles");
        let mut mem = Memory::new();
        for c in &p.chunks {
            mem.map_range(c.addr, c.end().max(c.addr + 1), Perm::RWX)
                .unwrap();
            mem.write_bytes_unchecked(c.addr, &c.bytes).unwrap();
        }
        // Stack.
        mem.map_range(0x7000_0000, 0x7001_0000, Perm::RW).unwrap();
        let mut regs = RegFile::new();
        regs.rip = p.entry;
        regs.set_rsp(0x7001_0000);
        (Thread::new(0, regs), mem)
    }

    fn run(t: &mut Thread, mem: &mut Memory, max: usize) -> Effect {
        let mut obs = NullObserver;
        for i in 0..max {
            let env = StepEnv { tsc: i as u64 };
            match step(t, mem, env, &mut obs) {
                Effect::Normal => {}
                e => return e,
            }
        }
        panic!("did not terminate in {max} steps");
    }

    #[test]
    fn arithmetic_and_flags() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 10
                mov rbx, 3
                sub rax, rbx      ; 7
                imul rax, rbx     ; 21
                mov rcx, 5
                udiv rax, rcx     ; 4
                urem rbx, rcx     ; 3
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rax), 4);
        assert_eq!(t.regs.read(Reg::Rbx), 3);
    }

    #[test]
    fn loop_with_branches() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 0
                mov rcx, 10
            loop:
                add rax, rcx
                sub rcx, 1
                cmp rcx, 0
                jne loop
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 1000), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rax), 55);
    }

    #[test]
    fn call_ret_and_stack() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rdi, 5
                call double
                syscall
            double:
                mov rax, rdi
                add rax, rdi
                ret
            "#,
        );
        let sp0 = t.regs.rsp();
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rax), 10);
        assert_eq!(t.regs.rsp(), sp0, "stack balanced");
    }

    #[test]
    fn memory_loads_and_stores() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rbx, buf
                mov rax, 0x11223344aabbccdd
                mov [rbx], rax
                movd rcx, [rbx]          ; low 32, zero-extended
                movb rdx, [rbx + 3]      ; byte 3 (LE: 0xaa)
                syscall
            .align 8
            buf: .zero 16
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rcx), 0xaabbccdd);
        assert_eq!(t.regs.read(Reg::Rdx), 0xaa);
    }

    #[test]
    fn signed_and_unsigned_conditions() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 0
                sub rax, 1        ; rax = -1 (unsigned max)
                mov rbx, 1
                cmp rax, rbx
                jl signed_less
                syscall           ; must not reach via fallthrough
            signed_less:
                cmp rax, rbx
                ja unsigned_above
                ud2
            unsigned_above:
                mov rdi, 1
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rdi), 1);
    }

    #[test]
    fn atomic_xadd_and_cmpxchg() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rbx, word
                mov rcx, 5
                xadd [rbx], rcx      ; word=15, rcx=10
                mov rax, 15
                mov rdx, 99
                cmpxchg [rbx], rdx   ; succeeds: word=99, ZF
                jne fail
                mov rax, 15
                cmpxchg [rbx], rdx   ; fails: rax=99
                je fail
                syscall
            fail:
                ud2
            .align 8
            word: .quad 10
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rcx), 10);
        assert_eq!(t.regs.read(Reg::Rax), 99);
        let word = mem.read_u64(0x1000).ok();
        let _ = word; // address of `word` label not needed; value checked via rax
    }

    #[test]
    fn fp_pipeline() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 9
                cvtsi2sd xmm0, rax
                sqrtsd xmm1, xmm0       ; 3.0
                addsd xmm1, xmm1        ; 6.0
                cvttsd2si rbx, xmm1
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rbx), 6);
        assert_eq!(t.regs.xsave.read_f64(Xmm(1)), 6.0);
    }

    #[test]
    fn comisd_sets_flags() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 1
                cvtsi2sd xmm0, rax
                mov rax, 2
                cvtsi2sd xmm1, rax
                comisd xmm0, xmm1
                jb less
                ud2
            less:
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
    }

    #[test]
    fn fxsave_fxrstor_roundtrip() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 7
                cvtsi2sd xmm3, rax
                mov rbx, area
                fxsave [rbx]
                mov rax, 0
                cvtsi2sd xmm3, rax      ; clobber
                fxrstor [rbx]
                syscall
            .align 16
            area: .zero 512
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.xsave.read_f64(Xmm(3)), 7.0);
    }

    #[test]
    fn segment_base_addressing() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, tls
                wrfsbase rax
                mov rbx, fs:[8]
                rdfsbase rcx
                syscall
            .align 8
            tls: .quad 0, 424242
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
        assert_eq!(t.regs.read(Reg::Rbx), 424242);
        assert_eq!(t.regs.read(Reg::Rcx), t.regs.fs_base);
    }

    #[test]
    fn ud2_faults_without_advancing_rip() {
        let (mut t, mut mem) = machine_for(".org 0x1000\nstart: ud2\n");
        let e = run(&mut t, &mut mem, 10);
        assert_eq!(e, Effect::Fault(Fault::InvalidOpcode { rip: 0x1000 }));
        assert_eq!(t.regs.rip, 0x1000);
    }

    #[test]
    fn divide_by_zero_faults() {
        let (mut t, mut mem) =
            machine_for(".org 0x1000\nstart:\n mov rax, 1\n mov rbx, 0\n udiv rax, rbx\n");
        match run(&mut t, &mut mem, 10) {
            Effect::Fault(Fault::DivideByZero { .. }) => {}
            e => panic!("expected divide fault, got {e:?}"),
        }
    }

    #[test]
    fn jump_to_unmapped_page_is_fetch_fault() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 0x900000
                jmp rax
            "#,
        );
        match run(&mut t, &mut mem, 10) {
            Effect::Fault(Fault::Fetch(MemError::Unmapped { addr, .. })) => {
                assert_eq!(addr, 0x900000);
            }
            e => panic!("expected fetch fault, got {e:?}"),
        }
    }

    #[test]
    fn executing_data_decodes_or_faults_eventually() {
        // Jump into a page full of 0xee bytes: must decode-fault.
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, data
                jmp rax
            data: .byte 0xee, 0xee
            "#,
        );
        match run(&mut t, &mut mem, 10) {
            Effect::Fault(Fault::Decode { .. }) => {}
            e => panic!("expected decode fault, got {e:?}"),
        }
    }

    #[test]
    fn rdtsc_returns_env_time() {
        let (mut t, mut mem) = machine_for(".org 0x1000\nstart: rdtsc\nsyscall\n");
        let mut obs = NullObserver;
        let e = step(&mut t, &mut mem, StepEnv { tsc: 1234 }, &mut obs);
        assert_eq!(e, Effect::Normal);
        assert_eq!(t.regs.read(Reg::Rax), 1234);
    }

    #[test]
    fn marker_effect_reported() {
        let (mut t, mut mem) = machine_for(".org 0x1000\nstart: marker ssc, 7\n");
        let mut obs = NullObserver;
        let e = step(&mut t, &mut mem, StepEnv::default(), &mut obs);
        assert_eq!(e, Effect::Marker(MarkerKind::Ssc, 7));
    }

    #[test]
    fn pushfq_popfq_roundtrip_flags() {
        let (mut t, mut mem) = machine_for(
            r#"
            .org 0x1000
            start:
                mov rax, 0
                cmp rax, 0       ; ZF set
                pushfq
                mov rbx, 1
                cmp rbx, 0       ; ZF clear
                popfq
                je ok            ; ZF restored
                ud2
            ok:
                syscall
            "#,
        );
        assert_eq!(run(&mut t, &mut mem, 100), Effect::Syscall);
    }
}
