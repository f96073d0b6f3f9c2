//! Interval snapshots: everything needed to resume a constrained replay
//! mid-region.
//!
//! A [`Snapshot`] is a *delta* against a pinball's boot memory image: the
//! pages the region dirtied since boot (detected in O(1) per page at the
//! CoW choke point — a page whose frame still shares the arena payload of
//! the boot image is clean by construction), plus the architectural state
//! the replayer cannot rebuild from the pinball alone: per-thread
//! registers and scheduling state, the replay-injection position (how many
//! logged syscalls each thread has consumed, how many spawned threads were
//! adopted, the race-log cursor), kernel facts (`brk`, captured stdout),
//! and the hardware-model cache tags that make resumed *timing*
//! bit-identical, not just resumed architectural state.
//!
//! Snapshots are taken every N instructions during a profiling replay and
//! persisted as *chained* manifests in `elfie-store` (each child
//! references its parent; only delta pages become new blobs). The sharded
//! simulator boots one worker per snapshot and simulates only the slice up
//! to the next snapshot, which is what turns O(region) simulate wall-time
//! into O(region / workers).
//!
//! This crate only defines the *data* and its codec; capturing from and
//! resuming into a live machine lives in `elfie-pinplay` (which owns the
//! replay loop), keeping `elfie-pinball` free of a VM dependency.

use crate::wire::{Reader, WireError, Writer};
use crate::{MemoryImage, PageRecord, RegImage};
use std::collections::BTreeMap;

/// Magic for the snapshot wire form.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"PBSN";
/// Version of the snapshot wire form. Version 2 ends a whole
/// [`Snapshot::to_bytes`] buffer in an XXH64 trailer; version 1, still
/// read, carries FNV-64. The state-only form has no trailer; its layout
/// is the same in both.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Oldest snapshot version the decoders still read.
const OLDEST_SNAPSHOT_VERSION: u32 = 1;

/// Where in the region (and in the replay-injection streams) a snapshot
/// was taken. All counters are cumulative since region entry, so a worker
/// booting from the snapshot continues them and its final totals match a
/// serial replay's bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Index of the slice this snapshot *starts* (snapshot k begins
    /// slice k; slice 0 starts from the pinball itself).
    pub slice_index: u64,
    /// The snapshot interval (instructions) this snapshot was produced
    /// with; informational.
    pub interval: u64,
    /// Machine-global retired instructions at capture.
    pub global_icount: u64,
    /// Machine-global cycles (native hardware model) at capture.
    pub cycles: u64,
    /// Replay fuel consumed so far (capture-config fuel minus remaining).
    pub fuel_spent: u64,
    /// Race-log cursor: sync points already consumed.
    pub race_ptr: u64,
    /// Spawned (mid-region `clone`d) threads already adopted from the
    /// pinball's spawn queue.
    pub spawns_adopted: u64,
    /// Syscall effects injected so far (all threads).
    pub injected_syscalls: u64,
    /// Lazy pages injected so far (regular pinballs).
    pub lazy_pages_injected: u64,
}

/// A thread's scheduling state, as plain data (no `elfie-vm` types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStateSnap {
    /// Eligible to run.
    Runnable,
    /// Blocked on the futex word at this address.
    FutexWait(u64),
    /// Exited with this code.
    Exited(i32),
}

/// One thread's complete resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSnap {
    /// Machine-local tid (dense, order of creation).
    pub machine_tid: u32,
    /// Original (logged) tid this machine thread replays.
    pub orig_tid: u32,
    /// Architectural registers at capture.
    pub regs: RegImage,
    /// Scheduling state at capture.
    pub state: ThreadStateSnap,
    /// Retired instructions since thread start.
    pub icount: u64,
    /// Accumulated cycles under the hardware model.
    pub cycles: u64,
    /// Graceful-exit counter target (`None` = not armed).
    pub exit_target: Option<u64>,
    /// Graceful-exit counter progress.
    pub exit_count: u64,
    /// Whether the graceful-exit counter already fired.
    pub exit_fired: bool,
}

/// Kernel-model state a resumed replay needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelSnap {
    /// Program-break start (bottom of the heap).
    pub brk_start: u64,
    /// Current program break.
    pub brk: u64,
    /// Working directory.
    pub cwd: String,
    /// Bytes the region wrote to stdout so far.
    pub stdout: Vec<u8>,
}

/// One direct-mapped cache level's state (tags + hit/miss counters).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheSnap {
    /// Line tags, one per set (`u64::MAX` = empty).
    pub tags: Vec<u64>,
    /// Hits so far.
    pub hits: u64,
    /// Misses so far.
    pub misses: u64,
}

/// A resumable mid-region checkpoint: delta pages vs. the boot image plus
/// all non-memory state. See the module docs for the capture/resume
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Position and cumulative counters.
    pub meta: SnapshotMeta,
    /// Per-thread state, in machine-tid order (dense from 0).
    pub threads: Vec<ThreadSnap>,
    /// Logged syscalls already consumed, per *original* tid. Threads with
    /// zero consumed calls may be omitted.
    pub consumed_syscalls: BTreeMap<u32, u64>,
    /// Kernel-model state.
    pub kernel: KernelSnap,
    /// Hardware-model cache state (L1D then L2). Empty means "don't
    /// restore" (e.g. a synthetic snapshot).
    pub caches: Vec<CacheSnap>,
    /// Pages that differ from the boot image (or are newly mapped), keyed
    /// by page base address. Payloads are arena handles, so a snapshot of
    /// a mostly-clean region is cheap to hold.
    pub delta: BTreeMap<u64, PageRecord>,
    /// Boot-image page bases that were unmapped during the region.
    pub dropped: Vec<u64>,
}

impl Snapshot {
    /// Reconstructs the full page table at the snapshot point from the
    /// boot image: boot pages minus [`Snapshot::dropped`], overridden by
    /// [`Snapshot::delta`]. This is the memory a resumed machine maps,
    /// and what the codec round-trip tests compare.
    pub fn reconstruct_pages(&self, boot: &MemoryImage) -> BTreeMap<u64, PageRecord> {
        let mut pages = boot.pages.clone();
        for addr in &self.dropped {
            pages.remove(addr);
        }
        for (&addr, rec) in &self.delta {
            pages.insert(addr, rec.clone());
        }
        pages
    }

    /// Serialises only the non-delta state (meta, threads, kernel,
    /// caches, consumed syscalls, dropped pages). The store keeps this as
    /// one blob and the delta pages as individual content-addressed blobs
    /// so identical pages dedup across a chain.
    pub fn state_to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        self.write_state(&mut w);
        w.into_bytes()
    }

    /// Decodes a [`Snapshot::state_to_bytes`] buffer of either version.
    /// The delta map is left empty for the caller (the store) to fill.
    ///
    /// # Errors
    /// Returns [`WireError`] on malformed input.
    pub fn from_state_bytes(buf: &[u8]) -> Result<Snapshot, WireError> {
        let (mut r, _) = Reader::with_any_header(
            buf,
            SNAPSHOT_MAGIC,
            OLDEST_SNAPSHOT_VERSION..=SNAPSHOT_VERSION,
        )?;
        let s = Snapshot::read_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing snapshot state bytes"));
        }
        Ok(s)
    }

    /// Serialises the whole snapshot (state + delta pages) into one
    /// buffer ending with an XXH64 checksum, mirroring
    /// [`crate::Pinball::to_bytes`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        self.write_state(&mut w);
        w.u64(self.delta.len() as u64);
        for (&addr, rec) in &self.delta {
            w.u64(addr);
            w.u8(rec.perm);
            w.bytes(&rec.data[..]);
        }
        w.into_checksummed_bytes()
    }

    /// `self.to_bytes().len()`, computed without serialising (or
    /// checksumming) the delta pages.
    pub fn encoded_len(&self) -> usize {
        const U8: usize = 1;
        const U32: usize = 4;
        const U64: usize = 8;
        // Length-prefixed byte strings and counted sequences carry a u64
        // length ahead of their contents.
        let bytes = |n: usize| U64 + n;
        let header = SNAPSHOT_MAGIC.len() + U32;
        let meta = 9 * U64;
        let threads = U64
            + self
                .threads
                .iter()
                .map(|t| {
                    2 * U32 // machine and original tid
                        + (t.regs.gpr.len() + 4) * U64 // gprs, rip, rflags, fs, gs
                        + bytes(t.regs.xsave.len())
                        + (U8 + U64) // state tag and payload
                        + 2 * U64 // icount, cycles
                        + (U8 + U64) // exit target
                        + U64 // exit count
                        + U8 // exit fired
                })
                .sum::<usize>();
        let consumed = U64 + self.consumed_syscalls.len() * (U32 + U64);
        let kernel = 2 * U64 + bytes(self.kernel.cwd.len()) + bytes(self.kernel.stdout.len());
        let caches = U64
            + self
                .caches
                .iter()
                .map(|c| bytes(c.tags.len() * U64) + 2 * U64)
                .sum::<usize>();
        let dropped = bytes(self.dropped.len() * U64);
        let delta = U64
            + self
                .delta
                .values()
                .map(|rec| U64 + U8 + bytes(rec.data.len()))
                .sum::<usize>();
        let checksum = U64;
        header + meta + threads + consumed + kernel + caches + dropped + delta + checksum
    }

    /// Deserialises a [`Snapshot::to_bytes`] buffer, or one an earlier
    /// build wrote as version 1 (FNV-64 trailer).
    ///
    /// # Errors
    /// Returns [`WireError`] on malformed input; the trailing checksum
    /// turns a truncation or bit flip into an error rather than a
    /// silently-wrong snapshot (it escapes the 64-bit checksum with
    /// probability about 2⁻⁶⁴).
    pub fn from_bytes(buf: &[u8]) -> Result<Snapshot, WireError> {
        let mut r = Reader::checksummed(
            buf,
            SNAPSHOT_MAGIC,
            OLDEST_SNAPSHOT_VERSION..=SNAPSHOT_VERSION,
            "snapshot checksum",
        )?;
        let mut s = Snapshot::read_state(&mut r)?;
        let n = r.u64()?;
        for _ in 0..n {
            let addr = r.u64()?;
            let perm = r.u8()?;
            let data = r.bytes()?;
            let rec = PageRecord::from_slice(perm, &data).ok_or(WireError::Corrupt("page size"))?;
            s.delta.insert(addr, rec);
        }
        if !r.is_exhausted() {
            return Err(WireError::Corrupt("trailing snapshot bytes"));
        }
        Ok(s)
    }

    fn write_state(&self, w: &mut Writer) {
        let m = &self.meta;
        for v in [
            m.slice_index,
            m.interval,
            m.global_icount,
            m.cycles,
            m.fuel_spent,
            m.race_ptr,
            m.spawns_adopted,
            m.injected_syscalls,
            m.lazy_pages_injected,
        ] {
            w.u64(v);
        }
        w.u64(self.threads.len() as u64);
        for t in &self.threads {
            w.u32(t.machine_tid);
            w.u32(t.orig_tid);
            for g in t.regs.gpr {
                w.u64(g);
            }
            w.u64(t.regs.rip);
            w.u64(t.regs.rflags);
            w.u64(t.regs.fs_base);
            w.u64(t.regs.gs_base);
            w.bytes(&t.regs.xsave);
            match t.state {
                ThreadStateSnap::Runnable => {
                    w.u8(0);
                    w.u64(0);
                }
                ThreadStateSnap::FutexWait(addr) => {
                    w.u8(1);
                    w.u64(addr);
                }
                ThreadStateSnap::Exited(code) => {
                    w.u8(2);
                    w.u64(code as u32 as u64);
                }
            }
            w.u64(t.icount);
            w.u64(t.cycles);
            w.u8(u8::from(t.exit_target.is_some()));
            w.u64(t.exit_target.unwrap_or(0));
            w.u64(t.exit_count);
            w.u8(u8::from(t.exit_fired));
        }
        w.u64(self.consumed_syscalls.len() as u64);
        for (&tid, &n) in &self.consumed_syscalls {
            w.u32(tid);
            w.u64(n);
        }
        w.u64(self.kernel.brk_start);
        w.u64(self.kernel.brk);
        w.string(&self.kernel.cwd);
        w.bytes(&self.kernel.stdout);
        w.u64(self.caches.len() as u64);
        for c in &self.caches {
            w.u64(c.tags.len() as u64);
            for &t in &c.tags {
                w.u64(t);
            }
            w.u64(c.hits);
            w.u64(c.misses);
        }
        w.u64(self.dropped.len() as u64);
        for &a in &self.dropped {
            w.u64(a);
        }
    }

    fn read_state(r: &mut Reader<'_>) -> Result<Snapshot, WireError> {
        let meta = SnapshotMeta {
            slice_index: r.u64()?,
            interval: r.u64()?,
            global_icount: r.u64()?,
            cycles: r.u64()?,
            fuel_spent: r.u64()?,
            race_ptr: r.u64()?,
            spawns_adopted: r.u64()?,
            injected_syscalls: r.u64()?,
            lazy_pages_injected: r.u64()?,
        };
        let nthreads = r.u64()?;
        let mut threads = Vec::new();
        for _ in 0..nthreads {
            let machine_tid = r.u32()?;
            let orig_tid = r.u32()?;
            let mut gpr = [0u64; 16];
            for g in &mut gpr {
                *g = r.u64()?;
            }
            let regs = RegImage {
                gpr,
                rip: r.u64()?,
                rflags: r.u64()?,
                fs_base: r.u64()?,
                gs_base: r.u64()?,
                xsave: r.bytes()?,
            };
            let tag = r.u8()?;
            let payload = r.u64()?;
            let state = match tag {
                0 => ThreadStateSnap::Runnable,
                1 => ThreadStateSnap::FutexWait(payload),
                2 => ThreadStateSnap::Exited(payload as u32 as i32),
                _ => return Err(WireError::Corrupt("thread state tag")),
            };
            let icount = r.u64()?;
            let cycles = r.u64()?;
            let has_target = r.u8()? != 0;
            let target = r.u64()?;
            threads.push(ThreadSnap {
                machine_tid,
                orig_tid,
                regs,
                state,
                icount,
                cycles,
                exit_target: has_target.then_some(target),
                exit_count: r.u64()?,
                exit_fired: r.u8()? != 0,
            });
        }
        let nc = r.u64()?;
        let mut consumed_syscalls = BTreeMap::new();
        for _ in 0..nc {
            let tid = r.u32()?;
            let n = r.u64()?;
            consumed_syscalls.insert(tid, n);
        }
        let kernel = KernelSnap {
            brk_start: r.u64()?,
            brk: r.u64()?,
            cwd: r.string()?,
            stdout: r.bytes()?,
        };
        let ncaches = r.u64()?;
        let mut caches = Vec::new();
        for _ in 0..ncaches {
            let ntags = r.u64()?;
            let mut tags = Vec::with_capacity(ntags.min(1 << 20) as usize);
            for _ in 0..ntags {
                tags.push(r.u64()?);
            }
            caches.push(CacheSnap {
                tags,
                hits: r.u64()?,
                misses: r.u64()?,
            });
        }
        let nd = r.u64()?;
        let mut dropped = Vec::new();
        for _ in 0..nd {
            dropped.push(r.u64()?);
        }
        Ok(Snapshot {
            meta,
            threads,
            consumed_syscalls,
            kernel,
            caches,
            delta: BTreeMap::new(),
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_BYTES;

    fn sample() -> Snapshot {
        let mut delta = BTreeMap::new();
        delta.insert(0x5000, PageRecord::new(0b011, &[7u8; PAGE_BYTES]));
        delta.insert(0x9000, PageRecord::new(0b111, &[1u8; PAGE_BYTES]));
        let mut consumed = BTreeMap::new();
        consumed.insert(0, 3);
        consumed.insert(7, 1);
        Snapshot {
            meta: SnapshotMeta {
                slice_index: 2,
                interval: 10_000,
                global_icount: 20_000,
                cycles: 55_123,
                fuel_spent: 20_400,
                race_ptr: 9,
                spawns_adopted: 1,
                injected_syscalls: 4,
                lazy_pages_injected: 0,
            },
            threads: vec![ThreadSnap {
                machine_tid: 0,
                orig_tid: 7,
                regs: RegImage {
                    gpr: [0xAB; 16],
                    rip: 0x40_1000,
                    rflags: 0x202,
                    fs_base: 0x7000_0000,
                    gs_base: 0,
                    xsave: vec![0u8; elfie_isa::XSAVE_AREA_SIZE],
                },
                state: ThreadStateSnap::FutexWait(0x6000),
                icount: 12_345,
                cycles: 30_000,
                exit_target: Some(99_999),
                exit_count: 12_345,
                exit_fired: false,
            }],
            consumed_syscalls: consumed,
            kernel: KernelSnap {
                brk_start: 0x10_0000,
                brk: 0x10_4000,
                cwd: "/".into(),
                stdout: b"hello\n".to_vec(),
            },
            caches: vec![
                CacheSnap {
                    tags: vec![u64::MAX; 4],
                    hits: 10,
                    misses: 2,
                },
                CacheSnap {
                    tags: vec![3, u64::MAX],
                    hits: 1,
                    misses: 1,
                },
            ],
            delta,
            dropped: vec![0x8000],
        }
    }

    #[test]
    fn full_roundtrip_is_bit_identical() {
        let s = sample();
        let bytes = s.to_bytes();
        let t = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(s, t);
    }

    #[test]
    fn state_roundtrip_leaves_delta_empty() {
        let s = sample();
        let t = Snapshot::from_state_bytes(&s.state_to_bytes()).expect("decodes");
        assert!(t.delta.is_empty());
        assert_eq!(t.meta, s.meta);
        assert_eq!(t.threads, s.threads);
        assert_eq!(t.kernel, s.kernel);
        assert_eq!(t.caches, s.caches);
        assert_eq!(t.dropped, s.dropped);
        assert_eq!(t.consumed_syscalls, s.consumed_syscalls);
    }

    #[test]
    fn corruption_is_detected() {
        let s = sample();
        let mut bytes = s.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(Snapshot::from_bytes(&bytes).is_err());
        let good = s.to_bytes();
        assert!(Snapshot::from_bytes(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn negative_exit_code_survives() {
        let mut s = sample();
        s.threads[0].state = ThreadStateSnap::Exited(-9);
        let t = Snapshot::from_bytes(&s.to_bytes()).expect("decodes");
        assert_eq!(t.threads[0].state, ThreadStateSnap::Exited(-9));
    }

    #[test]
    fn reconstruct_applies_delta_and_drops() {
        let s = sample();
        let mut boot = MemoryImage::default();
        boot.pages
            .insert(0x5000, PageRecord::new(0b011, &[0u8; PAGE_BYTES]));
        boot.pages
            .insert(0x8000, PageRecord::new(0b011, &[2u8; PAGE_BYTES]));
        boot.pages
            .insert(0xA000, PageRecord::new(0b101, &[3u8; PAGE_BYTES]));
        let pages = s.reconstruct_pages(&boot);
        assert!(!pages.contains_key(&0x8000), "dropped page removed");
        assert_eq!(pages[&0x5000].data[0], 7, "delta overrides boot");
        assert_eq!(pages[&0xA000].data[0], 3, "clean boot page kept");
        assert_eq!(pages[&0x9000].data[0], 1, "newly mapped delta page");
        assert_eq!(pages.len(), 3);
    }
}
