//! # elfie-pinball
//!
//! The pinball checkpoint format: everything the PinPlay logger captures
//! about a region of a program's execution, and everything the replayer
//! and `pinball2elf` consume.
//!
//! A pinball is logically a *set of files* (paper Section I):
//!
//! * a **memory image** (`<name>.text`) — the pages mapped at the start of
//!   the region (all of them, for a *fat* pinball),
//! * one **register file per thread** (`<name>.<tid>.reg`) — architectural
//!   registers at region start plus the logged system-call side effects
//!   (results and memory writes) needed for replay injection,
//! * a **race log** (`<name>.race`) — the shared-memory access order
//!   (recorded at atomic operations) that constrained replay enforces,
//! * **lazy pages** (`<name>.lazy`) — pages a *regular* (non-fat) pinball
//!   injects at first use instead of pre-loading,
//! * a **metadata/region descriptor** (`<name>.meta.json`).
//!
//! [`Pinball::save_dir`]/[`Pinball::load_dir`] persist exactly that file
//! set; [`Pinball::to_bytes`]/[`Pinball::from_bytes`] bundle it into one
//! buffer for in-memory use and sharing.

pub mod arena;
pub mod snapshot;
pub mod wire;

pub use arena::{ArenaStats, PageArena, PageData, PAGE_BYTES};
use elfie_trace::json::Json;
pub use snapshot::{CacheSnap, KernelSnap, Snapshot, SnapshotMeta, ThreadSnap, ThreadStateSnap};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use wire::{Reader, WireError, Writer};

/// Format version for the binary sections.
pub const FORMAT_VERSION: u32 = 1;

/// Format version for the single-buffer bundle. Every bundle ends in a
/// checksum over the whole body, so a flipped byte or a truncation is
/// detected instead of decoding to garbage: version 3 writes an XXH64
/// trailer; version 2, still read, carries FNV-64.
pub const BUNDLE_VERSION: u32 = 3;

/// Oldest bundle version [`Pinball::from_bytes`] still reads.
const OLDEST_BUNDLE_VERSION: u32 = 2;

const TEXT_MAGIC: &[u8; 4] = b"PBTX";
const REG_MAGIC: &[u8; 4] = b"PBRG";
const RACE_MAGIC: &[u8; 4] = b"PBRC";
const LAZY_MAGIC: &[u8; 4] = b"PBLZ";
const BUNDLE_MAGIC: &[u8; 4] = b"PBAL";

/// How the logger locates the start of a region of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionTrigger {
    /// The region starts at program entry (whole-program pinball).
    ProgramStart,
    /// The region starts once the global retired-instruction count reaches
    /// this value (SimPoint slice boundaries).
    GlobalIcount(u64),
    /// The region starts the `count`-th time execution reaches `pc`.
    PcCount { pc: u64, count: u64 },
}

/// The region descriptor: where the region starts, how long it is, and the
/// bookkeeping produced by region selection (weight, slice index, warmup).
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// Human-readable region name (e.g. `bench.3` for cluster 3).
    pub name: String,
    /// Start trigger.
    pub trigger: RegionTrigger,
    /// Region length in global (all-thread) retired instructions.
    pub length: u64,
    /// Expected retired-instruction count per thread inside the region,
    /// keyed by tid. These are the graceful-exit targets for the ELFie.
    pub thread_icounts: BTreeMap<u32, u64>,
    /// Warm-up instructions preceding the measured region.
    pub warmup: u64,
    /// SimPoint weight of this region (fraction of whole execution).
    pub weight: f64,
    /// Which fixed-length slice of the execution this region represents.
    pub slice_index: u64,
}

/// Pinball-level metadata.
#[derive(Debug, Clone)]
pub struct PinballMeta {
    /// Pinball (benchmark) name.
    pub name: String,
    /// True for fat pinballs (`-log:fat`): all pages pre-loaded into the
    /// memory image, whole program image included.
    pub fat: bool,
    /// ISA identifier, for tool compatibility checks.
    pub arch: String,
    /// Program break (`brk`) at region start.
    pub brk: u64,
    /// Heap start at region start.
    pub brk_start: u64,
    /// Current working directory at region start.
    pub cwd: String,
}

/// One page of the captured memory image. The payload is an immutable
/// arena handle ([`PageData`]): cloning a record, an image or a whole
/// pinball bumps reference counts instead of copying page bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRecord {
    /// Permission byte (bit0 read, bit1 write, bit2 exec).
    pub perm: u8,
    /// Page contents (4096 bytes), interned in the process page arena.
    pub data: PageData,
}

impl PageRecord {
    /// Builds a record by interning `bytes` in the global [`PageArena`].
    pub fn new(perm: u8, bytes: &[u8; PAGE_BYTES]) -> PageRecord {
        PageRecord {
            perm,
            data: PageArena::global().intern(bytes),
        }
    }

    /// Like [`PageRecord::new`] from a slice, which must be exactly one
    /// page long.
    pub fn from_slice(perm: u8, bytes: &[u8]) -> Option<PageRecord> {
        Some(PageRecord {
            perm,
            data: PageArena::global().intern_slice(bytes)?,
        })
    }

    /// Wraps an existing arena handle.
    pub fn from_data(perm: u8, data: PageData) -> PageRecord {
        PageRecord { perm, data }
    }
}

/// A maximal run of address-consecutive pages with identical permissions
/// — the unit `pinball2elf` turns into one ELF section. Holds arena
/// handles, so building runs never copies page bytes; the ELF writer
/// copies each page once, straight into the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRun {
    /// Base address of the first page.
    pub start: u64,
    /// Permission byte shared by every page in the run.
    pub perm: u8,
    /// The page payloads, in address order.
    pub pages: Vec<PageData>,
}

impl PageRun {
    /// Total run length in bytes.
    pub fn byte_len(&self) -> u64 {
        self.pages.len() as u64 * elfie_isa::PAGE_SIZE
    }

    /// One past the last byte of the run.
    pub fn end(&self) -> u64 {
        self.start + self.byte_len()
    }
}

/// An on-demand supplier of checkpoint pages, keyed by page base address.
/// The replayer consults a source on unmapped-page faults so pages can
/// stream in at first touch (e.g. straight out of an `elfie-store`
/// manifest) instead of being materialised at load.
pub trait PageSource {
    /// Returns the page based at `base`, or `None` when this source does
    /// not hold it.
    fn fetch_page(&self, base: u64) -> Option<PageRecord>;
}

/// The memory image: pages keyed by page base address (`<name>.text`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    /// Pages keyed by 4 KiB-aligned base address.
    pub pages: BTreeMap<u64, PageRecord>,
}

impl MemoryImage {
    /// Creates an empty image.
    pub fn new() -> MemoryImage {
        MemoryImage::default()
    }

    /// Number of captured pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total image size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.pages.values().map(|p| p.data.len() as u64).sum()
    }

    /// Groups consecutive pages with identical permissions into
    /// [`PageRun`]s — the unit `pinball2elf` turns into ELF sections
    /// ("each region ... which consists of consecutive pages is
    /// represented with a section"). Zero-copy: each run borrows the
    /// image's arena handles, so this is O(pages) refcount bumps.
    pub fn consecutive_runs(&self) -> Vec<PageRun> {
        let mut runs: Vec<PageRun> = Vec::new();
        for (&addr, page) in &self.pages {
            match runs.last_mut() {
                Some(run) if run.end() == addr && run.perm == page.perm => {
                    run.pages.push(page.data.clone());
                }
                _ => runs.push(PageRun {
                    start: addr,
                    perm: page.perm,
                    pages: vec![page.data.clone()],
                }),
            }
        }
        runs
    }

    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::with_header(TEXT_MAGIC, FORMAT_VERSION);
        w.u64(self.pages.len() as u64);
        for (&addr, page) in &self.pages {
            w.u64(addr);
            w.u8(page.perm);
            w.bytes(&page.data[..]);
        }
        w.into_bytes()
    }

    fn from_wire(buf: &[u8]) -> Result<MemoryImage, WireError> {
        let mut r = Reader::with_header(buf, TEXT_MAGIC, FORMAT_VERSION)?;
        let n = r.u64()?;
        let mut pages = BTreeMap::new();
        for _ in 0..n {
            let addr = r.u64()?;
            let perm = r.u8()?;
            let data = r.bytes()?;
            // Decode straight into the arena: a payload already alive in
            // the process (another region of the same workload, the zero
            // page, ...) is reused instead of re-allocated.
            let page =
                PageRecord::from_slice(perm, &data).ok_or(WireError::Corrupt("page size"))?;
            pages.insert(addr, page);
        }
        Ok(MemoryImage { pages })
    }
}

/// A serialisable snapshot of one thread's architectural registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegImage {
    /// General purpose registers in [`elfie_isa::Reg`] encoding order.
    pub gpr: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Packed RFLAGS-style flags.
    pub rflags: u64,
    /// FS segment base.
    pub fs_base: u64,
    /// GS segment base.
    pub gs_base: u64,
    /// FXSAVE-style extended state image (512 bytes).
    pub xsave: Vec<u8>,
}

impl From<&elfie_isa::RegFile> for RegImage {
    fn from(r: &elfie_isa::RegFile) -> RegImage {
        RegImage {
            gpr: r.gpr,
            rip: r.rip,
            rflags: r.flags.to_bits(),
            fs_base: r.fs_base,
            gs_base: r.gs_base,
            xsave: r.xsave.to_bytes().to_vec(),
        }
    }
}

impl RegImage {
    /// Reconstructs a live register file.
    pub fn to_regfile(&self) -> elfie_isa::RegFile {
        let mut rf = elfie_isa::RegFile::new();
        rf.gpr = self.gpr;
        rf.rip = self.rip;
        rf.flags = elfie_isa::Flags::from_bits(self.rflags);
        rf.fs_base = self.fs_base;
        rf.gs_base = self.gs_base;
        let arr: [u8; elfie_isa::XSAVE_AREA_SIZE] = self
            .xsave
            .clone()
            .try_into()
            .unwrap_or([0u8; elfie_isa::XSAVE_AREA_SIZE]);
        rf.xsave = elfie_isa::XSaveArea::from_bytes(&arr);
        rf
    }
}

/// One logged system call: its identity, result, and the memory it wrote.
/// Replay injection replays exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallEffect {
    /// Syscall number.
    pub nr: u64,
    /// Arguments at entry.
    pub args: [u64; 6],
    /// Return value.
    pub ret: u64,
    /// Memory written while servicing the call.
    pub writes: Vec<(u64, Vec<u8>)>,
}

/// Per-thread capture: initial registers plus the in-region syscall log
/// (`<name>.<tid>.reg` — the paper notes the `.reg` file "also includes
/// register changes from system calls").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadRecord {
    /// Thread id at capture time.
    pub tid: u32,
    /// Registers at region start (meaningless when `spawned` is true).
    pub regs: RegImage,
    /// Ordered syscall side effects observed inside the region.
    pub syscalls: Vec<SyscallEffect>,
    /// True if this thread was created *inside* the region (via `clone`);
    /// the replayer re-creates it by re-executing the clone instead of
    /// starting it from `regs`.
    pub spawned: bool,
}

impl ThreadRecord {
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::with_header(REG_MAGIC, FORMAT_VERSION);
        w.u32(self.tid);
        w.u8(self.spawned as u8);
        for g in self.regs.gpr {
            w.u64(g);
        }
        w.u64(self.regs.rip);
        w.u64(self.regs.rflags);
        w.u64(self.regs.fs_base);
        w.u64(self.regs.gs_base);
        w.bytes(&self.regs.xsave);
        w.u64(self.syscalls.len() as u64);
        for s in &self.syscalls {
            w.u64(s.nr);
            for a in s.args {
                w.u64(a);
            }
            w.u64(s.ret);
            w.u64(s.writes.len() as u64);
            for (addr, bytes) in &s.writes {
                w.u64(*addr);
                w.bytes(bytes);
            }
        }
        w.into_bytes()
    }

    fn from_wire(buf: &[u8]) -> Result<ThreadRecord, WireError> {
        let mut r = Reader::with_header(buf, REG_MAGIC, FORMAT_VERSION)?;
        let tid = r.u32()?;
        let spawned = r.u8()? != 0;
        let mut gpr = [0u64; 16];
        for g in &mut gpr {
            *g = r.u64()?;
        }
        let rip = r.u64()?;
        let rflags = r.u64()?;
        let fs_base = r.u64()?;
        let gs_base = r.u64()?;
        let xsave = r.bytes()?;
        if xsave.len() != elfie_isa::XSAVE_AREA_SIZE {
            return Err(WireError::Corrupt("xsave size"));
        }
        let n = r.u64()?;
        let mut syscalls = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let nr = r.u64()?;
            let mut args = [0u64; 6];
            for a in &mut args {
                *a = r.u64()?;
            }
            let ret = r.u64()?;
            let wn = r.u64()?;
            let mut writes = Vec::with_capacity(wn as usize);
            for _ in 0..wn {
                let addr = r.u64()?;
                writes.push((addr, r.bytes()?));
            }
            syscalls.push(SyscallEffect {
                nr,
                args,
                ret,
                writes,
            });
        }
        Ok(ThreadRecord {
            tid,
            regs: RegImage {
                gpr,
                rip,
                rflags,
                fs_base,
                gs_base,
                xsave,
            },
            syscalls,
            spawned,
        })
    }
}

/// One entry in the race log: thread `tid` performed its `seq`-th ordering
/// operation (atomic memory op) at this point in the global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncPoint {
    /// Thread that performed the operation.
    pub tid: u32,
    /// The thread-local ordinal of the operation (0-based).
    pub seq: u64,
    /// Address of the memory word involved.
    pub addr: u64,
}

/// The shared-memory access-order log (`<name>.race`).
///
/// PinPlay guarantees "that shared-memory access order in multi-threaded
/// pinballs is repeated exactly, as opposed to a guaranteed total order of
/// instructions". We record the global order of atomic operations, which
/// the replayer enforces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceLog {
    /// Global order of atomic operations across all threads.
    pub order: Vec<SyncPoint>,
}

impl RaceLog {
    fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::with_header(RACE_MAGIC, FORMAT_VERSION);
        w.u64(self.order.len() as u64);
        for p in &self.order {
            w.u32(p.tid);
            w.u64(p.seq);
            w.u64(p.addr);
        }
        w.into_bytes()
    }

    fn from_wire(buf: &[u8]) -> Result<RaceLog, WireError> {
        let mut r = Reader::with_header(buf, RACE_MAGIC, FORMAT_VERSION)?;
        let n = r.u64()?;
        let mut order = Vec::with_capacity(n as usize);
        for _ in 0..n {
            order.push(SyncPoint {
                tid: r.u32()?,
                seq: r.u64()?,
                addr: r.u64()?,
            });
        }
        Ok(RaceLog { order })
    }
}

fn lazy_to_wire(lazy: &BTreeMap<u64, PageRecord>) -> Vec<u8> {
    let mut w = Writer::with_header(LAZY_MAGIC, FORMAT_VERSION);
    w.u64(lazy.len() as u64);
    for (&addr, page) in lazy {
        w.u64(addr);
        w.u8(page.perm);
        w.bytes(&page.data[..]);
    }
    w.into_bytes()
}

fn lazy_from_wire(buf: &[u8]) -> Result<BTreeMap<u64, PageRecord>, WireError> {
    let mut r = Reader::with_header(buf, LAZY_MAGIC, FORMAT_VERSION)?;
    let n = r.u64()?;
    let mut pages = BTreeMap::new();
    for _ in 0..n {
        let addr = r.u64()?;
        let perm = r.u8()?;
        let data = r.bytes()?;
        let page = PageRecord::from_slice(perm, &data).ok_or(WireError::Corrupt("page size"))?;
        pages.insert(addr, page);
    }
    Ok(pages)
}

/// A complete pinball.
#[derive(Debug, Clone)]
pub struct Pinball {
    /// Metadata.
    pub meta: PinballMeta,
    /// Region descriptor.
    pub region: RegionInfo,
    /// Initial memory image (all pages for fat pinballs).
    pub image: MemoryImage,
    /// Per-thread registers + syscall logs, sorted by tid.
    pub threads: Vec<ThreadRecord>,
    /// Race log for constrained replay.
    pub races: RaceLog,
    /// Pages injected at first use (regular, non-fat pinballs only).
    pub lazy_pages: BTreeMap<u64, PageRecord>,
}

/// Errors loading or saving pinballs.
#[derive(Debug)]
pub enum PinballError {
    /// Binary section failed to decode.
    Wire(WireError),
    /// Metadata JSON failed to parse.
    Meta(String),
    /// Filesystem error.
    Io(std::io::Error),
}

impl fmt::Display for PinballError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinballError::Wire(e) => write!(f, "wire format error: {e}"),
            PinballError::Meta(e) => write!(f, "metadata error: {e}"),
            PinballError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for PinballError {}

impl From<WireError> for PinballError {
    fn from(e: WireError) -> Self {
        PinballError::Wire(e)
    }
}

impl From<std::io::Error> for PinballError {
    fn from(e: std::io::Error) -> Self {
        PinballError::Io(e)
    }
}

struct MetaFile {
    meta: PinballMeta,
    region: RegionInfo,
}

impl RegionTrigger {
    /// Serde-style encoding: unit variants as strings, payload variants as
    /// single-key objects.
    fn to_json(self) -> Json {
        match self {
            RegionTrigger::ProgramStart => Json::Str("ProgramStart".into()),
            RegionTrigger::GlobalIcount(n) => {
                Json::Obj(vec![("GlobalIcount".into(), Json::U64(n))])
            }
            RegionTrigger::PcCount { pc, count } => Json::Obj(vec![(
                "PcCount".into(),
                Json::Obj(vec![
                    ("pc".into(), Json::U64(pc)),
                    ("count".into(), Json::U64(count)),
                ]),
            )]),
        }
    }

    fn from_json(j: &Json) -> Result<RegionTrigger, String> {
        if j.as_str() == Some("ProgramStart") {
            return Ok(RegionTrigger::ProgramStart);
        }
        if let Some(n) = j.get("GlobalIcount") {
            let n = n.as_u64().ok_or("GlobalIcount not an integer")?;
            return Ok(RegionTrigger::GlobalIcount(n));
        }
        if let Some(pc_count) = j.get("PcCount") {
            let pc = pc_count.field("pc")?.as_u64().ok_or("pc not an integer")?;
            let count = pc_count
                .field("count")?
                .as_u64()
                .ok_or("count not an integer")?;
            return Ok(RegionTrigger::PcCount { pc, count });
        }
        Err("unknown region trigger".into())
    }
}

fn json_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.field(key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` not an integer"))
}

fn json_str(j: &Json, key: &str) -> Result<String, String> {
    Ok(j.field(key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` not a string"))?
        .to_string())
}

impl MetaFile {
    fn to_json(&self) -> Json {
        let meta = Json::Obj(vec![
            ("name".into(), Json::Str(self.meta.name.clone())),
            ("fat".into(), Json::Bool(self.meta.fat)),
            ("arch".into(), Json::Str(self.meta.arch.clone())),
            ("brk".into(), Json::U64(self.meta.brk)),
            ("brk_start".into(), Json::U64(self.meta.brk_start)),
            ("cwd".into(), Json::Str(self.meta.cwd.clone())),
        ]);
        // Serde writes map keys as strings, so tids become "0", "1", ...
        let icounts = Json::Obj(
            self.region
                .thread_icounts
                .iter()
                .map(|(&tid, &n)| (tid.to_string(), Json::U64(n)))
                .collect(),
        );
        let region = Json::Obj(vec![
            ("name".into(), Json::Str(self.region.name.clone())),
            ("trigger".into(), self.region.trigger.to_json()),
            ("length".into(), Json::U64(self.region.length)),
            ("thread_icounts".into(), icounts),
            ("warmup".into(), Json::U64(self.region.warmup)),
            ("weight".into(), Json::F64(self.region.weight)),
            ("slice_index".into(), Json::U64(self.region.slice_index)),
        ]);
        Json::Obj(vec![("meta".into(), meta), ("region".into(), region)])
    }

    fn from_json(j: &Json) -> Result<MetaFile, String> {
        let m = j.field("meta")?;
        let meta = PinballMeta {
            name: json_str(m, "name")?,
            fat: m.field("fat")?.as_bool().ok_or("`fat` not a bool")?,
            arch: json_str(m, "arch")?,
            brk: json_u64(m, "brk")?,
            brk_start: json_u64(m, "brk_start")?,
            cwd: json_str(m, "cwd")?,
        };
        let r = j.field("region")?;
        let mut thread_icounts = BTreeMap::new();
        for (key, value) in r
            .field("thread_icounts")?
            .as_obj()
            .ok_or("icounts not a map")?
        {
            let tid: u32 = key.parse().map_err(|_| format!("bad tid key `{key}`"))?;
            thread_icounts.insert(tid, value.as_u64().ok_or("icount not an integer")?);
        }
        let region = RegionInfo {
            name: json_str(r, "name")?,
            trigger: RegionTrigger::from_json(r.field("trigger")?)?,
            length: json_u64(r, "length")?,
            thread_icounts,
            warmup: json_u64(r, "warmup")?,
            weight: r.field("weight")?.as_f64().ok_or("`weight` not a number")?,
            slice_index: json_u64(r, "slice_index")?,
        };
        Ok(MetaFile { meta, region })
    }

    fn parse(bytes: &[u8]) -> Result<MetaFile, PinballError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| PinballError::Meta("metadata not UTF-8".into()))?;
        let j = Json::parse(text).map_err(PinballError::Meta)?;
        MetaFile::from_json(&j).map_err(PinballError::Meta)
    }
}

impl Pinball {
    /// Serialises the whole pinball into one bundle buffer. The buffer
    /// ends with an XXH64 checksum over everything before it, so
    /// [`Pinball::from_bytes`] rejects any corruption.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta_json = MetaFile {
            meta: self.meta.clone(),
            region: self.region.clone(),
        }
        .to_json()
        .render();
        let mut w = Writer::with_header(BUNDLE_MAGIC, BUNDLE_VERSION);
        w.bytes(meta_json.as_bytes());
        w.bytes(&self.image.to_wire());
        w.u64(self.threads.len() as u64);
        for t in &self.threads {
            w.bytes(&t.to_wire());
        }
        w.bytes(&self.races.to_wire());
        w.bytes(&lazy_to_wire(&self.lazy_pages));
        w.into_checksummed_bytes()
    }

    /// Deserialises a bundle produced by [`Pinball::to_bytes`], or by an
    /// earlier build writing bundle version 2 (FNV-64 trailer).
    ///
    /// # Errors
    /// Returns [`PinballError`] on malformed input. Thanks to the bundle
    /// checksum, truncating the buffer or flipping a byte yields a
    /// [`WireError`] rather than a silently-wrong pinball, unless the
    /// change leaves the 64-bit checksum unchanged (probability about
    /// 2⁻⁶⁴).
    pub fn from_bytes(buf: &[u8]) -> Result<Pinball, PinballError> {
        let mut r = Reader::checksummed(
            buf,
            BUNDLE_MAGIC,
            OLDEST_BUNDLE_VERSION..=BUNDLE_VERSION,
            "bundle checksum",
        )?;
        let meta_json = r.bytes()?;
        let mf = MetaFile::parse(&meta_json)?;
        let image = MemoryImage::from_wire(&r.bytes()?)?;
        let n = r.u64()?;
        let mut threads = Vec::with_capacity(n as usize);
        for _ in 0..n {
            threads.push(ThreadRecord::from_wire(&r.bytes()?)?);
        }
        let races = RaceLog::from_wire(&r.bytes()?)?;
        let lazy_pages = lazy_from_wire(&r.bytes()?)?;
        if !r.is_exhausted() {
            return Err(PinballError::Wire(WireError::Corrupt(
                "trailing bundle bytes",
            )));
        }
        Ok(Pinball {
            meta: mf.meta,
            region: mf.region,
            image,
            threads,
            races,
            lazy_pages,
        })
    }

    /// Saves the pinball as a PinPlay-style file set in `dir`:
    /// `<name>.meta.json`, `<name>.text`, `<name>.<tid>.reg`,
    /// `<name>.race`, `<name>.lazy`.
    ///
    /// # Errors
    /// Returns [`PinballError::Io`] on filesystem failures.
    pub fn save_dir(&self, dir: &Path) -> Result<(), PinballError> {
        std::fs::create_dir_all(dir)?;
        let name = &self.meta.name;
        let meta_json = MetaFile {
            meta: self.meta.clone(),
            region: self.region.clone(),
        }
        .to_json()
        .render_pretty();
        std::fs::write(dir.join(format!("{name}.meta.json")), meta_json)?;
        std::fs::write(dir.join(format!("{name}.text")), self.image.to_wire())?;
        for t in &self.threads {
            std::fs::write(dir.join(format!("{name}.{}.reg", t.tid)), t.to_wire())?;
        }
        std::fs::write(dir.join(format!("{name}.race")), self.races.to_wire())?;
        std::fs::write(
            dir.join(format!("{name}.lazy")),
            lazy_to_wire(&self.lazy_pages),
        )?;
        Ok(())
    }

    /// Loads a pinball file set saved by [`Pinball::save_dir`].
    ///
    /// # Errors
    /// Returns [`PinballError`] on missing files or malformed contents.
    pub fn load_dir(dir: &Path, name: &str) -> Result<Pinball, PinballError> {
        let meta_json = std::fs::read(dir.join(format!("{name}.meta.json")))?;
        let mf = MetaFile::parse(&meta_json)?;
        let image = MemoryImage::from_wire(&std::fs::read(dir.join(format!("{name}.text")))?)?;
        let mut threads = Vec::new();
        for tid in 0.. {
            let path = dir.join(format!("{name}.{tid}.reg"));
            if !path.exists() {
                break;
            }
            threads.push(ThreadRecord::from_wire(&std::fs::read(path)?)?);
        }
        let races = RaceLog::from_wire(&std::fs::read(dir.join(format!("{name}.race")))?)?;
        let lazy_pages = lazy_from_wire(&std::fs::read(dir.join(format!("{name}.lazy")))?)?;
        Ok(Pinball {
            meta: mf.meta,
            region: mf.region,
            image,
            threads,
            races,
            lazy_pages,
        })
    }

    /// Total serialised size in bytes (used to compare fat vs regular
    /// pinball sizes, as the paper discusses).
    pub fn byte_size(&self) -> u64 {
        self.to_bytes().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elfie_isa::PAGE_SIZE;

    fn sample_pinball() -> Pinball {
        let mut image = MemoryImage::new();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[0] = 0xaa;
        image
            .pages
            .insert(0x400000, PageRecord::from_slice(5, &page).unwrap());
        image
            .pages
            .insert(0x401000, PageRecord::from_slice(5, &page).unwrap());
        image
            .pages
            .insert(0x600000, PageRecord::from_slice(3, &page).unwrap());

        let mut regs = elfie_isa::RegFile::new();
        regs.rip = 0x400123;
        regs.write(elfie_isa::Reg::Rdi, 42);
        regs.xsave.write_f64(elfie_isa::Xmm(2), 1.5);

        let thread = ThreadRecord {
            tid: 0,
            regs: RegImage::from(&regs),
            syscalls: vec![SyscallEffect {
                nr: 0,
                args: [3, 0x1000, 64, 0, 0, 0],
                ret: 64,
                writes: vec![(0x1000, vec![1, 2, 3])],
            }],
            spawned: false,
        };

        let mut lazy = BTreeMap::new();
        lazy.insert(0x700000, PageRecord::new(3, &[7u8; PAGE_BYTES]));

        Pinball {
            meta: PinballMeta {
                name: "sample".into(),
                fat: true,
                arch: "elfie-isa-v1".into(),
                brk: 0x800_0000,
                brk_start: 0x800_0000,
                cwd: "/".into(),
            },
            region: RegionInfo {
                name: "sample.0".into(),
                trigger: RegionTrigger::GlobalIcount(1000),
                length: 5000,
                thread_icounts: [(0u32, 5000u64)].into_iter().collect(),
                warmup: 800,
                weight: 0.25,
                slice_index: 3,
            },
            image,
            threads: vec![thread],
            races: RaceLog {
                order: vec![SyncPoint {
                    tid: 0,
                    seq: 0,
                    addr: 0x600010,
                }],
            },
            lazy_pages: lazy,
        }
    }

    fn assert_pinball_eq(a: &Pinball, b: &Pinball) {
        assert_eq!(a.meta.name, b.meta.name);
        assert_eq!(a.meta.fat, b.meta.fat);
        assert_eq!(a.meta.brk, b.meta.brk);
        assert_eq!(a.region.name, b.region.name);
        assert_eq!(a.region.trigger, b.region.trigger);
        assert_eq!(a.region.length, b.region.length);
        assert_eq!(a.region.thread_icounts, b.region.thread_icounts);
        assert_eq!(a.image, b.image);
        assert_eq!(a.threads, b.threads);
        assert_eq!(a.races, b.races);
        assert_eq!(a.lazy_pages, b.lazy_pages);
    }

    #[test]
    fn bundle_roundtrip() {
        let p = sample_pinball();
        let bytes = p.to_bytes();
        let q = Pinball::from_bytes(&bytes).expect("decodes");
        assert_pinball_eq(&p, &q);
    }

    #[test]
    fn dir_roundtrip() {
        let p = sample_pinball();
        let dir = std::env::temp_dir().join(format!("pinball-test-{}", std::process::id()));
        p.save_dir(&dir).expect("saves");
        assert!(dir.join("sample.meta.json").exists());
        assert!(dir.join("sample.text").exists());
        assert!(dir.join("sample.0.reg").exists());
        assert!(dir.join("sample.race").exists());
        let q = Pinball::load_dir(&dir, "sample").expect("loads");
        assert_pinball_eq(&p, &q);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bundle_rejected() {
        let p = sample_pinball();
        let mut bytes = p.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Pinball::from_bytes(&bytes),
            Err(PinballError::Wire(WireError::BadMagic))
        ));
        assert!(Pinball::from_bytes(&[]).is_err());
    }

    #[test]
    fn regimage_roundtrips_regfile() {
        let mut regs = elfie_isa::RegFile::new();
        regs.rip = 0xdead;
        regs.fs_base = 0x7000;
        regs.flags = elfie_isa::Flags {
            cf: true,
            zf: false,
            sf: true,
            of: false,
        };
        regs.write(elfie_isa::Reg::R15, 0x1234);
        regs.xsave.write_f64(elfie_isa::Xmm(9), -2.25);
        let img = RegImage::from(&regs);
        let back = img.to_regfile();
        assert_eq!(back, regs);
    }

    #[test]
    fn consecutive_runs_group_pages() {
        let p = sample_pinball();
        let runs = p.image.consecutive_runs();
        // 0x400000+0x401000 merge (same perm, adjacent); 0x600000 separate.
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].start, 0x400000);
        assert_eq!(runs[0].byte_len(), 2 * PAGE_SIZE);
        assert_eq!(runs[0].pages.len(), 2);
        assert_eq!(runs[1].start, 0x600000);
        assert_eq!(runs[1].perm, 3);
    }

    #[test]
    fn consecutive_runs_share_page_payloads() {
        let p = sample_pinball();
        let runs = p.image.consecutive_runs();
        // Zero-copy: run pages are the image's own arena handles.
        assert!(std::sync::Arc::ptr_eq(
            &runs[0].pages[0],
            &p.image.pages[&0x400000].data
        ));
    }

    #[test]
    fn runs_split_on_permission_change() {
        let mut image = MemoryImage::new();
        let page = vec![0u8; PAGE_SIZE as usize];
        image
            .pages
            .insert(0x1000, PageRecord::from_slice(5, &page).unwrap());
        image
            .pages
            .insert(0x2000, PageRecord::from_slice(3, &page).unwrap());
        let runs = image.consecutive_runs();
        assert_eq!(runs.len(), 2, "adjacent but different perms");
    }

    #[test]
    fn fat_image_has_more_initial_pages_than_regular() {
        let fat = sample_pinball();
        let mut regular = sample_pinball();
        regular.meta.fat = false;
        // Regular pinball: move all but one page to the lazy set.
        let keep = *regular.image.pages.keys().next().unwrap();
        let moved: Vec<u64> = regular
            .image
            .pages
            .keys()
            .copied()
            .filter(|&a| a != keep)
            .collect();
        for a in moved {
            let p = regular.image.pages.remove(&a).unwrap();
            regular.lazy_pages.insert(a, p);
        }
        assert!(fat.image.page_count() > regular.image.page_count());
    }
}
