//! Paged guest memory with per-page permissions and a software TLB.
//!
//! The guest address space is sparse: 4 KiB pages are materialised on
//! `map`, and every access checks both mapping and permission. Access
//! failures surface as [`MemError`] — this is how an ELFie that diverges
//! onto an un-captured page dies "ungracefully", as in the paper.
//!
//! ## Fast path
//!
//! Pages live in an arena (`Vec<Option<Page>>`) so a page keeps a stable
//! slot index for its whole lifetime; a `BTreeMap<page_base, slot>` maps
//! addresses to slots. A small direct-mapped software TLB — separate
//! read / write / fetch entry arrays — caches `(page_base → slot)`
//! translations so the hot interpreter loop skips the `BTreeMap` on
//! almost every access. The TLB is flushed whenever the layout changes
//! (`map` / `unmap` / `protect`), and the layout epoch lets execution
//! caches above this layer (the [`crate::bbcache`] block cache) notice
//! those changes lazily.
//!
//! ## Self-modifying code
//!
//! The block cache marks pages whose instructions it has pre-decoded via
//! [`Memory::watch_exec_page`]. Any write landing on a watched page —
//! including permission-ignoring loader/kernel writes — records the page
//! in a dirty-code list that the machine drains after each step to evict
//! overlapping blocks, keeping cached execution bit-identical.
//!
//! ## Copy-on-write frames
//!
//! A page's storage is a `Frame`: either `Owned` (a private buffer) or
//! `Shared` (an `Arc` into an immutable arena payload, mapped zero-copy
//! via [`Memory::map_shared_page`] — this is how a machine boots from a
//! fat pinball in O(mapped pages) refcount bumps instead of O(bytes)
//! copies). Every mutable-access path funnels through one helper that
//! checks the frame tag — the "shared bit" — and privatises a shared
//! frame on first write. Reads and fetches never care which variant they
//! hit, so execution over shared frames is bit-identical to execution
//! over deep copies; [`MaterializeStats`] counts what sharing saved.
//!
//! Fresh anonymous pages ([`Memory::map_page`]: `mmap`, `brk`, stacks)
//! map one process-wide all-zero payload and allocate on their first
//! write, and a whole-page guest copy ([`Memory::copy_page`], the page
//! chunks of `rep movs`) aliases a shared source payload instead of
//! copying it, so a page is copied only when the guest writes to it.

use elfie_isa::{page_base, PAGE_SIZE};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted page payload, shareable across
/// machines and threads (the same shape `elfie-pinball`'s arena hands
/// out).
pub type PageData = Arc<[u8; PAGE_SIZE as usize]>;

/// Page permissions (read / write / execute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perm(u8);

impl Perm {
    /// No access.
    pub const NONE: Perm = Perm(0);
    /// Read-only.
    pub const R: Perm = Perm(1);
    /// Read + write.
    pub const RW: Perm = Perm(3);
    /// Read + execute.
    pub const RX: Perm = Perm(5);
    /// Read + write + execute.
    pub const RWX: Perm = Perm(7);

    /// True if reads are allowed.
    pub const fn can_read(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if writes are allowed.
    pub const fn can_write(self) -> bool {
        self.0 & 2 != 0
    }

    /// True if instruction fetch is allowed.
    pub const fn can_exec(self) -> bool {
        self.0 & 4 != 0
    }

    /// The raw permission bits (bit0 read, bit1 write, bit2 exec) — the
    /// encoding pinball page records use.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Builds a permission from raw bits (masking unknown bits).
    pub const fn from_bits(bits: u8) -> Perm {
        Perm(bits & 7)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.can_read() { 'r' } else { '-' },
            if self.can_write() { 'w' } else { '-' },
            if self.can_exec() { 'x' } else { '-' }
        )
    }
}

/// The kind of access that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Read,
    Write,
    Exec,
}

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is not mapped.
    Unmapped { addr: u64, access: Access },
    /// The page is mapped but the permission does not allow the access.
    Protection {
        addr: u64,
        access: Access,
        perm: Perm,
    },
}

impl MemError {
    /// The faulting address.
    pub fn addr(&self) -> u64 {
        match self {
            MemError::Unmapped { addr, .. } | MemError::Protection { addr, .. } => *addr,
        }
    }
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr, access } => {
                write!(f, "{access:?} access to unmapped address {addr:#x}")
            }
            MemError::Protection { addr, access, perm } => {
                write!(
                    f,
                    "{access:?} access violates {perm} protection at {addr:#x}"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The all-zero payload every fresh anonymous page maps until its first
/// write.
fn zero_page() -> &'static PageData {
    static ZERO: OnceLock<PageData> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new([0u8; PAGE_SIZE as usize]))
}

/// Backing storage of one mapped page. The discriminant is the
/// copy-on-write "shared bit": `Shared` frames are immutable arena
/// payloads and are privatised to `Owned` on the first mutable access.
enum Frame {
    /// Private to this address space; writes mutate in place.
    Owned(Box<[u8; PAGE_SIZE as usize]>),
    /// Zero-copy view of an immutable shared payload.
    Shared(PageData),
}

impl Frame {
    #[inline]
    fn bytes(&self) -> &[u8; PAGE_SIZE as usize] {
        match self {
            Frame::Owned(b) => b,
            Frame::Shared(a) => a,
        }
    }
}

/// Materialization counters: what copy-on-write sharing saved (and cost)
/// over this memory's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Pages ever mapped into this address space.
    pub pages_mapped: u64,
    /// Pages mapped zero-copy from shared payloads
    /// ([`Memory::map_shared_page`]) or aliased by a whole-page copy
    /// ([`Memory::copy_page`]). Fresh zero pages are demand-zero, not
    /// shared payloads, and are not counted.
    pub shared_pages: u64,
    /// Shared frames privatised by a first write. The first write to a
    /// fresh zero page is an allocation, not a break, and is not counted.
    pub cow_breaks: u64,
    /// Pages injected on a fault rather than at load (lazy materialization;
    /// counted by the replayer via [`Memory::record_lazy_fault`]).
    pub lazy_faults: u64,
    /// Page bytes currently resident in private (`Owned`) frames.
    pub owned_bytes: u64,
    /// High-water mark of `owned_bytes` — the peak page bytes this address
    /// space actually allocated, as opposed to borrowed from the arena.
    pub peak_owned_bytes: u64,
}

impl MaterializeStats {
    /// Folds another machine's counters into this one. Sums every counter
    /// except `peak_owned_bytes`, which takes the maximum: machines run
    /// (or are measured) one at a time per worker, so the largest single
    /// peak is the meaningful residency figure.
    ///
    /// Adds saturate and the per-field fold is commutative + associative,
    /// so per-worker stats merge to the same totals in any order (the
    /// `stats_merge` proptest in `elfie` exercises this).
    pub fn accumulate(&mut self, other: &MaterializeStats) {
        self.pages_mapped = self.pages_mapped.saturating_add(other.pages_mapped);
        self.shared_pages = self.shared_pages.saturating_add(other.shared_pages);
        self.cow_breaks = self.cow_breaks.saturating_add(other.cow_breaks);
        self.lazy_faults = self.lazy_faults.saturating_add(other.lazy_faults);
        self.owned_bytes = self.owned_bytes.saturating_add(other.owned_bytes);
        self.peak_owned_bytes = self.peak_owned_bytes.max(other.peak_owned_bytes);
    }
}

struct Page {
    frame: Frame,
    base: u64,
    perm: Perm,
    /// Set while the block cache holds pre-decoded instructions from this
    /// page; writes then land the page in `dirty_code`.
    watched: bool,
}

impl Page {
    fn new(base: u64, perm: Perm, data: PageData) -> Page {
        Page {
            frame: Frame::Shared(data),
            base,
            perm,
            watched: false,
        }
    }
}

/// Number of entries in each of the three TLB arrays (power of two).
const TLB_SIZE: usize = 64;

/// One direct-mapped TLB entry: a page base and its arena slot.
#[derive(Clone, Copy)]
struct TlbEntry {
    base: u64,
    slot: u32,
}

/// `u64::MAX` is never page-aligned, so it can never match a real base.
const TLB_INVALID: TlbEntry = TlbEntry {
    base: u64::MAX,
    slot: 0,
};

#[inline]
const fn access_index(access: Access) -> usize {
    match access {
        Access::Read => 0,
        Access::Write => 1,
        Access::Exec => 2,
    }
}

#[inline]
const fn tlb_set(base: u64) -> usize {
    ((base >> 12) as usize) & (TLB_SIZE - 1)
}

/// Sparse paged memory.
///
/// ```
/// use elfie_vm::mem::{Memory, Perm};
/// let mut m = Memory::new();
/// m.map_range(0x1000, 0x2000, Perm::RW)?;
/// m.write_u64(0x1ff8, 0xdead_beef)?;
/// assert_eq!(m.read_u64(0x1ff8)?, 0xdead_beef);
/// # Ok::<(), elfie_vm::mem::MemError>(())
/// ```
pub struct Memory {
    /// Page arena; a page's slot is stable for its whole mapped lifetime.
    slots: Vec<Option<Page>>,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// `page_base → slot`, the authoritative mapping.
    index: BTreeMap<u64, u32>,
    /// Software TLB, one direct-mapped array per access kind. `Cell` so
    /// the `&self` read/fetch path can fill entries.
    tlb: [[Cell<TlbEntry>; TLB_SIZE]; 3],
    tlb_enabled: bool,
    tlb_hits: Cell<u64>,
    tlb_misses: Cell<u64>,
    /// Bumped on every map/unmap/protect; lets higher-level caches notice
    /// layout changes lazily.
    layout_epoch: u64,
    /// Bases of watched (code-cached) pages that have been written to
    /// since the last [`Memory::take_dirty_code`].
    dirty_code: Vec<u64>,
    /// Copy-on-write materialization counters.
    mat: MaterializeStats,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("pages", &self.index.len())
            .finish()
    }
}

/// Single-page fast path for a fixed-width little-endian read: one TLB
/// resolve plus a direct slice load. Accesses straddling a page boundary
/// fall back to the general byte copier.
macro_rules! read_le {
    ($self:expr, $addr:expr, $ty:ty, $n:literal) => {{
        let off = ($addr % PAGE_SIZE) as usize;
        if off + $n <= PAGE_SIZE as usize {
            let slot = $self.resolve($addr, Access::Read)?;
            let d = &$self.page_bytes(slot)[off..off + $n];
            Ok(<$ty>::from_le_bytes(d.try_into().expect("sized slice")))
        } else {
            let mut b = [0u8; $n];
            $self.read_bytes($addr, &mut b)?;
            Ok(<$ty>::from_le_bytes(b))
        }
    }};
}

/// Single-page fast path for a fixed-width little-endian write; mirrors
/// [`read_le!`] and keeps self-modifying-code tracking via `note_write`.
macro_rules! write_le {
    ($self:expr, $addr:expr, $v:expr, $n:literal) => {{
        let off = ($addr % PAGE_SIZE) as usize;
        if off + $n <= PAGE_SIZE as usize {
            let slot = $self.resolve($addr, Access::Write)?;
            $self.page_bytes_mut(slot)[off..off + $n].copy_from_slice(&$v.to_le_bytes());
            $self.note_write(slot);
            Ok(())
        } else {
            $self.write_bytes($addr, &$v.to_le_bytes())
        }
    }};
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory {
            slots: Vec::new(),
            free: Vec::new(),
            index: BTreeMap::new(),
            tlb: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(TLB_INVALID))),
            tlb_enabled: true,
            tlb_hits: Cell::new(0),
            tlb_misses: Cell::new(0),
            layout_epoch: 0,
            dirty_code: Vec::new(),
            mat: MaterializeStats::default(),
        }
    }

    /// Number of mapped pages.
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    /// True if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.index.contains_key(&page_base(addr))
    }

    /// The permission of the page containing `addr`, if mapped.
    pub fn perm_at(&self, addr: u64) -> Option<Perm> {
        self.index.get(&page_base(addr)).map(|&s| self.page(s).perm)
    }

    #[inline]
    fn page(&self, slot: u32) -> &Page {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    #[inline]
    fn page_mut(&mut self, slot: u32) -> &mut Page {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// The page's bytes, whichever frame variant backs them.
    #[inline]
    fn page_bytes(&self, slot: u32) -> &[u8; PAGE_SIZE as usize] {
        self.page(slot).frame.bytes()
    }

    /// Mutable access to the page's bytes. This is the single CoW choke
    /// point: a `Shared` frame is privatised (copied once, counted) here,
    /// so every writer — checked, unchecked, install — sees an `Owned`
    /// frame. After the first write the tag check is a predicted-not-taken
    /// branch, which keeps the write fast path intact.
    #[inline]
    fn page_bytes_mut(&mut self, slot: u32) -> &mut [u8; PAGE_SIZE as usize] {
        if matches!(self.page(slot).frame, Frame::Shared(_)) {
            self.privatise(slot);
        }
        match &mut self.page_mut(slot).frame {
            Frame::Owned(b) => b,
            Frame::Shared(_) => unreachable!("frame was just privatised"),
        }
    }

    /// Replaces the `Shared` frame in `slot` with a private copy: a
    /// zeroed allocation for the zero page, a counted CoW break for any
    /// other payload. Kept out of line so the write fast path stays small.
    #[cold]
    #[inline(never)]
    fn privatise(&mut self, slot: u32) {
        let page = self.slots[slot as usize].as_mut().expect("live slot");
        let Frame::Shared(shared) = &page.frame else {
            return;
        };
        let owned = if Arc::ptr_eq(shared, zero_page()) {
            Box::new([0u8; PAGE_SIZE as usize])
        } else {
            self.mat.cow_breaks += 1;
            Box::new(**shared)
        };
        page.frame = Frame::Owned(owned);
        self.mat.owned_bytes += PAGE_SIZE;
        self.mat.peak_owned_bytes = self.mat.peak_owned_bytes.max(self.mat.owned_bytes);
    }

    /// Materialization counters for this address space.
    pub fn materialize_stats(&self) -> MaterializeStats {
        self.mat
    }

    /// Counts one page injected on-fault instead of at load (called by
    /// replay harnesses that materialise pages lazily).
    pub fn record_lazy_fault(&mut self) {
        self.mat.lazy_faults += 1;
    }

    /// Flushes the software TLB (all three access kinds).
    pub fn flush_tlb(&self) {
        for kind in &self.tlb {
            for e in kind {
                e.set(TLB_INVALID);
            }
        }
    }

    /// Enables or disables the software TLB (used by benchmark ablations;
    /// disabling flushes it so stale entries cannot linger).
    pub fn set_tlb_enabled(&mut self, on: bool) {
        self.tlb_enabled = on;
        self.flush_tlb();
    }

    /// `(hits, misses)` of the software TLB since creation.
    pub fn tlb_stats(&self) -> (u64, u64) {
        (self.tlb_hits.get(), self.tlb_misses.get())
    }

    /// Monotone counter bumped on every layout change (map / unmap /
    /// protect). Execution caches keyed on decoded code compare this to
    /// notice remappings lazily.
    pub fn layout_epoch(&self) -> u64 {
        self.layout_epoch
    }

    fn bump_layout(&mut self) {
        self.layout_epoch += 1;
        self.flush_tlb();
    }

    /// Marks the page containing `addr` as holding cached decoded code.
    /// Returns false (and does nothing) if the page is not mapped.
    pub fn watch_exec_page(&mut self, addr: u64) -> bool {
        let base = page_base(addr);
        match self.index.get(&base).copied() {
            Some(slot) => {
                self.page_mut(slot).watched = true;
                true
            }
            None => false,
        }
    }

    /// True if a watched page has been written to since the last
    /// [`Memory::take_dirty_code`].
    #[inline]
    pub fn has_dirty_code(&self) -> bool {
        !self.dirty_code.is_empty()
    }

    /// Takes the bases of watched pages written to since the last call.
    /// Taking a page also un-watches it; the code cache re-watches pages
    /// it still (re-)caches blocks from.
    pub fn take_dirty_code(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty_code)
    }

    /// Records a write into `slot` for self-modifying-code tracking.
    #[inline]
    fn note_write(&mut self, slot: u32) {
        if self.page(slot).watched {
            let base = self.page(slot).base;
            self.page_mut(slot).watched = false;
            self.dirty_code.push(base);
        }
    }

    /// Resolves `addr` to an arena slot, checking `access` permission.
    /// Consults the TLB first; a miss falls through to the `BTreeMap` and
    /// fills the entry.
    #[inline]
    fn resolve(&self, addr: u64, access: Access) -> Result<u32, MemError> {
        let base = page_base(addr);
        if self.tlb_enabled {
            let e = self.tlb[access_index(access)][tlb_set(base)].get();
            if e.base == base {
                self.tlb_hits.set(self.tlb_hits.get() + 1);
                return Ok(e.slot);
            }
        }
        self.resolve_slow(addr, base, access)
    }

    fn resolve_slow(&self, addr: u64, base: u64, access: Access) -> Result<u32, MemError> {
        let slot = *self
            .index
            .get(&base)
            .ok_or(MemError::Unmapped { addr, access })?;
        let perm = self.page(slot).perm;
        let ok = match access {
            Access::Read => perm.can_read(),
            Access::Write => perm.can_write(),
            Access::Exec => perm.can_exec(),
        };
        if !ok {
            return Err(MemError::Protection { addr, access, perm });
        }
        if self.tlb_enabled {
            self.tlb_misses.set(self.tlb_misses.get() + 1);
            self.tlb[access_index(access)][tlb_set(base)].set(TlbEntry { base, slot });
        }
        Ok(slot)
    }

    /// Inserts `page` into a free or fresh slot and indexes it.
    fn insert_page(&mut self, base: u64, page: Page) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(page);
                s
            }
            None => {
                self.slots.push(Some(page));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(base, slot);
        self.mat.pages_mapped += 1;
    }

    /// Maps the page containing `addr` with permission `perm`.
    /// Re-mapping an existing page keeps its contents and updates the
    /// permission. A fresh page maps the shared zero payload and
    /// allocates on its first write.
    pub fn map_page(&mut self, addr: u64, perm: Perm) {
        self.map_page_quietly(addr, perm);
        self.bump_layout();
    }

    /// [`Memory::map_page`] without the layout bump, for range callers
    /// that bump once.
    fn map_page_quietly(&mut self, addr: u64, perm: Perm) {
        let base = page_base(addr);
        match self.index.get(&base).copied() {
            Some(slot) => self.page_mut(slot).perm = perm,
            None => self.insert_page(base, Page::new(base, perm, Arc::clone(zero_page()))),
        }
    }

    /// Maps the page containing `addr` zero-copy over an immutable shared
    /// payload: the page borrows `data` until a first write privatises it.
    /// Re-mapping an existing page replaces its contents and permission
    /// (the shared bytes become the page's contents, so a watched page is
    /// recorded as dirty code exactly like a whole-page write).
    pub fn map_shared_page(&mut self, addr: u64, perm: Perm, data: PageData) {
        let base = page_base(addr);
        match self.index.get(&base).copied() {
            Some(slot) => {
                if matches!(self.page(slot).frame, Frame::Owned(_)) {
                    self.mat.owned_bytes -= PAGE_SIZE;
                }
                let page = self.page_mut(slot);
                page.frame = Frame::Shared(data);
                page.perm = perm;
                self.note_write(slot);
            }
            None => self.insert_page(base, Page::new(base, perm, data)),
        }
        self.mat.shared_pages += 1;
        self.bump_layout();
    }

    /// Maps every page overlapping `[start, end)`.
    ///
    /// # Errors
    /// Returns an error when `end <= start`.
    pub fn map_range(&mut self, start: u64, end: u64, perm: Perm) -> Result<(), MemError> {
        if end <= start {
            return Err(MemError::Unmapped {
                addr: start,
                access: Access::Write,
            });
        }
        let mut p = page_base(start);
        while p < end {
            self.map_page_quietly(p, perm);
            p += PAGE_SIZE;
        }
        self.bump_layout();
        Ok(())
    }

    /// Removes the page at `base` from the address space and returns it,
    /// without bumping the layout.
    fn remove_page(&mut self, base: u64) -> Option<Page> {
        let slot = self.index.remove(&base)?;
        let page = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        if matches!(page.frame, Frame::Owned(_)) {
            self.mat.owned_bytes -= PAGE_SIZE;
        }
        Some(page)
    }

    /// Unmaps the page containing `addr` (no-op if not mapped). Returns the
    /// page contents if it was mapped, so callers can relocate pages (the
    /// ELFie startup stack-remap does this).
    pub fn unmap_page(&mut self, addr: u64) -> Option<Box<[u8; PAGE_SIZE as usize]>> {
        let page = self.remove_page(page_base(addr))?;
        self.bump_layout();
        Some(match page.frame {
            Frame::Owned(b) => b,
            // Relocating a never-written shared page pays its copy here.
            Frame::Shared(a) => Box::new(*a),
        })
    }

    /// Unmaps every page overlapping `[start, end)`, dropping their
    /// frames.
    pub fn unmap_range(&mut self, start: u64, end: u64) {
        let mut p = page_base(start);
        let mut changed = false;
        while p < end {
            changed |= self.remove_page(p).is_some();
            p += PAGE_SIZE;
        }
        if changed {
            self.bump_layout();
        }
    }

    /// Changes the permission of all mapped pages in `[start, end)`.
    pub fn protect_range(&mut self, start: u64, end: u64, perm: Perm) {
        let mut p = page_base(start);
        let mut changed = false;
        while p < end {
            if let Some(slot) = self.index.get(&p).copied() {
                self.page_mut(slot).perm = perm;
                changed = true;
            }
            p += PAGE_SIZE;
        }
        if changed {
            self.bump_layout();
        }
    }

    /// Iterates over `(page_base, perm, data)` for all mapped pages in
    /// ascending address order. This is what the PinPlay logger walks when
    /// writing a fat pinball's memory image.
    pub fn pages(&self) -> impl Iterator<Item = (u64, Perm, &[u8; PAGE_SIZE as usize])> {
        self.index.iter().map(|(&a, &s)| {
            let p = self.page(s);
            (a, p.perm, p.frame.bytes())
        })
    }

    /// Iterates mapped pages exposing their sharing status: the fourth
    /// element is `Some(payload)` while the frame is still a zero-copy
    /// `Shared` view of an arena payload, `None` once a write privatised
    /// it. Snapshot capture uses the `Arc` identity to detect clean pages
    /// in O(1) instead of comparing bytes.
    pub fn pages_with_sharing(
        &self,
    ) -> impl Iterator<Item = (u64, Perm, &[u8; PAGE_SIZE as usize], Option<&PageData>)> {
        self.index.iter().map(|(&a, &s)| {
            let p = self.page(s);
            let shared = match &p.frame {
                Frame::Shared(data) => Some(data),
                Frame::Owned(_) => None,
            };
            (a, p.perm, p.frame.bytes(), shared)
        })
    }

    /// Reads `buf.len()` bytes starting at `addr` (may cross pages).
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let off = (addr % PAGE_SIZE) as usize;
        if buf.is_empty() {
            return Ok(());
        }
        if off + buf.len() <= PAGE_SIZE as usize {
            let slot = self.resolve(addr, Access::Read)?;
            buf.copy_from_slice(&self.page_bytes(slot)[off..off + buf.len()]);
            return Ok(());
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let slot = self.resolve(a, Access::Read)?;
            let off = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - pos);
            buf[pos..pos + n].copy_from_slice(&self.page_bytes(slot)[off..off + n]);
            pos += n;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr` (may cross pages).
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let off = (addr % PAGE_SIZE) as usize;
        if buf.is_empty() {
            return Ok(());
        }
        if off + buf.len() <= PAGE_SIZE as usize {
            let slot = self.resolve(addr, Access::Write)?;
            self.page_bytes_mut(slot)[off..off + buf.len()].copy_from_slice(buf);
            self.note_write(slot);
            return Ok(());
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let slot = self.resolve(a, Access::Write)?;
            let off = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - pos);
            self.page_bytes_mut(slot)[off..off + n].copy_from_slice(&buf[pos..pos + n]);
            self.note_write(slot);
            pos += n;
        }
        Ok(())
    }

    /// Writes bytes ignoring the write permission (used by loaders and by
    /// the kernel when materialising syscall side effects into read-only
    /// mappings). Still participates in self-modifying-code tracking:
    /// injected bytes landing on cached code pages must evict blocks.
    pub fn write_bytes_unchecked(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let slot = *self.index.get(&page_base(a)).ok_or(MemError::Unmapped {
                addr: a,
                access: Access::Write,
            })?;
            let off = (a % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - pos);
            self.page_bytes_mut(slot)[off..off + n].copy_from_slice(&buf[pos..pos + n]);
            self.note_write(slot);
            pos += n;
        }
        Ok(())
    }

    /// Fetches up to `buf.len()` instruction bytes at `addr`, checking
    /// execute permission. Returns the number of bytes fetched (shorter at
    /// the end of an executable mapping so the decoder can report
    /// truncation). Rides the same TLB as data accesses, with its own
    /// fetch-entry array.
    pub fn fetch(&self, addr: u64, buf: &mut [u8]) -> Result<usize, MemError> {
        let off = (addr % PAGE_SIZE) as usize;
        if !buf.is_empty() && off + buf.len() <= PAGE_SIZE as usize {
            let slot = self.resolve(addr, Access::Exec)?;
            buf.copy_from_slice(&self.page_bytes(slot)[off..off + buf.len()]);
            return Ok(buf.len());
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            match self.resolve(a, Access::Exec) {
                Ok(slot) => {
                    let off = (a % PAGE_SIZE) as usize;
                    let n = ((PAGE_SIZE as usize) - off).min(buf.len() - pos);
                    buf[pos..pos + n].copy_from_slice(&self.page_bytes(slot)[off..off + n]);
                    pos += n;
                }
                Err(e) => {
                    if pos == 0 {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(pos)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemError> {
        let slot = self.resolve(addr, Access::Read)?;
        Ok(self.page_bytes(slot)[(addr % PAGE_SIZE) as usize])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> Result<u16, MemError> {
        read_le!(self, addr, u16, 2)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        read_le!(self, addr, u32, 4)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        read_le!(self, addr, u64, 8)
    }

    /// Writes a `u8`.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemError> {
        let slot = self.resolve(addr, Access::Write)?;
        self.page_bytes_mut(slot)[(addr % PAGE_SIZE) as usize] = v;
        self.note_write(slot);
        Ok(())
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), MemError> {
        write_le!(self, addr, v, 2)
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        write_le!(self, addr, v, 4)
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        write_le!(self, addr, v, 8)
    }

    /// Reads a NUL-terminated string of at most `max` bytes.
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<String, MemError> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            let b = self.read_u8(addr + i)?;
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// Copies a whole page of bytes into the page containing `dst_page`
    /// (which must be mapped), preserving its permission.
    pub fn install_page(
        &mut self,
        dst_page: u64,
        bytes: &[u8; PAGE_SIZE as usize],
    ) -> Result<(), MemError> {
        let slot = *self
            .index
            .get(&page_base(dst_page))
            .ok_or(MemError::Unmapped {
                addr: dst_page,
                access: Access::Write,
            })?;
        self.page_bytes_mut(slot).copy_from_slice(bytes);
        self.note_write(slot);
        Ok(())
    }

    /// Copies the whole page at `src` onto the whole page at `dst` (both
    /// page-aligned), checking read permission on `src` and then write
    /// permission on `dst`, exactly like a page-sized [`Memory::read_bytes`]
    /// followed by [`Memory::write_bytes`]. A `Shared` source payload is
    /// aliased copy-on-write instead of copied; an `Owned` source is
    /// byte-copied. The write is recorded for self-modifying-code
    /// tracking either way.
    ///
    /// # Errors
    /// Returns the [`MemError`] of the first failing access.
    pub fn copy_page(&mut self, src: u64, dst: u64) -> Result<(), MemError> {
        debug_assert!(src % PAGE_SIZE == 0 && dst % PAGE_SIZE == 0);
        let s = self.resolve(src, Access::Read)?;
        let d = self.resolve(dst, Access::Write)?;
        if s != d {
            match &self.page(s).frame {
                Frame::Shared(data) => {
                    let data = Arc::clone(data);
                    if !Arc::ptr_eq(&data, zero_page()) {
                        self.mat.shared_pages += 1;
                    }
                    if matches!(self.page(d).frame, Frame::Owned(_)) {
                        self.mat.owned_bytes -= PAGE_SIZE;
                    }
                    self.page_mut(d).frame = Frame::Shared(data);
                }
                Frame::Owned(from) => {
                    let bytes = **from;
                    self.page_bytes_mut(d).copy_from_slice(&bytes);
                }
            }
        }
        self.note_write(d);
        Ok(())
    }

    /// Finds a gap of `len` bytes starting the search at `hint`, for
    /// mmap-style allocation. The returned range is page-aligned and does
    /// not overlap any mapping.
    pub fn find_gap(&self, hint: u64, len: u64) -> u64 {
        let len = elfie_isa::page_align_up(len.max(1));
        let mut candidate = page_base(hint);
        loop {
            // Scan mapped pages in [candidate, candidate+len).
            match self.index.range(candidate..candidate + len).next() {
                None => return candidate,
                Some((&used, _)) => candidate = used + PAGE_SIZE,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new();
        assert_eq!(
            m.read_u8(0x5000),
            Err(MemError::Unmapped {
                addr: 0x5000,
                access: Access::Read
            })
        );
    }

    #[test]
    fn permissions_enforced() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::R);
        assert!(m.read_u8(0x1000).is_ok());
        assert!(matches!(
            m.write_u8(0x1000, 1),
            Err(MemError::Protection { .. })
        ));
        let mut buf = [0u8; 4];
        assert!(matches!(
            m.fetch(0x1000, &mut buf),
            Err(MemError::Protection { .. })
        ));
        m.protect_range(0x1000, 0x2000, Perm::RX);
        assert!(m.fetch(0x1000, &mut buf).is_ok());
    }

    #[test]
    fn cross_page_read_write() {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x3000, Perm::RW).unwrap();
        let data: Vec<u8> = (0..=255u8).collect();
        m.write_bytes(0x1f80, &data).unwrap();
        let mut back = vec![0u8; 256];
        m.read_bytes(0x1f80, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn cross_page_write_fails_at_boundary() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RW);
        // Second page unmapped: the write must fail.
        assert!(m.write_bytes(0x1ffc, &[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
    }

    #[test]
    fn fetch_truncates_at_mapping_end() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RX);
        let mut buf = [0u8; 16];
        let n = m.fetch(0x1ff8, &mut buf).unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn unmap_returns_contents() {
        let mut m = Memory::new();
        m.map_page(0x4000, Perm::RW);
        m.write_u64(0x4010, 99).unwrap();
        let page = m.unmap_page(0x4000).expect("was mapped");
        assert_eq!(u64::from_le_bytes(page[0x10..0x18].try_into().unwrap()), 99);
        assert!(!m.is_mapped(0x4000));
    }

    #[test]
    fn remap_preserves_contents() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RW);
        m.write_u64(0x1000, 7).unwrap();
        m.map_page(0x1000, Perm::R);
        assert_eq!(m.read_u64(0x1000).unwrap(), 7);
        assert_eq!(m.perm_at(0x1000), Some(Perm::R));
    }

    #[test]
    fn find_gap_skips_mappings() {
        let mut m = Memory::new();
        m.map_range(0x10000, 0x12000, Perm::RW).unwrap();
        let g = m.find_gap(0x10000, 0x1000);
        assert_eq!(g, 0x12000);
        let g2 = m.find_gap(0x20000, 0x4000);
        assert_eq!(g2, 0x20000);
    }

    #[test]
    fn read_cstr_stops_at_nul() {
        let mut m = Memory::new();
        m.map_page(0, Perm::RW);
        m.write_bytes(0x10, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(0x10, 64).unwrap(), "hello");
    }

    #[test]
    fn u16_roundtrip_and_cross_page() {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x3000, Perm::RW).unwrap();
        m.write_u16(0x1004, 0xbeef).unwrap();
        assert_eq!(m.read_u16(0x1004).unwrap(), 0xbeef);
        // Straddling the page boundary at 0x2000.
        m.write_u16(0x1fff, 0xa55a).unwrap();
        assert_eq!(m.read_u16(0x1fff).unwrap(), 0xa55a);
        assert_eq!(m.read_u8(0x1fff).unwrap(), 0x5a);
        assert_eq!(m.read_u8(0x2000).unwrap(), 0xa5);
    }

    #[test]
    fn u16_cross_page_fails_when_second_page_unmapped() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RW);
        assert!(m.write_u16(0x1fff, 1).is_err());
        assert!(m.read_u16(0x1fff).is_err());
    }

    #[test]
    fn tlb_hits_accumulate_and_flush_on_layout_change() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RW);
        m.write_u64(0x1000, 1).unwrap();
        let (h0, _) = m.tlb_stats();
        for _ in 0..10 {
            m.read_u64(0x1000).unwrap();
        }
        let (h1, _) = m.tlb_stats();
        assert!(h1 >= h0 + 9, "repeated reads hit the TLB");

        let e0 = m.layout_epoch();
        m.map_page(0x2000, Perm::RW);
        assert!(m.layout_epoch() > e0, "map bumps the layout epoch");
        let (_, mi0) = m.tlb_stats();
        m.read_u64(0x1000).unwrap();
        let (_, mi1) = m.tlb_stats();
        assert_eq!(mi1, mi0 + 1, "map flushed the TLB");
    }

    #[test]
    fn tlb_respects_permission_kind() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::R);
        // Warm the read entry; writes must still be refused.
        assert!(m.read_u8(0x1000).is_ok());
        assert!(m.read_u8(0x1000).is_ok());
        assert!(matches!(
            m.write_u8(0x1000, 1),
            Err(MemError::Protection { .. })
        ));
    }

    #[test]
    fn disabled_tlb_still_correct() {
        let mut m = Memory::new();
        m.set_tlb_enabled(false);
        m.map_range(0x1000, 0x3000, Perm::RW).unwrap();
        m.write_u64(0x1ffc, 0x1122334455667788).unwrap();
        assert_eq!(m.read_u64(0x1ffc).unwrap(), 0x1122334455667788);
        assert_eq!(m.tlb_stats(), (0, 0));
    }

    #[test]
    fn watched_page_writes_record_dirty_code() {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x3000, Perm::RWX).unwrap();
        assert!(m.watch_exec_page(0x1000));
        assert!(!m.watch_exec_page(0x9000), "unmapped page not watchable");
        assert!(!m.has_dirty_code());

        m.write_u8(0x2f00, 1).unwrap(); // unwatched page: no dirt
        assert!(!m.has_dirty_code());

        m.write_u8(0x1f00, 1).unwrap();
        assert_eq!(m.take_dirty_code(), vec![0x1000]);
        assert!(!m.has_dirty_code());

        // Taking un-watches: further writes to the page are quiet until
        // re-watched.
        m.write_u8(0x1f01, 2).unwrap();
        assert!(!m.has_dirty_code());

        // Unchecked (loader/kernel) writes also trip the watch.
        m.watch_exec_page(0x1000);
        m.write_bytes_unchecked(0x1010, &[9]).unwrap();
        assert_eq!(m.take_dirty_code(), vec![0x1000]);

        // install_page replaces content wholesale: also dirty.
        m.watch_exec_page(0x1000);
        let page = [0u8; PAGE_SIZE as usize];
        m.install_page(0x1000, &page).unwrap();
        assert_eq!(m.take_dirty_code(), vec![0x1000]);
    }

    fn shared(fill: u8) -> PageData {
        Arc::new([fill; PAGE_SIZE as usize])
    }

    #[test]
    fn shared_pages_read_without_copying() {
        let mut m = Memory::new();
        let data = shared(0x5a);
        m.map_shared_page(0x1000, Perm::R, Arc::clone(&data));
        assert_eq!(m.read_u8(0x1234).unwrap(), 0x5a);
        let s = m.materialize_stats();
        assert_eq!(s.shared_pages, 1);
        assert_eq!(s.owned_bytes, 0, "no private bytes until a write");
        assert_eq!(s.cow_breaks, 0);
        // The mapping holds the payload itself, not a copy.
        assert_eq!(Arc::strong_count(&data), 2);
    }

    #[test]
    fn first_write_breaks_cow_and_preserves_the_shared_payload() {
        let mut m = Memory::new();
        let data = shared(0x11);
        m.map_shared_page(0x1000, Perm::RW, Arc::clone(&data));
        m.write_u8(0x1000, 0xff).unwrap();
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xff);
        assert_eq!(m.read_u8(0x1001).unwrap(), 0x11, "rest copied over");
        assert_eq!(data[0], 0x11, "shared payload untouched");
        let s = m.materialize_stats();
        assert_eq!(s.cow_breaks, 1);
        assert_eq!(s.owned_bytes, PAGE_SIZE);
        assert_eq!(Arc::strong_count(&data), 1, "break dropped the borrow");

        // Further writes stay on the private frame.
        m.write_u8(0x1002, 1).unwrap();
        assert_eq!(m.materialize_stats().cow_breaks, 1);
    }

    #[test]
    fn machines_sharing_a_payload_diverge_privately() {
        let data = shared(7);
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.map_shared_page(0x1000, Perm::RW, Arc::clone(&data));
        b.map_shared_page(0x1000, Perm::RW, Arc::clone(&data));
        a.write_u8(0x1000, 100).unwrap();
        assert_eq!(a.read_u8(0x1000).unwrap(), 100);
        assert_eq!(b.read_u8(0x1000).unwrap(), 7, "b still sees the original");
    }

    #[test]
    fn unchecked_writes_and_install_break_cow_too() {
        let mut m = Memory::new();
        m.map_shared_page(0x1000, Perm::R, shared(3));
        m.write_bytes_unchecked(0x1010, &[9]).unwrap();
        assert_eq!(m.materialize_stats().cow_breaks, 1);

        m.map_shared_page(0x2000, Perm::R, shared(4));
        m.install_page(0x2000, &[0u8; PAGE_SIZE as usize]).unwrap();
        assert_eq!(m.materialize_stats().cow_breaks, 2);
        assert_eq!(m.read_u8(0x2000).unwrap(), 0);
    }

    #[test]
    fn shared_remap_of_watched_page_records_dirty_code() {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x2000, Perm::RWX).unwrap();
        assert!(m.watch_exec_page(0x1000));
        m.map_shared_page(0x1000, Perm::RX, shared(0x90));
        assert_eq!(m.take_dirty_code(), vec![0x1000]);
    }

    #[test]
    fn unmap_shared_page_returns_contents() {
        let mut m = Memory::new();
        m.map_shared_page(0x3000, Perm::RW, shared(0xab));
        let page = m.unmap_page(0x3000).expect("was mapped");
        assert!(page.iter().all(|&x| x == 0xab));
        assert_eq!(m.materialize_stats().owned_bytes, 0);
    }

    #[test]
    fn owned_bytes_track_map_and_unmap() {
        // Fresh pages share the zero payload: mapping allocates nothing,
        // the first write allocates one page.
        let mut m = Memory::new();
        m.map_range(0x1000, 0x3000, Perm::RW).unwrap();
        let s = m.materialize_stats();
        assert_eq!(s.owned_bytes, 0);
        assert_eq!(s.pages_mapped, 2);
        assert_eq!(m.read_u64(0x1ff8).unwrap(), 0);
        m.write_u8(0x1000, 1).unwrap();
        let s = m.materialize_stats();
        assert_eq!(s.owned_bytes, PAGE_SIZE);
        assert_eq!(
            (s.shared_pages, s.cow_breaks),
            (0, 0),
            "a zero page is demand-zero, not a shared payload"
        );
        m.unmap_range(0x1000, 0x3000);
        let s = m.materialize_stats();
        assert_eq!(s.owned_bytes, 0);
        assert_eq!(s.peak_owned_bytes, PAGE_SIZE, "peak sticks");
    }

    #[test]
    fn ranges_bump_the_layout_once() {
        let mut m = Memory::new();
        let e0 = m.layout_epoch();
        m.map_range(0x1000, 0x9000, Perm::RW).unwrap();
        assert_eq!(m.layout_epoch(), e0 + 1);
        m.unmap_range(0x1000, 0x9000);
        assert_eq!(m.layout_epoch(), e0 + 2);
        m.unmap_range(0x1000, 0x9000);
        assert_eq!(
            m.layout_epoch(),
            e0 + 2,
            "unmapping nothing changes nothing"
        );
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn copy_page_aliases_shared_and_copies_owned_sources() {
        let mut m = Memory::new();
        let data = shared(0x42);
        m.map_shared_page(0x1000, Perm::R, Arc::clone(&data));
        m.map_range(0x2000, 0x4000, Perm::RW).unwrap();
        m.write_u8(0x2000, 9).unwrap(); // an owned destination
        m.copy_page(0x1000, 0x2000).unwrap();
        assert_eq!(Arc::strong_count(&data), 3, "aliased, not copied");
        let s = m.materialize_stats();
        assert_eq!((s.shared_pages, s.owned_bytes), (2, 0));

        m.write_u8(0x2001, 7).unwrap();
        m.copy_page(0x2000, 0x3000).unwrap();
        assert_eq!(m.read_u8(0x3001).unwrap(), 7);
        assert_eq!(m.read_u8(0x3002).unwrap(), 0x42);
        m.copy_page(0x2000, 0x2000).unwrap();
        assert_eq!(m.read_u8(0x2001).unwrap(), 7, "a self-copy keeps the page");
        assert_eq!(m.materialize_stats().owned_bytes, 2 * PAGE_SIZE);
    }

    #[test]
    fn unmap_reuses_slots_safely() {
        let mut m = Memory::new();
        m.map_page(0x1000, Perm::RW);
        m.write_u64(0x1000, 42).unwrap();
        m.unmap_page(0x1000);
        m.map_page(0x5000, Perm::RW);
        // Recycled slot must come back zeroed under the new base.
        assert_eq!(m.read_u64(0x5000).unwrap(), 0);
        assert!(!m.is_mapped(0x1000));
    }

    proptest! {
        #[test]
        fn rw_roundtrip(addr in 0u64..0x8000, data in proptest::collection::vec(any::<u8>(), 1..512)) {
            let mut m = Memory::new();
            m.map_range(0, 0x10000, Perm::RW).unwrap();
            m.write_bytes(addr, &data).unwrap();
            let mut back = vec![0u8; data.len()];
            m.read_bytes(addr, &mut back).unwrap();
            prop_assert_eq!(back, data);
        }

        #[test]
        fn u64_roundtrip(addr in 0u64..0xff8, v in any::<u64>()) {
            let mut m = Memory::new();
            m.map_page(0, Perm::RW);
            m.write_u64(addr, v).unwrap();
            prop_assert_eq!(m.read_u64(addr).unwrap(), v);
        }

        #[test]
        fn u16_roundtrip(addr in 0u64..0x1ffe, v in any::<u16>()) {
            let mut m = Memory::new();
            m.map_range(0, 0x2000, Perm::RW).unwrap();
            m.write_u16(addr, v).unwrap();
            prop_assert_eq!(m.read_u16(addr).unwrap(), v);
        }

        #[test]
        fn tlb_agrees_with_slow_path(ops in proptest::collection::vec((0u64..0x6000, any::<u8>()), 1..64)) {
            // The same op sequence on a TLB'd and a TLB-less memory must
            // produce identical contents and results.
            let mut fast = Memory::new();
            let mut slow = Memory::new();
            slow.set_tlb_enabled(false);
            for m in [&mut fast, &mut slow] {
                m.map_range(0, 0x4000, Perm::RW).unwrap();
            }
            for (addr, v) in ops {
                prop_assert_eq!(fast.write_u8(addr, v), slow.write_u8(addr, v));
                prop_assert_eq!(fast.read_u8(addr).ok(), slow.read_u8(addr).ok());
            }
            let a: Vec<_> = fast.pages().map(|(b, p, d)| (b, p, d.to_vec())).collect();
            let b: Vec<_> = slow.pages().map(|(b, p, d)| (b, p, d.to_vec())).collect();
            prop_assert_eq!(a, b);
        }
    }
}
