//! # elfie-store
//!
//! A content-addressed checkpoint repository for pinballs and ELFies.
//!
//! The paper's fat pinballs (`-log:fat`) pre-load *every* mapped page into
//! each region's memory image, so a PinPoints run over one workload
//! produces dozens of checkpoints that are near-identical page for page.
//! This crate erases that redundancy the way published checkpoint
//! repositories (the SPEC CPU2017 PinPoints release) and deployable
//! record/replay systems (rr's compacted traces) do: every memory-image
//! page becomes a **blob** keyed by its content hash, deduplicated across
//! regions and workloads, and compressed with a small self-contained
//! RLE+delta codec ([`codec`]).
//!
//! On-disk layout under the store root:
//!
//! ```text
//! blobs/<hh>/<hash16>.blob   compressed chunk, addressed by content hash
//! objects/<id16>.mf          versioned manifest (elfie_pinball::wire)
//! refs/<name>                human name -> manifest id
//! ```
//!
//! Content hashes are XXH64 ([`elfie_isa::xxh64`]) in store format 2,
//! the one written. Format 1 files, keyed by FNV-64, are still read: the
//! version in each blob or manifest header picks the hash that checks
//! it, and a format 1 manifest names format 1 blobs, so an old store
//! reads, verifies and collects file by file. Dedup does not cross
//! versions — the first new put of a page an old store holds writes a
//! second blob, and [`Store::gc`] drops the old one once no ref uses it.
//!
//! A **manifest** describes one stored object: a pinball (a page-stripped
//! skeleton blob plus a page table of `(addr, perm, blob)` entries) or a
//! byte stream such as an ELFie image (an ordered chunk list). Manifests
//! are themselves content-addressed — the object id is the hash of the
//! manifest bytes — so [`Store::verify`] can detect any flipped byte in
//! the repository, and [`Store::gc`] is a straightforward mark-and-sweep
//! from the refs.
//!
//! A pinball or snapshot call costs one blob file per *distinct* blob of
//! its object, not one per page: a fat pinball's pages mostly share a few
//! payloads (zero pages, untouched static data). A get reads, decodes,
//! hash-checks and interns each distinct blob once, and every later
//! reference shares the interned payload. A put hashes and stores each
//! distinct page allocation once. Byte streams are read and written one
//! chunk at a time. A [`LazyPinball`] remembers the payloads it read by weak reference
//! only, so a fault on a page whose payload is still alive reads nothing,
//! and the handle keeps no payload alive by itself.
//!
//! The store knows pinballs, ELFies, snapshots and raw byte streams, and
//! depends on nothing above `elfie-pinball`: in particular not on the VM.
//! Higher layers encode their own artifacts as raw streams, as the
//! pipeline cache does with BBV profiles.
//!
//! ```
//! use elfie_store::Store;
//! # let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = Store::open(&dir).unwrap();
//! store.put_elfie("demo", b"\x7fELF...image bytes...").unwrap();
//! assert_eq!(store.get_elfie("demo").unwrap(), b"\x7fELF...image bytes...");
//! assert!(store.verify().unwrap().is_ok());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod codec;

use codec::{Codec, CodecError};
use elfie_pinball::wire::{Reader, WireError, Writer};
use elfie_pinball::{
    MemoryImage, PageArena, PageData, PageRecord, Pinball, PinballError, Snapshot, SnapshotMeta,
    PAGE_BYTES,
};
use elfie_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io::Read;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

const BLOB_MAGIC: &[u8; 4] = b"ESBL";
const MANIFEST_MAGIC: &[u8; 4] = b"ESMF";

/// Format version of the blob files and manifests this build writes.
/// Version 2 names them by XXH64; version 1, still read, by FNV-64.
pub const STORE_VERSION: u32 = 2;

/// Every format version a blob or manifest header may carry.
const READ_VERSIONS: RangeInclusive<u32> = 1..=STORE_VERSION;

/// The content hash that names and checks a store file whose header
/// carries `version`: FNV-64 for format 1, XXH64 from format 2 on.
fn content_hash(version: u32, bytes: &[u8]) -> u64 {
    if version == 1 {
        elfie_isa::fnv64(bytes)
    } else {
        elfie_isa::xxh64(bytes)
    }
}

/// Chunk size for byte-stream objects, matching the page dedup unit.
pub const CHUNK_SIZE: usize = 4096;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A blob or manifest failed to decode.
    Wire(WireError),
    /// A compressed payload failed to decode.
    Codec(CodecError),
    /// Content failed an integrity check (hash mismatch, bad layout).
    Corrupt(String),
    /// No object under the given name.
    NotFound(String),
    /// A stored pinball skeleton failed to decode.
    Pinball(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Wire(e) => write!(f, "wire error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Corrupt(s) => write!(f, "corrupt store: {s}"),
            StoreError::NotFound(s) => write!(f, "no such object: {s}"),
            StoreError::Pinball(s) => write!(f, "pinball decode: {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<PinballError> for StoreError {
    fn from(e: PinballError) -> Self {
        StoreError::Pinball(e.to_string())
    }
}

/// What kind of object a manifest describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// A pinball: skeleton blob + page table.
    Pinball,
    /// An ELFie image: ordered chunk list.
    Elfie,
    /// An uninterpreted byte stream, such as an encoded artifact the
    /// pipeline cache stores.
    Raw,
    /// An interval snapshot: state blob + delta page table, chained to an
    /// optional parent manifest (the previous snapshot in the interval
    /// sequence).
    Snapshot,
}

impl ObjectKind {
    fn tag(self) -> u8 {
        match self {
            ObjectKind::Pinball => 0,
            ObjectKind::Elfie => 1,
            ObjectKind::Raw => 2,
            ObjectKind::Snapshot => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<ObjectKind> {
        match tag {
            0 => Some(ObjectKind::Pinball),
            1 => Some(ObjectKind::Elfie),
            2 => Some(ObjectKind::Raw),
            3 => Some(ObjectKind::Snapshot),
            _ => None,
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Pinball => write!(f, "pinball"),
            ObjectKind::Elfie => write!(f, "elfie"),
            ObjectKind::Raw => write!(f, "raw"),
            ObjectKind::Snapshot => write!(f, "snapshot"),
        }
    }
}

/// Identity of a stored object: the content hash of its manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A page-table entry of a stored pinball manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageRef {
    addr: u64,
    perm: u8,
    blob: u64,
}

/// One chunk of a stored byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkRef {
    blob: u64,
    len: u64,
}

/// One store call's page payloads already stored: each payload
/// allocation ([`Arc::as_ptr`]) maps to its blob hash. The pinball or
/// snapshot being stored holds every allocation for the whole call, so no
/// address is reused while the map lives.
type PagePuts = HashMap<*const [u8; PAGE_BYTES], u64>;

/// One store call's page blobs already read: each distinct blob is read,
/// decoded, hash-checked and interned once, and every later reference
/// shares the interned payload.
#[derive(Default)]
struct PageReads {
    pages: HashMap<u64, PageData>,
    /// Blob files read so far.
    files: u64,
}

impl PageReads {
    /// Reads the pages `refs` names into `table`.
    fn read_into(
        &mut self,
        store: &Store,
        refs: &[PageRef],
        table: &mut BTreeMap<u64, PageRecord>,
    ) -> Result<(), StoreError> {
        for p in refs {
            let data = match self.pages.get(&p.blob) {
                Some(data) => Arc::clone(data),
                None => {
                    let data = store.get_page(p.blob)?;
                    self.files += 1;
                    self.pages.insert(p.blob, Arc::clone(&data));
                    data
                }
            };
            table.insert(p.addr, PageRecord::from_data(p.perm, data));
        }
        Ok(())
    }
}

/// The decoded form of a manifest.
#[derive(Debug, Clone)]
struct Manifest {
    kind: ObjectKind,
    name: String,
    /// Uncompressed logical size of the object in bytes.
    logical: u64,
    /// Pinball only: blob holding the page-stripped bundle, and its length.
    skeleton: Option<(u64, u64)>,
    /// Pinball only: memory-image then lazy page tables.
    image_pages: Vec<PageRef>,
    lazy_pages: Vec<PageRef>,
    /// Byte-stream only: ordered chunks.
    chunks: Vec<ChunkRef>,
    /// Snapshot only: the previous manifest in the interval chain. GC
    /// marking follows this link, so an ancestor is never collected while
    /// any descendant is referenced.
    parent: Option<ObjectId>,
}

impl Manifest {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MANIFEST_MAGIC, STORE_VERSION);
        w.u8(self.kind.tag());
        w.string(&self.name);
        w.u64(self.logical);
        match self.kind {
            ObjectKind::Pinball => {
                let (skel, skel_len) = self.skeleton.expect("pinball manifest has skeleton");
                w.u64(skel);
                w.u64(skel_len);
                for table in [&self.image_pages, &self.lazy_pages] {
                    w.u64(table.len() as u64);
                    for p in table {
                        w.u64(p.addr);
                        w.u8(p.perm);
                        w.u64(p.blob);
                    }
                }
            }
            ObjectKind::Elfie | ObjectKind::Raw => {
                w.u64(self.chunks.len() as u64);
                for c in &self.chunks {
                    w.u64(c.blob);
                    w.u64(c.len);
                }
            }
            ObjectKind::Snapshot => {
                let (state, state_len) = self.skeleton.expect("snapshot manifest has state blob");
                w.u8(u8::from(self.parent.is_some()));
                w.u64(self.parent.map_or(0, |p| p.0));
                w.u64(state);
                w.u64(state_len);
                w.u64(self.image_pages.len() as u64);
                for p in &self.image_pages {
                    w.u64(p.addr);
                    w.u8(p.perm);
                    w.u64(p.blob);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes the manifest file stored as `id`, checking first that its
    /// bytes hash to `id` under the hash their header version names.
    fn from_bytes(buf: &[u8], id: ObjectId) -> Result<Manifest, StoreError> {
        let (mut r, version) = Reader::with_any_header(buf, MANIFEST_MAGIC, READ_VERSIONS)?;
        if content_hash(version, buf) != id.0 {
            return Err(StoreError::Corrupt(format!("manifest {id} hash mismatch")));
        }
        let kind = ObjectKind::from_tag(r.u8()?)
            .ok_or_else(|| StoreError::Corrupt("unknown object kind".into()))?;
        let name = r.string()?;
        let logical = r.u64()?;
        let mut m = Manifest {
            kind,
            name,
            logical,
            skeleton: None,
            image_pages: Vec::new(),
            lazy_pages: Vec::new(),
            chunks: Vec::new(),
            parent: None,
        };
        let read_table = |r: &mut Reader| -> Result<Vec<PageRef>, StoreError> {
            let n = r.u64()?;
            let mut table = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                table.push(PageRef {
                    addr: r.u64()?,
                    perm: r.u8()?,
                    blob: r.u64()?,
                });
            }
            Ok(table)
        };
        match kind {
            ObjectKind::Pinball => {
                m.skeleton = Some((r.u64()?, r.u64()?));
                m.image_pages = read_table(&mut r)?;
                m.lazy_pages = read_table(&mut r)?;
            }
            ObjectKind::Elfie | ObjectKind::Raw => {
                let n = r.u64()?;
                for _ in 0..n {
                    m.chunks.push(ChunkRef {
                        blob: r.u64()?,
                        len: r.u64()?,
                    });
                }
            }
            ObjectKind::Snapshot => {
                let has_parent = r.u8()? != 0;
                let parent = r.u64()?;
                m.parent = has_parent.then_some(ObjectId(parent));
                m.skeleton = Some((r.u64()?, r.u64()?));
                m.image_pages = read_table(&mut r)?;
            }
        }
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt("trailing manifest bytes".into()));
        }
        Ok(m)
    }

    /// Every blob hash this manifest references.
    fn blob_refs(&self) -> impl Iterator<Item = u64> + '_ {
        self.skeleton
            .iter()
            .map(|&(h, _)| h)
            .chain(self.image_pages.iter().map(|p| p.blob))
            .chain(self.lazy_pages.iter().map(|p| p.blob))
            .chain(self.chunks.iter().map(|c| c.blob))
    }
}

/// One listed object (see [`Store::list`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefEntry {
    /// The ref name.
    pub name: String,
    /// Object kind.
    pub kind: ObjectKind,
    /// Manifest id.
    pub id: ObjectId,
    /// Uncompressed logical size in bytes.
    pub logical_bytes: u64,
    /// Number of blobs the object references (with repetition).
    pub blobs: usize,
}

/// Outcome of [`Store::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Blobs checked (decompressed and re-hashed).
    pub blobs_checked: usize,
    /// Manifests checked.
    pub objects_checked: usize,
    /// Refs resolved.
    pub refs_checked: usize,
    /// Every integrity violation found, as human-readable lines.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// True when no corruption was found.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified {} blob(s), {} object(s), {} ref(s): ",
            self.blobs_checked, self.objects_checked, self.refs_checked
        )?;
        if self.errors.is_empty() {
            write!(f, "clean")
        } else {
            writeln!(f, "{} error(s)", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  {e}")?;
            }
            Ok(())
        }
    }
}

/// Outcome of [`Store::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Unreferenced manifests removed.
    pub manifests_removed: usize,
    /// Unreferenced blobs removed.
    pub blobs_removed: usize,
    /// Physical bytes reclaimed.
    pub bytes_freed: u64,
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc: removed {} manifest(s), {} blob(s), freed {} bytes",
            self.manifests_removed, self.blobs_removed, self.bytes_freed
        )
    }
}

/// Space accounting over the whole store (see [`Store::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live objects (refs).
    pub objects: usize,
    /// Unique blobs on disk.
    pub blobs: usize,
    /// Sum of object logical sizes — what the objects would occupy stored
    /// naively, uncompressed and without dedup.
    pub logical_bytes: u64,
    /// Sum of unique blob *uncompressed* sizes — logical minus dedup.
    pub unique_bytes: u64,
    /// Sum of blob payloads on disk — unique minus compression.
    pub physical_bytes: u64,
}

impl StoreStats {
    /// Cross-object redundancy erased by content addressing
    /// (`logical / unique`); `> 1.0` means dedup is saving space.
    pub fn dedup_ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.unique_bytes.max(1) as f64
    }

    /// Space saved by the codec on the unique data (`unique / physical`).
    pub fn compression_ratio(&self) -> f64 {
        self.unique_bytes as f64 / self.physical_bytes.max(1) as f64
    }

    /// End-to-end ratio (`logical / physical`).
    pub fn total_ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.physical_bytes.max(1) as f64
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "objects: {}   blobs: {}", self.objects, self.blobs)?;
        writeln!(
            f,
            "logical bytes:  {:>12}\nunique bytes:   {:>12}\nphysical bytes: {:>12}",
            self.logical_bytes, self.unique_bytes, self.physical_bytes
        )?;
        write!(
            f,
            "dedup {:.2}x * compression {:.2}x = {:.2}x overall",
            self.dedup_ratio(),
            self.compression_ratio(),
            self.total_ratio()
        )
    }
}

/// A content-addressed blob store rooted at a directory.
///
/// The store is `Sync`: all state lives on disk, blob writes are
/// idempotent (a blob's name is its content hash) and performed via
/// temp-file + rename, so concurrent `put`s — e.g. from the parallel
/// validation engine's workers — are safe.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    tracer: Option<Arc<Tracer>>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] if the directories cannot be created.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("blobs"))?;
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("refs"))?;
        Ok(Store { root, tracer: None })
    }

    /// Puts store I/O on a timeline: `store/put_*` and `store/get_*`
    /// spans per object and a `store/lazy_fetch` instant when a
    /// [`LazyPinball`] reads a page blob (a fault served by a payload
    /// still alive emits none). Clones — including the one inside a
    /// `LazyPinball` — inherit the tracer. Span args:
    ///
    /// - `put_pinball`: `logical_bytes`, `pages`, and `blobs`, the
    ///   distinct `put_blob` calls (the skeleton included);
    /// - `put_snapshot`: `logical_bytes`, `delta_pages` and `blobs` (the
    ///   state blob included);
    /// - `put_stream`: `bytes` and `blobs`, the chunk blobs stored;
    /// - `get_pinball` and `get_snapshot`: `pages` and `blobs_read`, the
    ///   blob files read (the skeleton or state blob included), one per
    ///   distinct blob;
    /// - `get_stream`: `pages`, its chunks, and `blobs_read`, the chunk
    ///   blobs read, one per chunk.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Store {
        self.tracer = Some(tracer);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, hash: u64) -> PathBuf {
        let hex = format!("{hash:016x}");
        self.root.join("blobs").join(&hex[..2]).join(hex + ".blob")
    }

    fn object_path(&self, id: ObjectId) -> PathBuf {
        self.root.join("objects").join(format!("{id}.mf"))
    }

    /// Whether `name` may be used as a ref name (and therefore as a
    /// tenant-namespace fragment): non-empty, no path separators, no
    /// parent traversal. The serve admission layer uses this to reject
    /// bad tenants before any store I/O happens.
    pub fn valid_ref_name(name: &str) -> bool {
        !name.is_empty() && !name.contains('/') && !name.contains('\\') && !name.contains("..")
    }

    fn ref_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        if !Self::valid_ref_name(name) {
            return Err(StoreError::Corrupt(format!("invalid ref name `{name}`")));
        }
        Ok(self.root.join("refs").join(name))
    }

    /// Stores `data` as a blob, returning its content hash. Writing an
    /// already-present blob is a no-op (that *is* the dedup).
    fn put_blob(&self, data: &[u8]) -> Result<u64, StoreError> {
        let hash = content_hash(STORE_VERSION, data);
        let path = self.blob_path(hash);
        if path.exists() {
            return Ok(hash);
        }
        let (codec, payload) = codec::compress(data);
        let mut w = Writer::with_header(BLOB_MAGIC, STORE_VERSION);
        w.u8(codec.tag());
        w.u64(data.len() as u64);
        w.bytes(&payload);
        self.write_atomic(&path, &w.into_bytes())?;
        Ok(hash)
    }

    /// Stores the page payload `data` through `stored`, this call's map
    /// from payload allocation to blob hash: an allocation already stored
    /// costs a map lookup, not a hash and an `exists` check. Equal bytes
    /// in two allocations cost a second, deduplicated `put_blob`.
    fn put_page(&self, stored: &mut PagePuts, data: &PageData) -> Result<u64, StoreError> {
        let key = Arc::as_ptr(data);
        if let Some(&hash) = stored.get(&key) {
            return Ok(hash);
        }
        let hash = self.put_blob(&data[..])?;
        stored.insert(key, hash);
        Ok(hash)
    }

    /// Reads and decompresses the blob stored under `hash`, verifying the
    /// content hash on the way out. A blob that fails to decode or to
    /// match its hash is removed, so the next [`Store::put_blob`] of
    /// those bytes rewrites it instead of deduplicating against it. A blob
    /// of a format version this build cannot read is left alone.
    fn get_blob(&self, hash: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.blob_path(hash);
        let raw = std::fs::read(&path)
            .map_err(|_| StoreError::NotFound(format!("blob {hash:016x} ({})", path.display())))?;
        decode_blob(&raw, hash).map_err(|e| {
            if !matches!(e, StoreError::Wire(WireError::BadVersion(_))) {
                std::fs::remove_file(&path).ok();
            }
            e
        })
    }

    /// Reads the page blob stored under `hash` and interns its payload
    /// in the global [`PageArena`].
    fn get_page(&self, hash: u64) -> Result<PageData, StoreError> {
        PageArena::global()
            .intern_slice(&self.get_blob(hash)?)
            .ok_or_else(|| StoreError::Corrupt(format!("page blob {hash:016x} is not page-sized")))
    }

    /// Reads each distinct blob `m` references once, which removes each
    /// corrupt one (see [`Store::get_blob`]). Called after a read of `m`
    /// failed, so the recompute that follows rewrites every corrupt blob,
    /// not just the first one the read hit.
    fn drop_corrupt_blobs(&self, m: &Manifest) {
        for blob in m.blob_refs().collect::<HashSet<_>>() {
            self.get_blob(blob).ok();
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        // The tmp name must be unique per *call*, not per content: two
        // threads deduplicating the same blob bytes concurrently would
        // otherwise share a tmp path, and whichever renames second sees
        // ENOENT — silently dropping its artifact from the store (the
        // fleet benchmark caught this as sporadic store misses).
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let parent = path.parent().expect("store paths have parents");
        std::fs::create_dir_all(parent)?;
        let tmp = parent.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    fn put_manifest(&self, manifest: &Manifest) -> Result<ObjectId, StoreError> {
        let bytes = manifest.to_bytes();
        let id = ObjectId(content_hash(STORE_VERSION, &bytes));
        let path = self.object_path(id);
        if !path.exists() {
            self.write_atomic(&path, &bytes)?;
        }
        self.write_atomic(
            &self.ref_path(&manifest.name)?,
            format!("{id}\n").as_bytes(),
        )?;
        Ok(id)
    }

    /// Resolves a ref name to its manifest.
    fn manifest(&self, name: &str) -> Result<(ObjectId, Manifest), StoreError> {
        let text = std::fs::read_to_string(self.ref_path(name)?)
            .map_err(|_| StoreError::NotFound(name.to_string()))?;
        let id = ObjectId(
            u64::from_str_radix(text.trim(), 16)
                .map_err(|_| StoreError::Corrupt(format!("ref `{name}` is not a hex id")))?,
        );
        let bytes = std::fs::read(self.object_path(id))
            .map_err(|_| StoreError::Corrupt(format!("ref `{name}` points at missing {id}")))?;
        Ok((id, Manifest::from_bytes(&bytes, id)?))
    }

    /// Stores a pinball under `name`: each memory-image and lazy page
    /// becomes a deduplicated blob, the page-stripped remainder (metadata,
    /// registers, syscall log, race log) becomes the skeleton blob.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failures.
    pub fn put_pinball(&self, name: &str, pinball: &Pinball) -> Result<ObjectId, StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "put_pinball", name),
            None => elfie_trace::Span::disabled(),
        };
        let mut image_pages = Vec::with_capacity(pinball.image.pages.len());
        let mut lazy_pages = Vec::with_capacity(pinball.lazy_pages.len());
        let mut logical = 0u64;
        let mut stored = PagePuts::new();
        for (table, out) in [
            (&pinball.image.pages, &mut image_pages),
            (&pinball.lazy_pages, &mut lazy_pages),
        ] {
            for (&addr, page) in table.iter() {
                logical += page.data.len() as u64;
                out.push(PageRef {
                    addr,
                    perm: page.perm,
                    blob: self.put_page(&mut stored, &page.data)?,
                });
            }
        }
        let skeleton = Pinball {
            meta: pinball.meta.clone(),
            region: pinball.region.clone(),
            image: MemoryImage::new(),
            threads: pinball.threads.clone(),
            races: pinball.races.clone(),
            lazy_pages: BTreeMap::new(),
        }
        .to_bytes();
        logical += skeleton.len() as u64;
        let skeleton_len = skeleton.len() as u64;
        let skeleton_blob = self.put_blob(&skeleton)?;
        span.arg("logical_bytes", logical);
        span.arg("pages", (image_pages.len() + lazy_pages.len()) as u64);
        span.arg("blobs", stored.len() as u64 + 1);
        self.put_manifest(&Manifest {
            kind: ObjectKind::Pinball,
            name: name.to_string(),
            logical,
            skeleton: Some((skeleton_blob, skeleton_len)),
            image_pages,
            lazy_pages,
            chunks: Vec::new(),
            parent: None,
        })
    }

    /// Loads the pinball stored under `name`, bit-identical to what
    /// [`Store::put_pinball`] was given.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] on integrity violations.
    pub fn get_pinball(&self, name: &str) -> Result<Pinball, StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "get_pinball", name),
            None => elfie_trace::Span::disabled(),
        };
        let (_, m) = self.manifest(name)?;
        if m.kind != ObjectKind::Pinball {
            return Err(StoreError::Corrupt(format!(
                "`{name}` is a {} object, not a pinball",
                m.kind
            )));
        }
        let (skel_hash, _) = m.skeleton.ok_or_else(|| {
            StoreError::Corrupt(format!("pinball manifest `{name}` lacks a skeleton"))
        })?;
        let mut reads = PageReads::default();
        let mut read = || -> Result<Pinball, StoreError> {
            let mut pinball = Pinball::from_bytes(&self.get_blob(skel_hash)?)?;
            reads.read_into(self, &m.image_pages, &mut pinball.image.pages)?;
            reads.read_into(self, &m.lazy_pages, &mut pinball.lazy_pages)?;
            Ok(pinball)
        };
        let pinball = read().map_err(|e| {
            self.drop_corrupt_blobs(&m);
            e
        })?;
        span.arg("pages", (m.image_pages.len() + m.lazy_pages.len()) as u64);
        span.arg("blobs_read", reads.files + 1);
        Ok(pinball)
    }

    /// Opens the pinball stored under `name` *lazily*: only the skeleton
    /// (metadata, registers, syscall log, race log) is read now; page
    /// payloads stay on disk and stream in through the returned handle's
    /// [`elfie_pinball::PageSource`] implementation on first touch. A replay that visits
    /// 1% of a fat checkpoint's pages pays 1% of its page I/O.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] on integrity violations in the skeleton.
    pub fn get_pinball_lazy(&self, name: &str) -> Result<LazyPinball, StoreError> {
        let (_, m) = self.manifest(name)?;
        if m.kind != ObjectKind::Pinball {
            return Err(StoreError::Corrupt(format!(
                "`{name}` is a {} object, not a pinball",
                m.kind
            )));
        }
        let (skel_hash, _) = m.skeleton.ok_or_else(|| {
            StoreError::Corrupt(format!("pinball manifest `{name}` lacks a skeleton"))
        })?;
        let skeleton = Pinball::from_bytes(&self.get_blob(skel_hash)?)?;
        let pages: BTreeMap<u64, PageRef> = m
            .image_pages
            .iter()
            .chain(m.lazy_pages.iter())
            .map(|p| (p.addr, *p))
            .collect();
        Ok(LazyPinball {
            skeleton,
            pages,
            fetched: Arc::default(),
            store: self.clone(),
        })
    }

    /// Stores a byte stream under `name` as 4 KiB chunks.
    fn put_stream(
        &self,
        kind: ObjectKind,
        name: &str,
        bytes: &[u8],
    ) -> Result<ObjectId, StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "put_stream", name),
            None => elfie_trace::Span::disabled(),
        };
        span.arg("bytes", bytes.len() as u64);
        let mut chunks = Vec::with_capacity(bytes.len().div_ceil(CHUNK_SIZE));
        for chunk in bytes.chunks(CHUNK_SIZE.max(1)) {
            chunks.push(ChunkRef {
                blob: self.put_blob(chunk)?,
                len: chunk.len() as u64,
            });
        }
        span.arg("blobs", chunks.len() as u64);
        self.put_manifest(&Manifest {
            kind,
            name: name.to_string(),
            logical: bytes.len() as u64,
            skeleton: None,
            image_pages: Vec::new(),
            lazy_pages: Vec::new(),
            chunks,
            parent: None,
        })
    }

    /// Loads a byte stream stored by [`Store::put_elfie`]/[`Store::put_raw`].
    fn get_stream(&self, name: &str) -> Result<(ObjectKind, Vec<u8>), StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "get_stream", name),
            None => elfie_trace::Span::disabled(),
        };
        let (_, m) = self.manifest(name)?;
        if m.kind == ObjectKind::Pinball {
            return Err(StoreError::Corrupt(format!(
                "`{name}` is a pinball, not a byte stream"
            )));
        }
        let read = || {
            let mut out = Vec::with_capacity(m.logical as usize);
            for c in &m.chunks {
                let data = self.get_blob(c.blob)?;
                if data.len() as u64 != c.len {
                    return Err(StoreError::Corrupt(format!(
                        "chunk of `{name}` has length {} but manifest says {}",
                        data.len(),
                        c.len
                    )));
                }
                out.extend_from_slice(&data);
            }
            Ok((m.kind, out))
        };
        let stream = read().map_err(|e| {
            self.drop_corrupt_blobs(&m);
            e
        })?;
        span.arg("pages", m.chunks.len() as u64);
        span.arg("blobs_read", m.chunks.len() as u64);
        Ok(stream)
    }

    /// Stores an ELFie image (or any file) under `name`, chunked and
    /// deduplicated at page granularity.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failures.
    pub fn put_elfie(&self, name: &str, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        self.put_stream(ObjectKind::Elfie, name, bytes)
    }

    /// Loads the ELFie image stored under `name`, bit-identical to what
    /// [`Store::put_elfie`] was given.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] on integrity violations.
    pub fn get_elfie(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_stream(name)?.1)
    }

    /// Stores an uninterpreted byte stream (e.g. a serialised BBV
    /// profile) under `name`.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failures.
    pub fn put_raw(&self, name: &str, bytes: &[u8]) -> Result<ObjectId, StoreError> {
        self.put_stream(ObjectKind::Raw, name, bytes)
    }

    /// Loads a byte stream stored under `name`.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] on integrity violations.
    pub fn get_raw(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(self.get_stream(name)?.1)
    }

    /// Loads a manifest by object id (not through a ref), verifying its
    /// content hash. Used to walk snapshot parent chains.
    fn manifest_by_id(&self, id: ObjectId) -> Result<Manifest, StoreError> {
        let bytes = std::fs::read(self.object_path(id))
            .map_err(|_| StoreError::NotFound(format!("manifest {id}")))?;
        Manifest::from_bytes(&bytes, id)
    }

    /// Stores an interval snapshot under `name`, chained to `parent` (the
    /// previous snapshot's object id, or `None` for the first in the
    /// chain). The non-memory state becomes one blob; each delta page
    /// becomes a content-addressed blob, so pages repeated across a chain
    /// — or identical to another workload's — cost nothing new.
    ///
    /// # Errors
    /// Returns [`StoreError`] on filesystem failures.
    pub fn put_snapshot(
        &self,
        name: &str,
        snapshot: &Snapshot,
        parent: Option<ObjectId>,
    ) -> Result<ObjectId, StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "put_snapshot", name),
            None => elfie_trace::Span::disabled(),
        };
        let mut image_pages = Vec::with_capacity(snapshot.delta.len());
        let mut logical = 0u64;
        let mut stored = PagePuts::new();
        for (&addr, page) in &snapshot.delta {
            logical += page.data.len() as u64;
            image_pages.push(PageRef {
                addr,
                perm: page.perm,
                blob: self.put_page(&mut stored, &page.data)?,
            });
        }
        let state = snapshot.state_to_bytes();
        logical += state.len() as u64;
        let state_len = state.len() as u64;
        let state_blob = self.put_blob(&state)?;
        span.arg("logical_bytes", logical);
        span.arg("delta_pages", image_pages.len() as u64);
        span.arg("blobs", stored.len() as u64 + 1);
        self.put_manifest(&Manifest {
            kind: ObjectKind::Snapshot,
            name: name.to_string(),
            logical,
            skeleton: Some((state_blob, state_len)),
            image_pages,
            lazy_pages: Vec::new(),
            chunks: Vec::new(),
            parent,
        })
    }

    /// Loads the snapshot stored under `name`, returning it together with
    /// its parent's object id (the rest of the chain), bit-identical to
    /// what [`Store::put_snapshot`] was given.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] on integrity violations.
    pub fn get_snapshot(&self, name: &str) -> Result<(Snapshot, Option<ObjectId>), StoreError> {
        let mut span = match &self.tracer {
            Some(t) => t.span_labeled("store", "get_snapshot", name),
            None => elfie_trace::Span::disabled(),
        };
        let (_, m) = self.manifest(name)?;
        if m.kind != ObjectKind::Snapshot {
            return Err(StoreError::Corrupt(format!(
                "`{name}` is a {} object, not a snapshot",
                m.kind
            )));
        }
        let (state_hash, _) = m.skeleton.ok_or_else(|| {
            StoreError::Corrupt(format!("snapshot manifest `{name}` lacks a state blob"))
        })?;
        let mut snapshot = Snapshot::from_state_bytes(&self.get_blob(state_hash)?)?;
        let mut reads = PageReads::default();
        reads.read_into(self, &m.image_pages, &mut snapshot.delta)?;
        span.arg("pages", m.image_pages.len() as u64);
        span.arg("blobs_read", reads.files + 1);
        Ok((snapshot, m.parent))
    }

    /// Light-weight snapshot inspection: decodes the manifest and the
    /// state blob only — no delta pages are fetched — returning the
    /// snapshot's metadata, its parent's object id, and the number of
    /// delta pages recorded in the manifest. This is what `snapshot ls`
    /// uses to render a chain without materialising it.
    ///
    /// # Errors
    /// Returns [`StoreError::NotFound`] for unknown names and
    /// [`StoreError::Corrupt`] when `name` is not a snapshot or fails
    /// integrity checks.
    pub fn snapshot_info(
        &self,
        name: &str,
    ) -> Result<(SnapshotMeta, Option<ObjectId>, u64), StoreError> {
        let (_, m) = self.manifest(name)?;
        if m.kind != ObjectKind::Snapshot {
            return Err(StoreError::Corrupt(format!(
                "`{name}` is a {} object, not a snapshot",
                m.kind
            )));
        }
        let (state_hash, _) = m.skeleton.ok_or_else(|| {
            StoreError::Corrupt(format!("snapshot manifest `{name}` lacks a state blob"))
        })?;
        let snapshot = Snapshot::from_state_bytes(&self.get_blob(state_hash)?)?;
        Ok((snapshot.meta, m.parent, m.image_pages.len() as u64))
    }

    /// True when an object named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.ref_path(name).map(|p| p.exists()).unwrap_or(false)
    }

    /// Drops the ref `name`. The manifest and blobs stay on disk until
    /// [`Store::gc`] sweeps whatever became unreachable. Returns whether
    /// the ref existed.
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] on filesystem failures.
    pub fn remove(&self, name: &str) -> Result<bool, StoreError> {
        let path = self.ref_path(name)?;
        if !path.exists() {
            return Ok(false);
        }
        std::fs::remove_file(path)?;
        Ok(true)
    }

    /// Lists every live object (ref), sorted by name.
    ///
    /// # Errors
    /// Returns [`StoreError`] if a ref or manifest cannot be read.
    pub fn list(&self) -> Result<Vec<RefEntry>, StoreError> {
        let mut out = Vec::new();
        for name in self.ref_names()? {
            let (id, m) = self.manifest(&name)?;
            out.push(RefEntry {
                name,
                kind: m.kind,
                id,
                logical_bytes: m.logical,
                blobs: m.blob_refs().count(),
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn ref_names(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.root.join("refs"))? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    /// Every blob file in the store with its hash, sorted by hash. Lists
    /// names only: a caller that needs a file's size stats it itself.
    fn all_blob_files(&self) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        let mut out = Vec::new();
        let blobs = self.root.join("blobs");
        for shard in std::fs::read_dir(&blobs)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let entry = entry?;
                let file_name = entry.file_name().to_string_lossy().into_owned();
                let Some(hex) = file_name.strip_suffix(".blob") else {
                    continue;
                };
                let Ok(hash) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                out.push((hash, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    fn all_manifest_files(&self) -> Result<Vec<(ObjectId, PathBuf)>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.root.join("objects"))? {
            let entry = entry?;
            let file_name = entry.file_name().to_string_lossy().into_owned();
            let Some(hex) = file_name.strip_suffix(".mf") else {
                continue;
            };
            let Ok(id) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            out.push((ObjectId(id), entry.path()));
        }
        out.sort();
        Ok(out)
    }

    /// Checks every ref, manifest and blob in the store: manifest ids must
    /// match their content, every referenced blob must exist, and every
    /// blob must decompress to bytes whose hash matches its name — so a
    /// flipped byte anywhere in the repository goes unnoticed only if it
    /// leaves a 64-bit content hash unchanged (probability about 2⁻⁶⁴).
    ///
    /// # Errors
    /// Returns [`StoreError::Io`] only on filesystem failures; integrity
    /// violations are collected in the report instead.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        let blobs = self.all_blob_files()?;
        let on_disk: BTreeSet<u64> = blobs.iter().map(|&(h, _)| h).collect();
        for (hash, path) in &blobs {
            report.blobs_checked += 1;
            let check = std::fs::read(path)
                .map_err(StoreError::from)
                .and_then(|raw| decode_blob(&raw, *hash));
            if let Err(e) = check {
                report.errors.push(format!("blob {hash:016x}: {e}"));
            }
        }
        let manifest_files = self.all_manifest_files()?;
        let manifest_ids: BTreeSet<ObjectId> = manifest_files.iter().map(|&(id, _)| id).collect();
        for (id, path) in manifest_files {
            report.objects_checked += 1;
            let check = || -> Result<(), StoreError> {
                let m = Manifest::from_bytes(&std::fs::read(&path)?, id)?;
                for blob in m.blob_refs() {
                    if !on_disk.contains(&blob) {
                        return Err(StoreError::Corrupt(format!(
                            "references missing blob {blob:016x}"
                        )));
                    }
                }
                if let Some(parent) = m.parent {
                    if !manifest_ids.contains(&parent) {
                        return Err(StoreError::Corrupt(format!(
                            "references missing parent manifest {parent}"
                        )));
                    }
                }
                Ok(())
            };
            if let Err(e) = check() {
                report.errors.push(format!("object {id}: {e}"));
            }
        }
        for name in self.ref_names()? {
            report.refs_checked += 1;
            if let Err(e) = self.manifest(&name) {
                report.errors.push(format!("ref {name}: {e}"));
            }
        }
        Ok(report)
    }

    /// Mark-and-sweep garbage collection: everything reachable from a ref
    /// (its manifest, every blob that manifest references, and — for
    /// chained snapshot manifests — the whole parent-manifest chain) is
    /// live; unreachable manifests and blobs are deleted. A referenced
    /// blob is therefore never collected, and a snapshot chain's ancestor
    /// survives as long as any descendant is referenced, even when the
    /// ancestor's own ref was removed.
    ///
    /// # Errors
    /// Returns [`StoreError`] if a live ref, manifest or parent manifest
    /// cannot be read (gc refuses to sweep when it cannot compute the
    /// full live set).
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        // Mark: seed the worklist with every ref's manifest, then follow
        // parent links transitively.
        let mut live_manifests = BTreeSet::new();
        let mut live_blobs = BTreeSet::new();
        let mut queue: Vec<(ObjectId, Manifest)> = Vec::new();
        for name in self.ref_names()? {
            queue.push(self.manifest(&name)?);
        }
        while let Some((id, m)) = queue.pop() {
            if !live_manifests.insert(id) {
                continue;
            }
            live_blobs.extend(m.blob_refs());
            if let Some(parent) = m.parent {
                queue.push((parent, self.manifest_by_id(parent)?));
            }
        }
        // Sweep.
        let mut report = GcReport::default();
        for (id, path) in self.all_manifest_files()? {
            if !live_manifests.contains(&id) {
                report.bytes_freed += remove_sized(&path)?;
                report.manifests_removed += 1;
            }
        }
        for (hash, path) in self.all_blob_files()? {
            if !live_blobs.contains(&hash) {
                report.bytes_freed += remove_sized(&path)?;
                report.blobs_removed += 1;
            }
        }
        Ok(report)
    }

    /// Space accounting: logical bytes (naive storage), unique bytes
    /// (after dedup) and physical bytes (after compression), over the live
    /// objects and all blobs on disk.
    ///
    /// # Errors
    /// Returns [`StoreError`] if a ref, manifest or blob header cannot be
    /// read.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut s = StoreStats::default();
        for name in self.ref_names()? {
            let (_, m) = self.manifest(&name)?;
            s.objects += 1;
            s.logical_bytes += m.logical;
        }
        for (_, path) in self.all_blob_files()? {
            s.blobs += 1;
            s.physical_bytes += std::fs::metadata(&path)?.len();
            s.unique_bytes += blob_raw_len(&path)?;
        }
        Ok(s)
    }
}

/// A pinball opened with [`Store::get_pinball_lazy`]: the skeleton is in
/// memory, page payloads stream in from the store on demand.
///
/// Hand the handle's [`skeleton`](LazyPinball::skeleton) to the replayer
/// and the handle itself as its [`elfie_pinball::PageSource`]; an
/// unmapped-page fault then pulls at most one blob off disk, interned
/// through the shared [`PageArena`] so concurrent workers faulting the
/// same page share one allocation. A fault on a page whose blob an earlier
/// fault read, and whose payload is still alive, reads nothing: the
/// handle and its clones share a map from blob hash to a weak reference
/// to the payload. The map never keeps a payload alive by itself, so the
/// handle's memory, like its I/O, follows the pages the replay touches.
#[derive(Debug, Clone)]
pub struct LazyPinball {
    /// The page-stripped pinball: empty memory image, everything else
    /// intact. Boot the replay machine from this.
    pub skeleton: Pinball,
    pages: BTreeMap<u64, PageRef>,
    fetched: Arc<Mutex<HashMap<u64, Weak<[u8; PAGE_BYTES]>>>>,
    store: Store,
}

impl LazyPinball {
    /// Number of pages available to fault in.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn fetched(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Weak<[u8; PAGE_BYTES]>>> {
        self.fetched.lock().expect("lazy fetch map lock")
    }
}

impl elfie_pinball::PageSource for LazyPinball {
    /// Fetches the page at `base` from the store, or `None` when the
    /// checkpoint has no such page (or its blob fails to load — the
    /// replayer then reports the same fault an eager load would have).
    fn fetch_page(&self, base: u64) -> Option<PageRecord> {
        let p = self.pages.get(&base)?;
        let alive = self.fetched().get(&p.blob).and_then(Weak::upgrade);
        let data = match alive {
            Some(data) => data,
            None => {
                let data = self.store.get_page(p.blob).ok()?;
                self.fetched().insert(p.blob, Arc::downgrade(&data));
                if let Some(tracer) = &self.store.tracer {
                    tracer.instant("store", "lazy_fetch", &[("page", base)]);
                }
                data
            }
        };
        Some(PageRecord::from_data(p.perm, data))
    }
}

/// Decodes the blob file stored as `hash` into its uncompressed payload,
/// checking that the payload hashes to `hash` under the hash the file's
/// header version names.
fn decode_blob(raw: &[u8], hash: u64) -> Result<Vec<u8>, StoreError> {
    let (mut r, version) = Reader::with_any_header(raw, BLOB_MAGIC, READ_VERSIONS)?;
    let tag = r.u8()?;
    let codec = Codec::from_tag(tag).ok_or(StoreError::Codec(CodecError::UnknownCodec(tag)))?;
    let raw_len = r.u64()? as usize;
    let payload = r.bytes()?;
    if !r.is_exhausted() {
        return Err(StoreError::Corrupt("trailing blob bytes".into()));
    }
    let data = codec::decompress(codec, &payload, raw_len)?;
    if content_hash(version, &data) != hash {
        return Err(StoreError::Corrupt(format!(
            "blob {hash:016x} content hash mismatch"
        )));
    }
    Ok(data)
}

/// Removes the file at `path`, returning the bytes it held.
fn remove_sized(path: &Path) -> Result<u64, StoreError> {
    let size = std::fs::metadata(path)?.len();
    std::fs::remove_file(path)?;
    Ok(size)
}

/// Length of a blob file's header: magic, version, codec tag and the
/// uncompressed length.
const BLOB_HEADER_LEN: usize = 4 + 4 + 1 + 8;

/// Reads just the uncompressed length from the blob file at `path`,
/// without reading its payload.
fn blob_raw_len(path: &Path) -> Result<u64, StoreError> {
    let mut header = [0u8; BLOB_HEADER_LEN];
    std::fs::File::open(path)?.read_exact(&mut header)?;
    let (mut r, _) = Reader::with_any_header(&header, BLOB_MAGIC, READ_VERSIONS)?;
    let _codec = r.u8()?;
    Ok(r.u64()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("elfie-store-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn raw_stream_roundtrip_and_dedup() {
        let dir = tmp("raw");
        let store = Store::open(&dir).unwrap();
        // Two objects sharing three of four chunks.
        let mut a = vec![0u8; 4 * CHUNK_SIZE];
        a[CHUNK_SIZE] = 1;
        let mut b = a.clone();
        b[3 * CHUNK_SIZE] = 2;
        store.put_raw("a", &a).unwrap();
        store.put_raw("b", &b).unwrap();
        assert_eq!(store.get_raw("a").unwrap(), a);
        assert_eq!(store.get_raw("b").unwrap(), b);
        let s = store.stats().unwrap();
        assert_eq!(s.objects, 2);
        assert_eq!(s.logical_bytes, 8 * CHUNK_SIZE as u64);
        assert!(s.unique_bytes < s.logical_bytes, "chunks dedup");
        assert!(s.physical_bytes < s.unique_bytes, "zero pages compress");
        assert!(s.dedup_ratio() > 1.0 && s.compression_ratio() > 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_puts_of_shared_content_all_land() {
        // Regression test: tmp files used to be named by content hash, so
        // two threads deduplicating the same chunk raced on one tmp path
        // and the loser's rename failed — silently dropping its object.
        // Every name here must survive, even though each round's payload
        // is contended by every thread.
        let dir = tmp("race");
        let store = Store::open(&dir).unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..40u32 {
                        let payload = vec![i as u8; CHUNK_SIZE + i as usize];
                        store.put_raw(&format!("obj-{t}-{i}"), &payload).unwrap();
                    }
                });
            }
        });
        for t in 0..8 {
            for i in 0..40u32 {
                let payload = vec![i as u8; CHUNK_SIZE + i as usize];
                assert_eq!(
                    store.get_raw(&format!("obj-{t}-{i}")).unwrap(),
                    payload,
                    "obj-{t}-{i} lost or corrupted"
                );
            }
        }
        assert!(store.verify().unwrap().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchunked_tail_preserved() {
        let dir = tmp("tail");
        let store = Store::open(&dir).unwrap();
        let data: Vec<u8> = (0..CHUNK_SIZE + 37).map(|i| i as u8).collect();
        store.put_elfie("tail", &data).unwrap();
        assert_eq!(store.get_elfie("tail").unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_object_reports_not_found() {
        let dir = tmp("missing");
        let store = Store::open(&dir).unwrap();
        assert!(matches!(
            store.get_raw("nope"),
            Err(StoreError::NotFound(_))
        ));
        assert!(!store.contains("nope"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_confusion_rejected() {
        let dir = tmp("kind");
        let store = Store::open(&dir).unwrap();
        store.put_elfie("stream", b"not a pinball").unwrap();
        assert!(matches!(
            store.get_pinball("stream"),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ref_names_are_sanitised() {
        let dir = tmp("names");
        let store = Store::open(&dir).unwrap();
        assert!(store.put_raw("../escape", b"x").is_err());
        assert!(store.put_raw("a/b", b"x").is_err());
        assert!(store.put_raw("", b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwriting_a_ref_and_gc_reclaims_old_blobs() {
        let dir = tmp("overwrite");
        let store = Store::open(&dir).unwrap();
        store.put_raw("x", &[1u8; 1000]).unwrap();
        store.put_raw("x", &[2u8; 1000]).unwrap();
        assert_eq!(store.get_raw("x").unwrap(), vec![2u8; 1000]);
        let sizes = |store: &Store| -> BTreeMap<PathBuf, u64> {
            let manifests = store.all_manifest_files().unwrap().into_iter();
            let blobs = store.all_blob_files().unwrap().into_iter();
            manifests
                .map(|(_, path)| path)
                .chain(blobs.map(|(_, path)| path))
                .map(|path| (path.clone(), std::fs::metadata(&path).unwrap().len()))
                .collect()
        };
        let before = sizes(&store);
        let report = store.gc().unwrap();
        assert_eq!(report.manifests_removed, 1, "old manifest swept");
        assert_eq!(report.blobs_removed, 1, "old blob swept");
        let after = sizes(&store);
        let removed: u64 = before
            .iter()
            .filter(|(path, _)| !after.contains_key(*path))
            .map(|(_, size)| size)
            .sum();
        assert!(removed > 0);
        assert_eq!(
            report.bytes_freed, removed,
            "freed bytes are the swept files"
        );
        assert_eq!(store.get_raw("x").unwrap(), vec![2u8; 1000]);
        assert!(store.verify().unwrap().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn snap(slice: u64, seeds: &[(u64, u8)]) -> Snapshot {
        let mut s = Snapshot {
            meta: elfie_pinball::SnapshotMeta {
                slice_index: slice,
                interval: 1000,
                global_icount: slice * 1000,
                ..Default::default()
            },
            ..Default::default()
        };
        for &(addr, fill) in seeds {
            s.delta
                .insert(addr, PageRecord::new(0b011, &[fill; CHUNK_SIZE]));
        }
        s
    }

    #[test]
    fn snapshot_roundtrip_with_parent_chain() {
        let dir = tmp("snap");
        let store = Store::open(&dir).unwrap();
        let a = snap(1, &[(0x1000, 7)]);
        let b = snap(2, &[(0x1000, 7), (0x2000, 9)]);
        let ida = store.put_snapshot("s1", &a, None).unwrap();
        let idb = store.put_snapshot("s2", &b, Some(ida)).unwrap();
        assert_ne!(ida, idb);
        let (back_a, pa) = store.get_snapshot("s1").unwrap();
        let (back_b, pb) = store.get_snapshot("s2").unwrap();
        assert_eq!(back_a, a);
        assert_eq!(back_b, b);
        assert_eq!(pa, None);
        assert_eq!(pb, Some(ida));
        // The repeated 0x1000 page dedups to one blob.
        let s = store.stats().unwrap();
        assert!(s.dedup_ratio() > 1.0, "chain pages dedup");
        assert!(store.verify().unwrap().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_follows_snapshot_parent_chains() {
        // Regression test: gc used to mark only per-ref manifests, so
        // removing an ancestor's ref while a descendant stayed referenced
        // collected the ancestor manifest (and any blobs only it named) —
        // breaking the chain `verify` and any later chain walk.
        let dir = tmp("gc-chain");
        let store = Store::open(&dir).unwrap();
        let s1 = snap(1, &[(0x1000, 1)]);
        let s2 = snap(2, &[(0x2000, 2)]);
        let s3 = snap(3, &[(0x3000, 3)]);
        let id1 = store.put_snapshot("c1", &s1, None).unwrap();
        let id2 = store.put_snapshot("c2", &s2, Some(id1)).unwrap();
        let _id3 = store.put_snapshot("c3", &s3, Some(id2)).unwrap();
        // Drop the two ancestors' refs; only the tip stays referenced.
        store.remove("c1").unwrap();
        store.remove("c2").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(
            report.manifests_removed, 0,
            "ancestors of a live chain tip must survive gc"
        );
        assert_eq!(report.blobs_removed, 0, "ancestor-only blobs must survive");
        assert!(
            store.verify().unwrap().is_ok(),
            "chain intact after gc: {:?}",
            store.verify().unwrap().errors
        );
        // Walk the chain by ids to prove the ancestors are still loadable.
        let (_, parent) = store.get_snapshot("c3").unwrap();
        assert_eq!(parent, Some(id2));
        // Once the tip ref goes too, the whole chain is garbage.
        store.remove("c3").unwrap();
        let report = store.gc().unwrap();
        assert_eq!(report.manifests_removed, 3, "whole chain swept");
        assert!(report.blobs_removed >= 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_reports_live_objects() {
        let dir = tmp("list");
        let store = Store::open(&dir).unwrap();
        store.put_raw("beta", &[0u8; 100]).unwrap();
        store.put_elfie("alpha", &[1u8; 5000]).unwrap();
        let ls = store.list().unwrap();
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].name, "alpha");
        assert_eq!(ls[0].kind, ObjectKind::Elfie);
        assert_eq!(ls[0].logical_bytes, 5000);
        assert_eq!(ls[0].blobs, 2);
        assert_eq!(ls[1].name, "beta");
        assert_eq!(ls[1].kind, ObjectKind::Raw);
        std::fs::remove_dir_all(&dir).ok();
    }
}
