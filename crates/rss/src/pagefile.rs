//! Page files: the persistent byte store beneath the buffer pool.
//!
//! Every page the RSS manages — segment data pages, B-tree node pages,
//! temporary-list pages — is a 4 KB frame addressed by a
//! [`PageKey`]. This module supplies the storage
//! for those frames:
//!
//! * [`PageBackend`] — the trait the buffer pool reads misses from and
//!   writes dirty frames back to.
//! * [`MemBackend`] — an in-memory backend for tests and throwaway
//!   databases (the default for [`Storage::new`](crate::Storage::new)).
//! * [`DirBackend`] — a directory of real page files, one file per
//!   [`FileId`] (`seg-N.pages`, `idx-N.pages`, `tmp-N.pages`), each a flat
//!   array of 4 KB frames.
//!
//! # Page stamp (format v2)
//!
//! Bytes 8..16 of every page header are reserved for the recovery stamp:
//! a 32-bit page digest at bytes 8..12 (computed over the whole page with
//! the digest field zeroed) and a u32 LSN at bytes 12..16, bumped on every
//! write. [`verify_page`] checks the stamp on every read; a mismatch is
//! torn-write / bit-rot corruption and surfaces as [`RssError::Corrupt`]
//! rather than a panic. An all-zero page verifies clean — it is a
//! never-written gap in a sparse file, and the digest of zeros is not
//! zero, so real data can't masquerade as a gap.
//!
//! The digest is a *format*: page files written with one kernel do not
//! verify under another. It reads the page as 512 little-endian `u64`
//! words, 64-byte line by line, word `i` of a line going to lane `i` of
//! eight independent multiply-xorshift lanes (the lanes share no
//! state, so the multiplies of one line overlap in the pipeline — a 4 KB
//! page costs about what copying it does). The lanes are then folded
//! through the same step into one word whose low half is the digest. A
//! lane step is a bijection of the lane for a fixed word and of the word
//! for a fixed lane, so a corruption confined to one 8-byte word always
//! changes its lane; anything wider is missed with probability 2⁻³².
//! `storage.meta` names the stamp version (`sysr-storage v2`); the golden
//! vector in this module's tests pins the kernel.

use crate::buffer::{FileId, PageKey};
use crate::error::{RssError, RssResult};
use crate::page::{PageImage, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Byte offset of the page digest in the page header.
const CHECKSUM_OFFSET: usize = 8;
/// Byte offset of the LSN in the page header.
const LSN_OFFSET: usize = 12;

/// Independent lanes of the digest kernel: one per `u64` word of a
/// 64-byte line.
const LANES: usize = 8;
/// Bytes consumed per kernel round (one word per lane).
const LINE_BYTES: usize = LANES * 8;
/// Per-lane initial states (distinct, so swapping two words of a line
/// changes the digest).
const LANE_SEEDS: [u64; LANES] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
];
/// The lane multiplier (odd, so multiplication is a bijection mod 2⁶⁴).
const LANE_MUL: u64 = 0xD6E8_FEB8_6659_FD93;

/// One lane step: absorb `word`, multiply, and fold the high half down
/// (multiplication alone never carries a high-bit difference downward).
fn lane_step(lane: u64, word: u64) -> u64 {
    let x = (lane ^ word).wrapping_mul(LANE_MUL);
    x ^ (x >> 32)
}

/// Absorb one 64-byte line: word `i` into lane `i`.
fn absorb_line(lanes: &mut [u64; LANES], line: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(line.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        *lane = lane_step(*lane, u64::from_le_bytes(le));
    }
}

/// The v2 page digest over `bytes` with the digest field itself zeroed.
fn page_digest(bytes: &[u8; PAGE_SIZE]) -> u32 {
    let mut lanes = LANE_SEEDS;
    // The first line holds the digest field: absorb a copy with it zeroed.
    let (head, body) = bytes.split_at(LINE_BYTES);
    let mut first = [0u8; LINE_BYTES];
    first.copy_from_slice(head);
    first[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].fill(0);
    absorb_line(&mut lanes, &first);
    for line in body.chunks_exact(LINE_BYTES) {
        absorb_line(&mut lanes, line);
    }
    // `lane_step` ends by xoring the high half into the low one, so the
    // low 32 bits of the fold carry all 64.
    lanes.iter().fold(0, |acc, &lane| lane_step(acc, lane)) as u32
}

/// Stamp `bytes` with `lsn` and its digest, in place. Call on every page
/// image before it goes to a backend.
pub fn stamp_page(bytes: &mut [u8; PAGE_SIZE], lsn: u32) {
    bytes[LSN_OFFSET..LSN_OFFSET + 4].copy_from_slice(&lsn.to_le_bytes());
    let digest = page_digest(bytes);
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&digest.to_le_bytes());
}

/// The LSN a page image was stamped with.
pub fn page_lsn(bytes: &[u8; PAGE_SIZE]) -> u32 {
    let mut lsn = [0u8; 4];
    lsn.copy_from_slice(&bytes[LSN_OFFSET..LSN_OFFSET + 4]);
    u32::from_le_bytes(lsn)
}

/// Verify the recovery stamp of a page image read from a backend. A
/// matching digest passes; failing that, only an all-zero page
/// (never-written gap) does — so the zero scan runs on the error path
/// and on gaps, never on a good page.
pub fn verify_page(bytes: &[u8; PAGE_SIZE], key: PageKey) -> RssResult<()> {
    let mut stored = [0u8; 4];
    stored.copy_from_slice(&bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4]);
    let stored = u32::from_le_bytes(stored);
    let computed = page_digest(bytes);
    if stored == computed || bytes.iter().all(|&b| b == 0) {
        return Ok(());
    }
    Err(RssError::Corrupt(format!(
        "checksum mismatch on {key:?}: stored {stored:#010x}, computed {computed:#010x}"
    )))
}

/// Persistent storage for 4 KB page images, addressed by [`PageKey`].
pub trait PageBackend: std::fmt::Debug {
    /// Read page `key` into `buf`. Reading a page beyond the end of its
    /// file yields all zeros (a sparse gap), not an error.
    fn read_page(&mut self, key: PageKey, buf: &mut [u8; PAGE_SIZE]) -> RssResult<()>;

    /// Write page `key`, extending the file as needed. The image is
    /// shared: a store in memory may keep the handle instead of copying
    /// the bytes, since whoever mutates the image later copies it first.
    fn write_page(&mut self, key: PageKey, image: &PageImage) -> RssResult<()>;

    /// Number of pages stored for `file` (0 if the file does not exist).
    fn page_count(&mut self, file: FileId) -> RssResult<u32>;

    /// Every file this backend holds pages for.
    fn files(&mut self) -> RssResult<Vec<FileId>>;

    /// Drop `file` and every page stored for it (temp-list teardown).
    /// Removing a file that does not exist is not an error.
    fn remove_file(&mut self, file: FileId) -> RssResult<()>;

    /// Flush OS buffers to stable storage (no-op for memory backends).
    fn sync(&mut self) -> RssResult<()>;

    /// The directory backing this store, if it is file-based.
    fn dir(&self) -> Option<&Path> {
        None
    }
}

/// In-memory page store: the default backend, and the reference
/// implementation for tests. A page image that fills its page — every
/// segment page does, its slot directory ends at the last byte — is kept
/// by handle, so a segment page and its stored copy are one allocation
/// until the segment next mutates it. Any other image is stored like a
/// sparse file stores it, without the zero tail it can restore (a
/// half-full B-tree node costs about half a page, a never-written gap
/// nothing). Either way a read returns byte for byte the image that was
/// written.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: HashMap<FileId, Vec<Arc<[u8]>>>,
}

impl MemBackend {
    pub fn new() -> Self {
        MemBackend::default()
    }
}

impl PageBackend for MemBackend {
    fn read_page(&mut self, key: PageKey, buf: &mut [u8; PAGE_SIZE]) -> RssResult<()> {
        let stored = self
            .files
            .get(&key.file)
            .and_then(|pages| pages.get(key.page as usize))
            .map_or(&[][..], |page| &page[..]);
        let Some((head, tail)) = buf.split_at_mut_checked(stored.len()) else {
            return Err(RssError::Corrupt(format!("stored page {key:?} exceeds a page")));
        };
        head.copy_from_slice(stored);
        tail.fill(0);
        Ok(())
    }

    fn write_page(&mut self, key: PageKey, image: &PageImage) -> RssResult<()> {
        // Up to the last 8-byte word holding a nonzero byte.
        let used = image.chunks_exact(8).rposition(|w| *w != [0; 8]).map_or(0, |i| (i + 1) * 8);
        let pages = self.files.entry(key.file).or_default();
        let slot = key.page as usize;
        if pages.len() <= slot {
            pages.resize_with(slot + 1, || Arc::new([]));
        }
        if let (Some(page), Some(trimmed)) = (pages.get_mut(slot), image.get(..used)) {
            *page = if used == PAGE_SIZE { Arc::clone(image) as Arc<[u8]> } else { trimmed.into() };
        }
        Ok(())
    }

    fn page_count(&mut self, file: FileId) -> RssResult<u32> {
        Ok(self.files.get(&file).map_or(0, |pages| pages.len() as u32))
    }

    fn files(&mut self) -> RssResult<Vec<FileId>> {
        let mut files: Vec<FileId> = self.files.keys().copied().collect();
        files.sort();
        Ok(files)
    }

    fn remove_file(&mut self, file: FileId) -> RssResult<()> {
        self.files.remove(&file);
        Ok(())
    }

    fn sync(&mut self) -> RssResult<()> {
        Ok(())
    }
}

/// Which files a [`FaultBackend`] fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Segment,
    Index,
    Temp,
}

impl FileKind {
    fn of(file: FileId) -> Self {
        match file {
            FileId::Segment(_) => FileKind::Segment,
            FileId::Index(_) => FileKind::Index,
            FileId::Temp(_) => FileKind::Temp,
        }
    }
}

/// The backend call a [`FaultBackend`] fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    Read,
    Write,
}

/// Fault-injecting wrapper over [`MemBackend`]: counts the calls of one
/// operation on one kind of file and fails those whose 0-based index
/// falls in a window, with an I/O error; everything else passes through.
/// Used by tests that prove error paths release their resources (an
/// aborted sort read-back still destroys its temp list, a failed miss
/// installs no frame, a failed write-back leaves the gate at zero).
#[derive(Debug)]
pub struct FaultBackend {
    inner: MemBackend,
    op: FaultOp,
    kind: FileKind,
    /// Matching calls seen so far.
    seen: u64,
    /// Indices of the matching calls that fail.
    failing: std::ops::Range<u64>,
}

impl FaultBackend {
    fn new(op: FaultOp, kind: FileKind, failing: std::ops::Range<u64>) -> Self {
        FaultBackend { inner: MemBackend::new(), op, kind, seen: 0, failing }
    }

    /// Fail exactly the `k`-th (0-based) `op` on a file of `kind`.
    pub fn failing_nth(op: FaultOp, kind: FileKind, k: u64) -> Self {
        Self::new(op, kind, k..k.saturating_add(1))
    }

    /// Fail every temp-page read after the first `budget` succeed.
    pub fn failing_temp_reads_after(budget: u64) -> Self {
        Self::new(FaultOp::Read, FileKind::Temp, budget..u64::MAX)
    }

    /// Count one `op` on `key`; an error if it is one of the failing calls.
    fn check(&mut self, op: FaultOp, key: PageKey) -> RssResult<()> {
        if op != self.op || FileKind::of(key.file) != self.kind {
            return Ok(());
        }
        let index = self.seen;
        self.seen += 1;
        if self.failing.contains(&index) {
            let what = format!("{:?} {op:?}", self.kind).to_lowercase();
            return Err(RssError::Io(format!("injected {what} fault #{index} at {key:?}")));
        }
        Ok(())
    }
}

impl PageBackend for FaultBackend {
    fn read_page(&mut self, key: PageKey, buf: &mut [u8; PAGE_SIZE]) -> RssResult<()> {
        self.check(FaultOp::Read, key)?;
        self.inner.read_page(key, buf)
    }

    fn write_page(&mut self, key: PageKey, image: &PageImage) -> RssResult<()> {
        self.check(FaultOp::Write, key)?;
        self.inner.write_page(key, image)
    }

    fn page_count(&mut self, file: FileId) -> RssResult<u32> {
        self.inner.page_count(file)
    }

    fn files(&mut self) -> RssResult<Vec<FileId>> {
        self.inner.files()
    }

    fn remove_file(&mut self, file: FileId) -> RssResult<()> {
        self.inner.remove_file(file)
    }

    fn sync(&mut self) -> RssResult<()> {
        self.inner.sync()
    }
}

/// File name for one [`FileId`] inside a database directory.
pub fn file_name(file: FileId) -> String {
    match file {
        FileId::Segment(n) => format!("seg-{n}.pages"),
        FileId::Index(n) => format!("idx-{n}.pages"),
        FileId::Temp(n) => format!("tmp-{n}.pages"),
    }
}

/// Parse a page-file name back into its [`FileId`].
pub fn parse_file_name(name: &str) -> Option<FileId> {
    let stem = name.strip_suffix(".pages")?;
    if let Some(n) = stem.strip_prefix("seg-") {
        return n.parse().ok().map(FileId::Segment);
    }
    if let Some(n) = stem.strip_prefix("idx-") {
        return n.parse().ok().map(FileId::Index);
    }
    if let Some(n) = stem.strip_prefix("tmp-") {
        return n.parse().ok().map(FileId::Temp);
    }
    None
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> RssError {
    RssError::Io(format!("{op} {}: {e}", path.display()))
}

/// Replace the file at `path` with `contents` atomically and durably:
/// write a sibling temp file, fsync it, rename it over `path`, then
/// fsync the directory so the rename itself survives a crash. A reader
/// (or a crash) sees the old file or the new one, never a mix. Every call
/// writes its own temp file, so two threads syncing at once each rename a
/// whole file. Both manifests, `storage.meta` and `catalog.meta`, are
/// written this way.
pub fn write_file_atomic(path: &Path, contents: &[u8]) -> RssResult<()> {
    use std::io::Write;
    static NEXT_TMP: crate::sync::AtomicU64 = crate::sync::AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    let seq = NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = dir.join(tmp_name);
    let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(contents).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename to", path, e))?;
    File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err("sync dir", dir, e))
}

/// One open page file with its length, so reads past the end and
/// `page_count` need no `stat`. Only this backend writes the file while
/// it is open, so the cached length is exact.
#[derive(Debug)]
struct PageFile {
    file: File,
    len: u64,
}

/// A directory of real page files, one per [`FileId`]. Files are opened
/// lazily, kept open until removed or the backend drops, and accessed by
/// position: a page read or write is one `pread`/`pwrite`.
#[derive(Debug)]
pub struct DirBackend {
    dir: PathBuf,
    handles: HashMap<FileId, PageFile>,
}

fn page_offset(page: u32) -> u64 {
    u64::from(page) * PAGE_SIZE as u64
}

impl DirBackend {
    /// Open (creating if absent) a database directory.
    pub fn open(dir: impl Into<PathBuf>) -> RssResult<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        Ok(DirBackend { dir, handles: HashMap::new() })
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        self.dir.join(file_name(file))
    }

    /// The open handle for `file`, opening it on first use. With `create`
    /// unset an absent file stays absent and yields `None`. Takes the
    /// fields apart so error arms can still name the path.
    fn handle<'h>(
        dir: &Path,
        handles: &'h mut HashMap<FileId, PageFile>,
        file: FileId,
        create: bool,
    ) -> RssResult<Option<&'h mut PageFile>> {
        let slot = match handles.entry(file) {
            Entry::Occupied(slot) => return Ok(Some(slot.into_mut())),
            Entry::Vacant(slot) => slot,
        };
        let path = dir.join(file_name(file));
        let opened = OpenOptions::new().read(true).write(true).create(create).open(&path);
        let f = match opened {
            Ok(f) => f,
            Err(e) if !create && e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("open", &path, e)),
        };
        let len = f.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        Ok(Some(slot.insert(PageFile { file: f, len })))
    }
}

impl PageBackend for DirBackend {
    fn read_page(&mut self, key: PageKey, buf: &mut [u8; PAGE_SIZE]) -> RssResult<()> {
        let offset = page_offset(key.page);
        let pf = match Self::handle(&self.dir, &mut self.handles, key.file, false)? {
            Some(pf) if offset < pf.len => pf,
            _ => {
                buf.fill(0);
                return Ok(());
            }
        };
        match pf.file.read_exact_at(buf, offset) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(RssError::Corrupt(format!(
                "truncated page file {}: page {} cut short",
                self.path_of(key.file).display(),
                key.page
            ))),
            Err(e) => Err(io_err("read", &self.path_of(key.file), e)),
        }
    }

    fn write_page(&mut self, key: PageKey, image: &PageImage) -> RssResult<()> {
        let offset = page_offset(key.page);
        let Some(pf) = Self::handle(&self.dir, &mut self.handles, key.file, true)? else {
            return Err(RssError::Corrupt(format!("no page file for {:?} after create", key.file)));
        };
        match pf.file.write_all_at(&image[..], offset) {
            Ok(()) => {
                pf.len = pf.len.max(offset + PAGE_SIZE as u64);
                Ok(())
            }
            Err(e) => Err(io_err("write", &self.path_of(key.file), e)),
        }
    }

    fn page_count(&mut self, file: FileId) -> RssResult<u32> {
        let pf = Self::handle(&self.dir, &mut self.handles, file, false)?;
        Ok(pf.map_or(0, |pf| pf.len.div_ceil(PAGE_SIZE as u64) as u32))
    }

    fn files(&mut self) -> RssResult<Vec<FileId>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err("read dir", &self.dir, e))?;
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir", &self.dir, e))?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(file) = parse_file_name(name) {
                    files.push(file);
                }
            }
        }
        files.sort();
        Ok(files)
    }

    fn remove_file(&mut self, file: FileId) -> RssResult<()> {
        // Dropping the handle closes the descriptor before the unlink.
        self.handles.remove(&file);
        let path = self.path_of(file);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &path, e)),
        }
    }

    fn sync(&mut self) -> RssResult<()> {
        for (file, pf) in &self.handles {
            if let Err(e) = pf.file.sync_all() {
                return Err(io_err("sync", &self.path_of(*file), e));
            }
        }
        Ok(())
    }

    fn dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    fn key(page: u32) -> PageKey {
        PageKey::new(FileId::Segment(3), page)
    }

    fn stamped(fill: u8, lsn: u32) -> PageImage {
        let mut buf = [fill; PAGE_SIZE];
        stamp_page(&mut buf, lsn);
        Arc::new(buf)
    }

    /// A page of seeded pseudo-random bytes, unstamped.
    fn seeded(seed: u64) -> [u8; PAGE_SIZE] {
        let mut rng = SplitMix64::new(seed);
        let mut buf = [0u8; PAGE_SIZE];
        for word in buf.chunks_exact_mut(8) {
            word.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf
    }

    fn is_corrupt(buf: &[u8; PAGE_SIZE]) -> bool {
        matches!(verify_page(buf, key(0)), Err(RssError::Corrupt(_)))
    }

    #[test]
    fn stamp_roundtrip_verifies() {
        let buf = stamped(7, 42);
        verify_page(&buf, key(0)).unwrap();
        assert_eq!(page_lsn(&buf), 42);
        for seed in 0..1000 {
            let mut buf = seeded(seed);
            stamp_page(&mut buf, seed as u32);
            verify_page(&buf, key(0)).unwrap();
            assert_eq!(page_lsn(&buf), seed as u32);
        }
    }

    /// Cross-checked against an independent implementation (SplitMix64
    /// seed 1979 → 512 LE words; the all-zero page).
    const GOLDEN_SEEDED: u32 = 0xD300_B377;
    const GOLDEN_ZEROS: u32 = 0x0A14_CAD2;

    /// The digest is an on-disk format: a kernel change must fail here,
    /// not silently orphan every saved database. If this test has to
    /// change, `storage.meta`'s version has to change with it.
    #[test]
    fn digest_golden_vectors() {
        assert_eq!(page_digest(&seeded(1979)), GOLDEN_SEEDED);
        assert_eq!(page_digest(&[0u8; PAGE_SIZE]), GOLDEN_ZEROS);
        assert_ne!(GOLDEN_ZEROS, 0, "a zero digest would let a stamped page pass as a gap");
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for seed in [1u64, 2, 3] {
            let mut buf = seeded(seed);
            stamp_page(&mut buf, 7);
            for bit in 0..PAGE_SIZE * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert!(is_corrupt(&buf), "seed {seed}: flip of bit {bit} verifies");
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            verify_page(&buf, key(0)).unwrap();
        }
    }

    #[test]
    fn digest_field_does_not_feed_the_digest() {
        let mut buf = seeded(11);
        let digest = page_digest(&buf);
        for junk in [[0u8; 4], [0xFF; 4], [1, 2, 3, 4]] {
            buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&junk);
            assert_eq!(page_digest(&buf), digest);
        }
        // Its neighbours do: the LSN on one side, the header on the other.
        buf[LSN_OFFSET] ^= 1;
        assert_ne!(page_digest(&buf), digest);
        buf[LSN_OFFSET] ^= 1;
        buf[CHECKSUM_OFFSET - 1] ^= 1;
        assert_ne!(page_digest(&buf), digest);
    }

    #[test]
    fn only_the_all_zero_page_passes_as_a_gap() {
        let mut buf = [0u8; PAGE_SIZE];
        verify_page(&buf, key(0)).unwrap();
        // Zero everywhere but the stored checksum: not a gap, not valid.
        buf[CHECKSUM_OFFSET] = 1;
        assert!(is_corrupt(&buf));
    }

    #[test]
    fn mem_backend_roundtrip_and_gaps() {
        let mut b = MemBackend::new();
        let img = stamped(5, 1);
        b.write_page(key(2), &img).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        b.read_page(key(2), &mut out).unwrap();
        assert_eq!(out, *img);
        // Pages 0 and 1 were never written: they read as zero gaps.
        b.read_page(key(0), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        assert_eq!(b.page_count(FileId::Segment(3)).unwrap(), 3);
        assert_eq!(b.files().unwrap(), vec![FileId::Segment(3)]);
        b.remove_file(FileId::Segment(3)).unwrap();
        b.remove_file(FileId::Segment(3)).unwrap();
        assert_eq!(b.files().unwrap(), vec![]);
        b.read_page(key(2), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "a removed file reads as gaps");
    }

    #[test]
    fn mem_backend_stores_no_zero_tail() {
        let mut b = MemBackend::new();
        let full = stamped(5, 1);
        // A half-full node image: stamped, then zero past its payload.
        let mut half = [0u8; PAGE_SIZE];
        half[crate::page::PAGE_HEADER_SIZE..PAGE_SIZE / 2 - 1].fill(0xA5);
        stamp_page(&mut half, 2);
        let half = Arc::new(half);
        let mut out = [0u8; PAGE_SIZE];
        for img in [&full, &half, &full, &half] {
            // Overwrites in both directions leave no stale tail.
            b.write_page(key(0), img).unwrap();
            b.read_page(key(0), &mut out).unwrap();
            assert_eq!(out, **img);
            verify_page(&out, key(0)).unwrap();
        }
        let stored = b.files[&FileId::Segment(3)][0].len();
        assert_eq!(stored, PAGE_SIZE / 2, "the zero tail is not stored, to the 8-byte word");
        assert_eq!(Arc::strong_count(&half), 1, "a trimmed image is a copy");
        b.write_page(key(9), &full).unwrap();
        let gaps: Vec<usize> = b.files[&FileId::Segment(3)][1..9].iter().map(|p| p.len()).collect();
        assert_eq!(gaps, vec![0; 8], "a never-written gap stores nothing");
    }

    /// An image that fills its page is stored by handle: the writer and
    /// the store share one allocation, and a writer that then mutates
    /// its image copies it, leaving the stored bytes as written.
    #[test]
    fn mem_backend_keeps_a_full_image_by_handle() {
        let mut b = MemBackend::new();
        let mut img = stamped(5, 1);
        b.write_page(key(0), &img).unwrap();
        let stored = Arc::clone(&b.files[&FileId::Segment(3)][0]);
        assert!(Arc::ptr_eq(&stored, &(Arc::clone(&img) as Arc<[u8]>)), "one allocation");
        stamp_page(Arc::make_mut(&mut img), 2);
        assert_eq!(stored[..], stamped(5, 1)[..], "the store kept the bytes it was given");
        let mut out = [0u8; PAGE_SIZE];
        b.read_page(key(0), &mut out).unwrap();
        assert_eq!(page_lsn(&out), 1);
    }

    #[test]
    fn fault_backend_fails_the_chosen_call_only() {
        let img = stamped(5, 1);
        let mut out = [0u8; PAGE_SIZE];
        let temp = PageKey::new(FileId::Temp(0), 0);
        // The second segment write fails; temp writes and all reads pass.
        let mut b = FaultBackend::failing_nth(FaultOp::Write, FileKind::Segment, 1);
        b.write_page(key(0), &img).unwrap();
        b.write_page(temp, &img).unwrap();
        assert!(matches!(b.write_page(key(1), &img), Err(RssError::Io(_))));
        b.write_page(key(1), &img).unwrap();
        b.read_page(key(1), &mut out).unwrap();
        assert_eq!(out, *img);
        // The legacy form: every temp read past the budget fails.
        let mut b = FaultBackend::failing_temp_reads_after(1);
        b.read_page(temp, &mut out).unwrap();
        for _ in 0..3 {
            let err = b.read_page(temp, &mut out).unwrap_err();
            assert!(format!("{err}").contains("injected temp read fault"), "{err}");
            b.read_page(key(0), &mut out).unwrap();
        }
    }

    #[test]
    fn file_names_roundtrip() {
        for f in [FileId::Segment(0), FileId::Index(17), FileId::Temp(4_000_000)] {
            assert_eq!(parse_file_name(&file_name(f)), Some(f));
        }
        assert_eq!(parse_file_name("storage.meta"), None);
        assert_eq!(parse_file_name("seg-x.pages"), None);
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sysr-pagefile-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_backend_roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        let img = stamped(9, 3);
        {
            let mut b = DirBackend::open(&dir).unwrap();
            b.write_page(key(1), &img).unwrap();
            b.sync().unwrap();
        }
        let mut b = DirBackend::open(&dir).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        b.read_page(key(1), &mut out).unwrap();
        assert_eq!(out, *img);
        verify_page(&out, key(1)).unwrap();
        // Page 0 is a sparse gap.
        b.read_page(key(0), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
        assert_eq!(b.page_count(FileId::Segment(3)).unwrap(), 2);
        assert_eq!(b.files().unwrap(), vec![FileId::Segment(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_reads_as_corrupt() {
        let dir = temp_dir("torn");
        {
            let mut b = DirBackend::open(&dir).unwrap();
            b.write_page(key(0), &stamped(1, 1)).unwrap();
        }
        // Tear the file: chop the page in half.
        let path = dir.join(file_name(FileId::Segment(3)));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..PAGE_SIZE / 2]).unwrap();
        let mut b = DirBackend::open(&dir).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        // The length says the page exists (len > 0) but the read hits EOF.
        let err = b.read_page(key(0), &mut out).unwrap_err();
        assert!(matches!(err, RssError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_reads_of_absent_pages_are_zeros_and_create_nothing() {
        let dir = temp_dir("absent");
        let mut b = DirBackend::open(&dir).unwrap();
        let mut out = [0xEEu8; PAGE_SIZE];
        b.read_page(key(5), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "absent file reads as zeros");
        assert_eq!(b.page_count(FileId::Segment(3)).unwrap(), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "reads must not create files");
        // Past EOF of an existing file: zeros too, and the file keeps its length.
        b.write_page(key(0), &stamped(4, 1)).unwrap();
        out.fill(0xEE);
        b.read_page(key(9), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "read past EOF is a gap");
        let path = dir.join(file_name(FileId::Segment(3)));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), PAGE_SIZE as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `page_count` is answered from the length cached beside the handle:
    /// it follows this backend's writes, and does not re-`stat` the file
    /// (growing it behind the backend's back goes unseen).
    #[test]
    fn dir_backend_page_count_follows_writes_without_stat() {
        let dir = temp_dir("count");
        let file = FileId::Segment(3);
        let mut b = DirBackend::open(&dir).unwrap();
        let img = stamped(2, 1);
        b.write_page(key(0), &img).unwrap();
        assert_eq!(b.page_count(file).unwrap(), 1);
        b.write_page(key(6), &img).unwrap();
        assert_eq!(b.page_count(file).unwrap(), 7, "a sparse write extends the count");
        b.write_page(key(2), &img).unwrap();
        assert_eq!(b.page_count(file).unwrap(), 7, "a write inside the file does not");
        let path = dir.join(file_name(file));
        let grown = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        grown.set_len(20 * PAGE_SIZE as u64).unwrap();
        assert_eq!(b.page_count(file).unwrap(), 7, "no stat on the count path");
        // A fresh backend measures the file once, at open.
        assert_eq!(DirBackend::open(&dir).unwrap().page_count(file).unwrap(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_remove_file_closes_and_unlinks() {
        let dir = temp_dir("remove");
        let temp = FileId::Temp(8);
        let mut b = DirBackend::open(&dir).unwrap();
        b.remove_file(temp).unwrap(); // absent: not an error
        b.write_page(PageKey::new(temp, 0), &stamped(3, 1)).unwrap();
        b.write_page(key(0), &stamped(3, 2)).unwrap();
        b.remove_file(temp).unwrap();
        assert_eq!(b.files().unwrap(), vec![FileId::Segment(3)]);
        assert!(!dir.join(file_name(temp)).exists());
        assert_eq!(b.page_count(temp).unwrap(), 0);
        let mut out = [0xEEu8; PAGE_SIZE];
        b.read_page(PageKey::new(temp, 0), &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "a removed file reads as gaps");
        assert!(!dir.join(file_name(temp)).exists(), "and reading it does not bring it back");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
