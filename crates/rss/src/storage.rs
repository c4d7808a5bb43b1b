//! The storage engine root: segments + indexes + buffer pool + page files.
//!
//! [`Storage`] is the RSS proper. It owns the segments (data pages) and the
//! B-tree indexes, routes every page access through the
//! [`ShardedBufferPool`] frame cache backed by a [`PageBackend`], and keeps
//! indexes consistent with tuple inserts and deletes. Everything above it
//! (catalog, optimizer, executor) talks to storage in terms of segment
//! ids, relation ids, index ids, and RIDs.
//!
//! # Concurrency
//!
//! `Storage` is `Sync`: every `&self` method (the read/plan/execute
//! serving path) may be called from many session threads at once. Shared
//! state sits behind the pool's shard latches, its write-back gate, the
//! backend latch, and relaxed atomics (LSN and temp-file allocators,
//! I/O counters), under the total latch order documented in
//! [`crate::sharded`]: *shard → gate → backend*, at most one shard
//! latch held, no latch spanning I/O on another object. Mutation
//! (the `*_many` batch forms, DDL) still requires `&mut self`, which the
//! borrow checker serializes against readers; [`Storage::sync`] and
//! [`Storage::save_to`] stay `&self` because the pool's flush drains
//! the write-back gate before they touch the backend's images.
//!
//! # Persistence model
//!
//! The in-memory `Segment` pages and B-tree arenas are the authoritative
//! working copies; the page backend holds the persistent stamped images.
//! A **statement is the flush unit**: the batch forms `insert_many`,
//! `delete_many` and `update_many` (of which `insert` and `delete` are the
//! one-element cases) apply all their tuples, maintain every index, and
//! then — like `create_index` and `cluster_relation` — flush the dirty
//! page set **once** through the buffer pool, on the error path too:
//! write-through in place if the page is resident (deferring the physical
//! write to eviction or flush), write-around to the backend otherwise. So
//! whenever a mutating call returns, the backend is current before any
//! read; a page fetch (pool miss) performs a real, checksum-verified
//! backend read, and `IoStats::backend_reads` equals the fetch counters
//! within any measurement window.
//!
//! The batch forms are atomic for everything a statement can get wrong:
//! RIDs, tuple and key sizes and unique-index collisions are all checked
//! before the first mutation (see `Storage::check_batch`), so an `Err`
//! from them leaves segments and indexes exactly as they were.
//!
//! [`Storage::save_to`] snapshots the database into a directory
//! ([`DirBackend`] page files plus a `storage.meta` descriptor);
//! [`Storage::open`] rebuilds segments and trees from those pages.

#![expect(
    clippy::indexing_slicing,
    reason = "segment bookkeeping: page and slot positions are issued by this allocator and revalidated by verify_page on read"
)]

use crate::btree::{BTreeConfig, BTreeIndex, IndexId};
use crate::error::{RssError, RssResult};
use crate::io::{FileId, IoStats, PageKey};
use crate::page::{Page, PageImage, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::pagefile::{
    stamp_page, verify_page, write_file_atomic, DirBackend, MemBackend, PageBackend,
};
use crate::rid::Rid;
use crate::segment::{Segment, SegmentId};
use crate::sharded::{ShardedBufferPool, SharedBackend};
use crate::sync::{AtomicU32, Mutex, Rank};
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Name of the storage descriptor file inside a database directory.
pub const STORAGE_META: &str = "storage.meta";

/// First line of `storage.meta`: the on-disk format, which the page-stamp
/// digest is part of. v1 directories carry FNV-1a stamps that no longer
/// verify; they are refused by version, not page by page.
const META_HEADER: &str = "sysr-storage v2";

/// Physical description of one index: which segment/relation it covers and
/// which tuple columns (in order) form its key.
#[derive(Debug)]
pub struct IndexEntry {
    pub tree: BTreeIndex,
    pub segment: SegmentId,
    pub rel_id: u16,
    pub key_cols: Vec<usize>,
}

impl IndexEntry {
    /// Extract this index's key from a stored tuple.
    pub fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        self.key_cols.iter().map(|&c| tuple[c].clone()).collect()
    }
}

/// The storage engine: all segments, all indexes, one buffer pool, one
/// page-file backend.
#[derive(Debug)]
pub struct Storage {
    segments: Vec<Segment>,
    indexes: Vec<IndexEntry>,
    buffer: ShardedBufferPool,
    backend: SharedBackend,
    next_temp: AtomicU32,
    next_lsn: AtomicU32,
    btree_config: BTreeConfig,
}

impl Storage {
    /// A storage engine whose buffer pool holds `buffer_pages` pages,
    /// backed by in-memory page files (tests, throwaway databases).
    pub fn new(buffer_pages: usize) -> Self {
        Storage::with_backend(buffer_pages, Box::new(MemBackend::new()))
    }

    /// A storage engine over a caller-supplied page backend (tests inject
    /// fault-carrying backends such as
    /// [`FaultBackend`](crate::pagefile::FaultBackend) to drive error
    /// paths).
    pub fn with_backend(buffer_pages: usize, backend: Box<dyn PageBackend + Send>) -> Self {
        Storage {
            segments: Vec::new(),
            indexes: Vec::new(),
            buffer: ShardedBufferPool::new(buffer_pages),
            backend: Mutex::ranked(Rank::Backend, backend),
            next_temp: AtomicU32::new(0),
            next_lsn: AtomicU32::new(1),
            btree_config: BTreeConfig::default(),
        }
    }

    /// Override the B-tree fanout used for indexes created after this call
    /// (tests use tiny fanouts to exercise deep trees).
    pub fn set_btree_config(&mut self, config: BTreeConfig) {
        self.btree_config = config;
    }

    /// The database directory, if this storage is backed by page files on
    /// disk rather than memory.
    pub fn dir(&self) -> Option<PathBuf> {
        let backend = self.backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        backend.dir().map(Path::to_path_buf)
    }

    // ---- segments -------------------------------------------------------

    pub fn create_segment(&mut self) -> SegmentId {
        let id = self.segments.len() as SegmentId;
        self.segments.push(Segment::new(id));
        id
    }

    pub fn segment(&self, id: SegmentId) -> RssResult<&Segment> {
        self.segments.get(id as usize).ok_or(RssError::UnknownSegment(id))
    }

    fn segment_mut(&mut self, id: SegmentId) -> RssResult<&mut Segment> {
        self.segments.get_mut(id as usize).ok_or(RssError::UnknownSegment(id))
    }

    // ---- buffer pool / page I/O -----------------------------------------

    /// Access a page; a miss reads and verifies its image from the page
    /// backend (one physical read) and counts a page fetch. Returns `true`
    /// on a miss.
    pub fn touch(&self, key: PageKey) -> RssResult<bool> {
        self.buffer.read(key, &self.backend)
    }

    /// Stamp (LSN + checksum) and write one page image through the pool:
    /// held by the frame if resident (dirty, deferred write-back),
    /// write-around to the backend otherwise. Writes never establish
    /// residency. The stamp goes into `img` itself, which nobody else
    /// holds yet, so stamping copies nothing.
    fn write_image(&self, key: PageKey, mut img: PageImage) -> RssResult<()> {
        stamp_page(Arc::make_mut(&mut img), self.next_lsn.fetch_add(1, Relaxed));
        self.buffer.write_through(key, &img, &self.backend)
    }

    /// Flush every page mutated since the last call — segment pages and
    /// B-tree node pages — so the backend (or a dirty resident frame)
    /// holds the current image. Called once at the end of every mutating
    /// operation, however many tuples it touched. On an error the failed
    /// page and the rest of its drained list are marked dirty again, so
    /// the next flush writes them: a page leaves the dirty set only once
    /// its image has been written.
    fn flush_dirty(&mut self) -> RssResult<()> {
        for si in 0..self.segments.len() {
            let file = FileId::Segment(self.segments[si].id());
            let mut pending = self.segments[si].drain_dirty().into_iter();
            while let Some(p) = pending.next() {
                // A segment page is stamped where it lives and its image
                // handle is what the frame or the backend keeps: the
                // borrow of the page rules out the `&self` helper, not
                // the field accesses.
                let lsn = self.next_lsn.fetch_add(1, Relaxed);
                let Some(img) = self.segments[si].stamp(p, lsn) else { continue };
                if let Err(e) = self.buffer.write_through(PageKey::new(file, p), img, &self.backend)
                {
                    self.segments[si].mark_dirty(std::iter::once(p).chain(pending));
                    return Err(e);
                }
            }
        }
        for ii in 0..self.indexes.len() {
            let mut pending = self.indexes[ii].tree.drain_dirty().into_iter();
            while let Some(n) = pending.next() {
                let tree = &self.indexes[ii].tree;
                let key = PageKey::new(FileId::Index(tree.id()), n);
                let written = tree.encode_node_page(n).and_then(|img| self.write_image(key, img));
                if let Err(e) = written {
                    self.indexes[ii].tree.mark_dirty(std::iter::once(n).chain(pending));
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Record `n` tuples crossing the RSI in one NEXT: one RSI call per
    /// returned tuple, whatever the batch size.
    pub fn record_rsi_calls(&self, n: u64) {
        self.buffer.record_rsi_calls(n);
    }

    /// Record `pages` temporary pages written.
    pub fn record_temp_write(&self, pages: u64) {
        self.buffer.record_temp_write(pages);
    }

    /// Record a temporary list materialized (see
    /// [`IoStats::temp_lists_leaked`](crate::IoStats::temp_lists_leaked)).
    pub fn record_temp_list_created(&self) {
        self.buffer.record_temp_list_created();
    }

    /// Record a temporary list destroyed.
    pub fn record_temp_list_destroyed(&self) {
        self.buffer.record_temp_list_destroyed();
    }

    /// Write one temporary-list page image (concatenated tuple encodings,
    /// truncated to the page payload) to the backend.
    pub fn write_temp_page(&self, file: u32, page: u32, payload: &[u8]) -> RssResult<()> {
        let mut img = PageImage::new([0u8; PAGE_SIZE]);
        let n = payload.len().min(PAGE_SIZE - PAGE_HEADER_SIZE);
        Arc::make_mut(&mut img)[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + n]
            .copy_from_slice(&payload[..n]);
        self.write_image(PageKey::new(FileId::Temp(file), page), img)
    }

    pub fn io_stats(&self) -> IoStats {
        self.buffer.stats()
    }

    pub fn reset_io_stats(&self) {
        self.buffer.reset_stats();
    }

    /// Resize the buffer pool. Growing keeps resident pages; shrinking
    /// evicts (with dirty write-back) only down to the new capacity.
    /// Exclusive: pool geometry is a configuration action, never taken on
    /// the concurrent serving path.
    pub fn set_buffer_capacity(&mut self, pages: usize) -> RssResult<()> {
        self.buffer.resize(pages, &self.backend)
    }

    /// Evict all resident pages without touching the fetch counters (used
    /// between measured runs so each starts cold). Dirty frames are
    /// written back first.
    pub fn evict_all(&self) -> RssResult<()> {
        self.buffer.flush(&self.backend)?;
        self.buffer.clear();
        Ok(())
    }

    /// Flush dirty frames, fsync the page files, then replace
    /// `storage.meta` atomically ([`write_file_atomic`]) so the manifest
    /// names every page the fsync made durable (no-op backend sync and no
    /// manifest for in-memory storage). Sound against concurrent readers:
    /// the flush drains dirty-victim write-backs still in flight from
    /// evicting readers, so the fsync cannot miss a committed page image.
    pub fn sync(&self) -> RssResult<()> {
        self.buffer.flush(&self.backend)?;
        let dir = {
            let mut backend =
                self.backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            backend.sync()?;
            backend.dir().map(Path::to_path_buf)
        };
        match dir {
            Some(dir) => self.write_meta(&dir),
            None => Ok(()),
        }
    }

    /// Write this storage's `storage.meta` into `dir`.
    fn write_meta(&self, dir: &Path) -> RssResult<()> {
        write_file_atomic(&dir.join(STORAGE_META), self.render_meta().as_bytes())
    }

    /// Allocate a fresh file id for a temporary list.
    pub fn alloc_temp_file(&self) -> u32 {
        self.next_temp.fetch_add(1, Relaxed)
    }

    /// Drop a temporary list: its frames leave the buffer pool, then its
    /// pages leave the backend (for page files: close and unlink), under
    /// the backend latch alone. Temp file ids are never reused, so without
    /// this every spilling sort would pin its pages — and on disk a file
    /// and a descriptor — for the life of the process.
    pub fn invalidate_temp(&self, temp_file: u32) -> RssResult<()> {
        let file = FileId::Temp(temp_file);
        self.buffer.invalidate_file(file);
        let mut backend = self.backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        backend.remove_file(file)
    }

    // ---- tuples ----------------------------------------------------------

    /// Insert one tuple: [`Storage::insert_many`] of a single row.
    pub fn insert(&mut self, seg: SegmentId, rel_id: u16, tuple: &Tuple) -> RssResult<Rid> {
        let rids = self.insert_many(seg, rel_id, vec![tuple.clone()])?;
        rids.first().copied().ok_or_else(|| RssError::Corrupt("insert produced no RID".into()))
    }

    /// Delete the tuple at `rid`: [`Storage::delete_many`] of a single RID.
    pub fn delete(&mut self, seg: SegmentId, rel_id: u16, rid: Rid) -> RssResult<()> {
        self.delete_many(seg, rel_id, &[rid])
    }

    /// Insert a statement's worth of tuples and maintain every index on
    /// the relation, flushing the dirtied pages **once**. Atomic: the
    /// whole batch is validated first (`check_batch`), so a
    /// duplicate key or an oversized tuple anywhere in it returns the
    /// error with storage untouched. The batch is consumed: each tuple is
    /// dropped as soon as it is stored, so a bulk load never holds its
    /// whole input beside the pages it fills.
    pub fn insert_many(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        tuples: Vec<Tuple>,
    ) -> RssResult<Vec<Rid>> {
        self.check_batch(seg, rel_id, &[], tuples.iter())?;
        let applied = self.apply_inserts(seg, rel_id, tuples.into_iter());
        self.flushed(applied)
    }

    /// Delete the tuples at `rids` and their index entries, flushing the
    /// dirtied pages **once**. Every RID is resolved before the first
    /// deletion, so a bad RID returns the error with storage untouched.
    pub fn delete_many(&mut self, seg: SegmentId, rel_id: u16, rids: &[Rid]) -> RssResult<()> {
        let old = self.resolve(seg, rel_id, rids.iter().copied())?;
        let applied = self.apply_deletes(seg, rel_id, rids.iter().copied().zip(&old));
        self.flushed(applied)
    }

    /// Replace the tuple at each RID by the tuple beside it, flushing the
    /// dirtied pages **once**. All victims are deleted before any
    /// replacement is inserted (a replacement may take a key another
    /// victim vacates), and replacements get fresh RIDs. Atomic: RIDs,
    /// tuple and key sizes, and every unique index — net of the keys the
    /// victims vacate, and among the replacements themselves — are
    /// validated before the first mutation, so an error leaves the
    /// relation and all its indexes exactly as they were.
    pub fn update_many(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        changes: &[(Rid, Tuple)],
    ) -> RssResult<()> {
        let old = self.resolve(seg, rel_id, changes.iter().map(|(rid, _)| *rid))?;
        self.check_batch(seg, rel_id, &old, changes.iter().map(|(_, new)| new))?;
        let applied = self
            .apply_deletes(seg, rel_id, changes.iter().map(|(rid, _)| *rid).zip(&old))
            .and_then(|()| self.apply_inserts(seg, rel_id, changes.iter().map(|(_, new)| new)))
            .map(|_| ());
        self.flushed(applied)
    }

    /// The stored tuples at `rids` (their index keys must be removed with
    /// them); fails on the first RID that is not a live tuple of `rel_id`.
    fn resolve(
        &self,
        seg: SegmentId,
        rel_id: u16,
        rids: impl Iterator<Item = Rid>,
    ) -> RssResult<Vec<Tuple>> {
        let segment = self.segment(seg)?;
        rids.map(|rid| segment.get(rel_id, rid)).collect()
    }

    /// Validate a batch before anything is mutated: every incoming tuple
    /// fits a page, every index key fits a node, and no unique index
    /// would see a key twice — among the incoming tuples or against a
    /// stored key that no `vacated` tuple gives up.
    fn check_batch<'t>(
        &self,
        seg: SegmentId,
        rel_id: u16,
        vacated: &[Tuple],
        incoming: impl Iterator<Item = &'t Tuple> + Clone,
    ) -> RssResult<()> {
        for tuple in incoming.clone() {
            let size = tuple.encoded_size();
            if size > Page::max_tuple_size() {
                return Err(RssError::TupleTooLarge { size, max: Page::max_tuple_size() });
            }
        }
        for entry in self.indexes.iter().filter(|e| e.segment == seg && e.rel_id == rel_id) {
            // Only a unique index needs its keys kept for comparison.
            let unique = entry.tree.is_unique();
            let mut keys: Vec<Vec<Value>> = Vec::new();
            for tuple in incoming.clone() {
                let key = entry.key_of(tuple);
                entry.tree.check_key(&key)?;
                if unique {
                    keys.push(key);
                }
            }
            if !unique {
                continue;
            }
            keys.sort_unstable();
            let mut freed: Vec<Vec<Value>> = vacated.iter().map(|t| entry.key_of(t)).collect();
            freed.sort_unstable();
            for (i, key) in keys.iter().enumerate() {
                let taken = keys.get(i + 1) == Some(key)
                    || (freed.binary_search(key).is_err() && entry.tree.contains_key(key)?);
                if taken {
                    return Err(RssError::DuplicateKey(format!("{key:?}")));
                }
            }
        }
        Ok(())
    }

    fn apply_inserts<T: Borrow<Tuple>>(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        tuples: impl Iterator<Item = T>,
    ) -> RssResult<Vec<Rid>> {
        let mut rids = Vec::with_capacity(tuples.size_hint().0);
        for tuple in tuples {
            let tuple = tuple.borrow();
            let rid = self.segment_mut(seg)?.insert(rel_id, tuple)?;
            for entry in &mut self.indexes {
                if entry.segment == seg && entry.rel_id == rel_id {
                    let key = entry.key_of(tuple);
                    entry.tree.insert(key, rid)?;
                }
            }
            rids.push(rid);
        }
        Ok(rids)
    }

    fn apply_deletes<'t>(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        victims: impl Iterator<Item = (Rid, &'t Tuple)>,
    ) -> RssResult<()> {
        for (rid, tuple) in victims {
            self.segment_mut(seg)?.delete(rel_id, rid)?;
            for entry in &mut self.indexes {
                if entry.segment == seg && entry.rel_id == rel_id {
                    entry.tree.delete(&entry.key_of(tuple), rid)?;
                }
            }
        }
        Ok(())
    }

    /// Finish a mutating call: flush whatever it dirtied — on the error
    /// path too, so the backend image equals the in-memory state whenever
    /// a call returns. The mutation's own error wins over a flush error.
    fn flushed<T>(&mut self, applied: RssResult<T>) -> RssResult<T> {
        let flush = self.flush_dirty();
        let value = applied?;
        flush?;
        Ok(value)
    }

    /// Fetch a tuple by RID **with** page accounting: the data page is
    /// touched in the buffer pool (this is how non-clustered index scans
    /// incur a fetch per tuple).
    pub fn fetch(&self, seg: SegmentId, rel_id: u16, rid: Rid) -> RssResult<Tuple> {
        self.touch(PageKey::new(FileId::Segment(seg), rid.page))?;
        self.segment(seg)?.get(rel_id, rid)
    }

    // ---- indexes ---------------------------------------------------------

    /// Create a B-tree index over `key_cols` of relation `rel_id` in
    /// segment `seg`, loading it from the relation's current contents.
    pub fn create_index(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        key_cols: Vec<usize>,
        unique: bool,
    ) -> RssResult<IndexId> {
        let id = self.indexes.len() as IndexId;
        let mut tree = BTreeIndex::new(id, key_cols.len(), unique, self.btree_config);
        // Stream: one decoded tuple at a time, never the whole relation.
        for (rid, tuple) in self.segment(seg)?.iter_relation(rel_id) {
            let tuple = tuple?;
            let key: Vec<Value> = key_cols.iter().map(|&c| tuple[c].clone()).collect();
            tree.insert(key, rid)?;
        }
        self.indexes.push(IndexEntry { tree, segment: seg, rel_id, key_cols });
        self.flush_dirty()?;
        Ok(id)
    }

    pub fn index(&self, id: IndexId) -> RssResult<&IndexEntry> {
        self.indexes.get(id as usize).ok_or(RssError::UnknownIndex(id))
    }

    /// Physically rewrite relation `rel_id` of segment `seg` in the key
    /// order of `key_cols`, so that an index on those columns is
    /// *clustered*: tuples adjacent in key order sit on the same data
    /// pages. All indexes on the relation are rebuilt (RIDs change).
    ///
    /// This is the reorganization utility a System R administrator would
    /// run before (re)creating a clustered index.
    pub fn cluster_relation(
        &mut self,
        seg: SegmentId,
        rel_id: u16,
        key_cols: &[usize],
    ) -> RssResult<()> {
        let mut rows: Vec<(Rid, Tuple)> = self
            .segment(seg)?
            .iter_relation(rel_id)
            .map(|(rid, t)| t.map(|t| (rid, t)))
            .collect::<RssResult<_>>()?;
        rows.sort_by(|(_, a), (_, b)| {
            let ka: Vec<&Value> = key_cols.iter().map(|&c| &a[c]).collect();
            let kb: Vec<&Value> = key_cols.iter().map(|&c| &b[c]).collect();
            ka.cmp(&kb)
        });
        // Remove old copies, reinsert in key order.
        for (rid, _) in &rows {
            self.segment_mut(seg)?.delete(rel_id, *rid)?;
        }
        let mut new_rids = Vec::with_capacity(rows.len());
        for (_, tuple) in &rows {
            // Compact as we go so the rewritten relation is dense.
            new_rids.push(self.segment_mut(seg)?.insert(rel_id, tuple)?);
        }
        // Rebuild every index on this relation. Rebuilt trees get entirely
        // new node images, so the pool's frames for the old tree are stale:
        // drop them before the fresh images are flushed.
        for entry in &mut self.indexes {
            if entry.segment == seg && entry.rel_id == rel_id {
                let mut tree = BTreeIndex::new(
                    entry.tree.id(),
                    entry.key_cols.len(),
                    entry.tree.is_unique(),
                    self.btree_config,
                );
                for (rid, tuple) in new_rids.iter().zip(rows.iter().map(|(_, t)| t)) {
                    let key: Vec<Value> =
                        entry.key_cols.iter().map(|&c| tuple[c].clone()).collect();
                    tree.insert(key, *rid)?;
                }
                self.buffer.invalidate_file(FileId::Index(entry.tree.id()));
                entry.tree = tree;
            }
        }
        self.flush_dirty()?;
        Ok(())
    }

    // ---- persistence -----------------------------------------------------

    /// Snapshot the database into `dir`: every segment and index page is
    /// copied verbatim (already stamped) into per-file page files, and a
    /// `storage.meta` descriptor records the shapes needed to rebuild.
    /// Temporary lists are not saved. The storage keeps its current
    /// backend; the snapshot can be reopened with [`Storage::open`].
    /// Sound against concurrent readers: the pre-copy flush drains
    /// in-flight dirty write-backs, so the snapshot cannot capture a
    /// pre-mutation image of an evicted dirty page.
    pub fn save_to(&self, dir: &Path) -> RssResult<()> {
        // Make the backend the single source of truth (flush drains the
        // write-back gate, so no dirty image is still in flight).
        self.buffer.flush(&self.backend)?;
        let mut dst = DirBackend::open(dir)?;
        // `dst` keeps no handle, so the one buffer is reused in place.
        let mut buf = PageImage::new([0u8; PAGE_SIZE]);
        let mut copy = |key: PageKey| -> RssResult<()> {
            {
                // Latch the source backend per page: holding its guard
                // across `dst` writes would pin the backend for the
                // whole copy (latch-discipline: latches never span I/O).
                let mut src =
                    self.backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                src.read_page(key, Arc::make_mut(&mut buf))?;
            }
            verify_page(&buf, key)?;
            dst.write_page(key, &buf)
        };
        for seg in &self.segments {
            for p in 0..seg.page_count() as u32 {
                copy(PageKey::new(FileId::Segment(seg.id()), p))?;
            }
        }
        for entry in &self.indexes {
            for p in 0..entry.tree.node_slot_count() as u32 {
                copy(PageKey::new(FileId::Index(entry.tree.id()), p))?;
            }
        }
        dst.sync()?;
        self.write_meta(dir)
    }

    fn render_meta(&self) -> String {
        let mut out = format!("{META_HEADER}\n");
        out.push_str(&format!("lsn {}\n", self.next_lsn.load(Relaxed)));
        out.push_str(&format!("temp {}\n", self.next_temp.load(Relaxed)));
        out.push_str(&format!(
            "btree {} {}\n",
            self.btree_config.leaf_capacity, self.btree_config.internal_capacity
        ));
        out.push_str(&format!("segments {}\n", self.segments.len()));
        for seg in &self.segments {
            out.push_str(&format!("seg {} {} {}\n", seg.id(), seg.fill_hint(), seg.page_count()));
        }
        out.push_str(&format!("indexes {}\n", self.indexes.len()));
        for e in &self.indexes {
            let t = &e.tree;
            let cols: Vec<String> = e.key_cols.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "idx {} {} {} {} {} {} {} {} {} {}\n",
                t.id(),
                e.segment,
                e.rel_id,
                u8::from(t.is_unique()),
                t.config().leaf_capacity,
                t.config().internal_capacity,
                t.root_page(),
                t.entry_count(),
                t.node_slot_count(),
                cols.join(" "),
            ));
        }
        out
    }

    /// Reopen a database saved with [`Storage::save_to`]. The returned
    /// storage reads and writes the page files in `dir` directly.
    pub fn open(dir: &Path, buffer_pages: usize) -> RssResult<Storage> {
        let meta_path = dir.join(STORAGE_META);
        let text = std::fs::read_to_string(&meta_path)
            .map_err(|e| RssError::Io(format!("read {}: {e}", meta_path.display())))?;
        let meta = StorageMeta::parse(&text)?;
        let mut backend: Box<dyn PageBackend + Send> = Box::new(DirBackend::open(dir)?);

        let mut read = |key: PageKey| -> RssResult<PageImage> {
            let mut img = PageImage::new([0u8; PAGE_SIZE]);
            let buf = Arc::make_mut(&mut img);
            backend.read_page(key, buf)?;
            verify_page(buf, key)?;
            Ok(img)
        };

        let mut segments = Vec::with_capacity(meta.segments.len());
        for (i, sm) in meta.segments.iter().enumerate() {
            if sm.id as usize != i {
                return Err(RssError::Corrupt(format!(
                    "segment ids out of order in {STORAGE_META}: {} at position {i}",
                    sm.id
                )));
            }
            let mut pages = Vec::with_capacity(sm.page_count);
            for p in 0..sm.page_count as u32 {
                pages.push(Page::from_image(read(PageKey::new(FileId::Segment(sm.id), p))?));
            }
            segments.push(Segment::from_pages(sm.id, pages, sm.fill_hint));
        }

        let mut indexes = Vec::with_capacity(meta.indexes.len());
        for (i, im) in meta.indexes.iter().enumerate() {
            if im.id as usize != i {
                return Err(RssError::Corrupt(format!(
                    "index ids out of order in {STORAGE_META}: {} at position {i}",
                    im.id
                )));
            }
            let mut pages = Vec::with_capacity(im.node_pages);
            for p in 0..im.node_pages as u32 {
                pages.push(read(PageKey::new(FileId::Index(im.id), p))?);
            }
            let tree = BTreeIndex::from_node_pages(
                im.id,
                im.key_cols.len(),
                im.unique,
                BTreeConfig {
                    leaf_capacity: im.leaf_capacity,
                    internal_capacity: im.internal_capacity,
                },
                im.root,
                im.entry_count,
                &pages,
            )?;
            indexes.push(IndexEntry {
                tree,
                segment: im.segment,
                rel_id: im.rel_id,
                key_cols: im.key_cols.clone(),
            });
        }

        Ok(Storage {
            segments,
            indexes,
            buffer: ShardedBufferPool::new(buffer_pages),
            backend: Mutex::ranked(Rank::Backend, backend),
            next_temp: AtomicU32::new(meta.next_temp),
            next_lsn: AtomicU32::new(meta.next_lsn),
            btree_config: meta.btree_config,
        })
    }
}

/// The whole serving path is shareable: M session threads may plan and
/// execute over one `&Storage` concurrently.
#[expect(dead_code, reason = "a compile-time check: it only has to type-check, never run")]
fn assert_storage_is_shareable() {
    fn check<T: Send + Sync>() {}
    check::<Storage>();
}

struct SegMeta {
    id: SegmentId,
    fill_hint: usize,
    page_count: usize,
}

struct IdxMeta {
    id: IndexId,
    segment: SegmentId,
    rel_id: u16,
    unique: bool,
    leaf_capacity: usize,
    internal_capacity: usize,
    root: u32,
    entry_count: usize,
    node_pages: usize,
    key_cols: Vec<usize>,
}

struct StorageMeta {
    next_lsn: u32,
    next_temp: u32,
    btree_config: BTreeConfig,
    segments: Vec<SegMeta>,
    indexes: Vec<IdxMeta>,
}

fn meta_err(detail: impl std::fmt::Display) -> RssError {
    RssError::Corrupt(format!("malformed {STORAGE_META}: {detail}"))
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> RssResult<T> {
    tok.ok_or_else(|| meta_err(format!("missing {what}")))?
        .parse()
        .map_err(|_| meta_err(format!("bad {what}")))
}

impl StorageMeta {
    fn parse(text: &str) -> RssResult<StorageMeta> {
        let mut lines = text.lines();
        match lines.next() {
            Some(META_HEADER) => {}
            Some(other) if other.starts_with("sysr-storage ") => {
                return Err(RssError::FormatVersion {
                    found: other.to_string(),
                    supported: META_HEADER,
                });
            }
            _ => return Err(meta_err("unknown header")),
        }
        let mut next_lsn = 1u32;
        let mut next_temp = 0u32;
        let mut btree_config = BTreeConfig::default();
        let mut segments = Vec::new();
        let mut indexes = Vec::new();
        for line in lines {
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("lsn") => next_lsn = parse_num(tok.next(), "lsn")?,
                Some("temp") => next_temp = parse_num(tok.next(), "temp")?,
                Some("btree") => {
                    btree_config = BTreeConfig {
                        leaf_capacity: parse_num(tok.next(), "leaf capacity")?,
                        internal_capacity: parse_num(tok.next(), "internal capacity")?,
                    }
                }
                Some("segments") | Some("indexes") => {} // counts are implicit
                Some("seg") => segments.push(SegMeta {
                    id: parse_num(tok.next(), "segment id")?,
                    fill_hint: parse_num(tok.next(), "fill hint")?,
                    page_count: parse_num(tok.next(), "page count")?,
                }),
                Some("idx") => {
                    let id = parse_num(tok.next(), "index id")?;
                    let segment = parse_num(tok.next(), "index segment")?;
                    let rel_id = parse_num(tok.next(), "index relation")?;
                    let unique: u8 = parse_num(tok.next(), "unique flag")?;
                    let leaf_capacity = parse_num(tok.next(), "leaf capacity")?;
                    let internal_capacity = parse_num(tok.next(), "internal capacity")?;
                    let root = parse_num(tok.next(), "root page")?;
                    let entry_count = parse_num(tok.next(), "entry count")?;
                    let node_pages = parse_num(tok.next(), "node pages")?;
                    let key_cols: Vec<usize> = tok
                        .map(|t| t.parse().map_err(|_| meta_err("bad key column")))
                        .collect::<RssResult<_>>()?;
                    if key_cols.is_empty() {
                        return Err(meta_err(format!("index {id} has no key columns")));
                    }
                    indexes.push(IdxMeta {
                        id,
                        segment,
                        rel_id,
                        unique: unique != 0,
                        leaf_capacity,
                        internal_capacity,
                        root,
                        entry_count,
                        node_pages,
                        key_cols,
                    });
                }
                Some(other) => return Err(meta_err(format!("unknown line kind {other:?}"))),
                None => {} // blank line
            }
        }
        Ok(StorageMeta { next_lsn, next_temp, btree_config, segments, indexes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::{TempGuard, TempList};
    use crate::tuple;

    fn row(i: i64) -> Tuple {
        tuple![i, format!("n{i}"), i % 10]
    }

    fn loaded_storage(n: i64) -> (Storage, SegmentId) {
        let mut st = Storage::new(64);
        let seg = st.create_segment();
        for i in 0..n {
            st.insert(seg, 1, &row(i)).unwrap();
        }
        (st, seg)
    }

    #[test]
    fn insert_fetch_roundtrip_with_accounting() {
        let (st, seg) = loaded_storage(10);
        st.reset_io_stats();
        let rid = st.segment(seg).unwrap().iter_relation(1).next().unwrap().0;
        let t = st.fetch(seg, 1, rid).unwrap();
        assert_eq!(t, row(0));
        assert_eq!(st.io_stats().data_page_fetches, 1);
        assert_eq!(st.io_stats().backend_reads, 1, "a miss is one physical read");
        // Second fetch of the same page hits.
        st.fetch(seg, 1, rid).unwrap();
        assert_eq!(st.io_stats().data_page_fetches, 1);
        assert_eq!(st.io_stats().backend_reads, 1);
        assert_eq!(st.io_stats().buffer_hits, 1);
    }

    #[test]
    fn index_maintained_on_insert_and_delete() {
        let (mut st, seg) = loaded_storage(100);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        assert_eq!(st.index(idx).unwrap().tree.entry_count(), 100);
        let rid = st.insert(seg, 1, &row(200)).unwrap();
        assert_eq!(st.index(idx).unwrap().tree.entry_count(), 101);
        st.delete(seg, 1, rid).unwrap();
        assert_eq!(st.index(idx).unwrap().tree.entry_count(), 100);
        assert!(!st.index(idx).unwrap().tree.contains_key(&[Value::Int(200)]).unwrap());
    }

    #[test]
    fn unique_violation_leaves_storage_unchanged() {
        let (mut st, seg) = loaded_storage(10);
        st.create_index(seg, 1, vec![0], true).unwrap();
        let before = st.segment(seg).unwrap().count_tuples(1);
        assert!(st.insert(seg, 1, &row(5)).is_err());
        assert_eq!(st.segment(seg).unwrap().count_tuples(1), before);
    }

    /// A statement is the flush unit: k tuples deleted from one data page
    /// write that page's image once, not k times. The pool is smaller
    /// than the table and evicted, so every flushed image is a
    /// write-around the backend counts.
    #[test]
    fn delete_many_writes_each_dirty_page_once() {
        let mut st = Storage::new(4);
        let seg = st.create_segment();
        let rows: Vec<Tuple> = (0..2000).map(row).collect();
        let rids = st.insert_many(seg, 1, rows).unwrap();
        assert!(st.segment(seg).unwrap().page_count() > 8, "table must exceed the pool");
        let on_page =
            |p: u32| -> Vec<Rid> { rids.iter().copied().filter(|r| r.page == p).collect() };
        let (batch, singles) = (on_page(2), on_page(5));
        assert!(batch.len() >= 8 && singles.len() >= 8);

        st.evict_all().unwrap();
        st.reset_io_stats();
        st.delete_many(seg, 1, &batch).unwrap();
        assert_eq!(st.io_stats().backend_writes, 1, "one page dirtied, one image written");
        // The single-row form is the same body, one flush per call.
        st.reset_io_stats();
        for &rid in &singles {
            st.delete(seg, 1, rid).unwrap();
        }
        assert_eq!(st.io_stats().backend_writes, singles.len() as u64);
        assert_eq!(st.segment(seg).unwrap().count_tuples(1), 2000 - batch.len() - singles.len());
    }

    /// On an in-memory database a segment page and the backend's copy of
    /// it are one allocation once a statement has flushed it (the pool
    /// holds no frame: writes never establish residency). A mutation
    /// that is not flushed yet copies the page, leaving the backend with
    /// the image it was given.
    #[test]
    fn mem_backend_shares_segment_pages_copy_on_write() {
        let (mut st, seg) = loaded_storage(10);
        let key = PageKey::new(FileId::Segment(seg), 0);
        let flushed = Arc::clone(st.segment(seg).unwrap().page(0).unwrap().image());
        assert_eq!(Arc::strong_count(&flushed), 3, "the page, the backend's copy and ours");
        st.segment_mut(seg).unwrap().insert(1, &row(99)).unwrap();
        let page = st.segment(seg).unwrap().page(0).unwrap();
        assert!(!Arc::ptr_eq(page.image(), &flushed), "the mutation copied the page");
        assert_eq!(Arc::strong_count(&flushed), 2, "the backend still holds the old image");
        let mut stored = [0u8; PAGE_SIZE];
        st.backend.lock().unwrap().read_page(key, &mut stored).unwrap();
        assert_eq!(stored, *flushed, "an unflushed mutation leaves the backend image unchanged");
        // The next statement's flush shares the new image instead.
        st.insert(seg, 1, &row(100)).unwrap();
        assert_eq!(Arc::strong_count(&flushed), 1, "the backend let go of the old image");
        let image = Arc::clone(st.segment(seg).unwrap().page(0).unwrap().image());
        assert_eq!(Arc::strong_count(&image), 3);
        st.backend.lock().unwrap().read_page(key, &mut stored).unwrap();
        assert_eq!(stored, *image);
    }

    /// `update_many` validates against the unique index net of the keys
    /// its own victims vacate, and fails without touching anything.
    #[test]
    fn update_many_is_atomic_under_a_unique_index() {
        let (mut st, seg) = loaded_storage(10);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        let rids: Vec<Rid> = st.segment(seg).unwrap().iter_relation(1).map(|(r, _)| r).collect();
        let before = relation_rows(&st, seg);
        // Rows 0 and 1 both move to key 50: the replacements collide.
        let clash = [(rids[0], row(50)), (rids[1], row(50))];
        assert!(matches!(st.update_many(seg, 1, &clash), Err(RssError::DuplicateKey(_))));
        // Row 0 moves onto row 5's key, which nobody vacates.
        assert!(matches!(
            st.update_many(seg, 1, &[(rids[0], row(5))]),
            Err(RssError::DuplicateKey(_))
        ));
        // A dead RID is rejected before the live one beside it is touched.
        let dead = Rid::new(rids[0].page, 999);
        assert!(st.update_many(seg, 1, &[(rids[0], row(60)), (dead, row(61))]).is_err());
        assert_eq!(relation_rows(&st, seg), before);
        assert_eq!(st.index(idx).unwrap().tree.entry_count(), 10);
        // Rows 0 and 1 swap keys: each takes what the other vacates.
        st.update_many(seg, 1, &[(rids[0], row(1)), (rids[1], row(0))]).unwrap();
        let mut after = relation_rows(&st, seg);
        after.sort();
        assert_eq!(after, before);
        st.index(idx).unwrap().tree.check_invariants().unwrap();
    }

    /// A failed statement-end flush loses no page: what it drained but did
    /// not write stays dirty, so once the fault is spent the next mutating
    /// call brings the backend back in line with memory.
    #[test]
    fn failed_flush_leaves_unwritten_pages_dirty() {
        use crate::pagefile::{FaultBackend, FaultOp, FileKind};
        // Writes never make a page resident, so every fresh segment page
        // is a write-around to the backend, and the first one fails.
        let backend = FaultBackend::failing_nth(FaultOp::Write, FileKind::Segment, 0);
        let mut st = Storage::with_backend(64, Box::new(backend));
        let seg = st.create_segment();
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        let rows: Vec<Tuple> = (0..500).map(row).collect();
        assert!(st.insert_many(seg, 1, rows).is_err(), "the first page write fails");
        assert!(st.segment(seg).unwrap().page_count() > 2, "the batch spans several pages");
        st.insert(seg, 1, &row(500)).unwrap();

        let dir = temp_dir("failed-flush");
        st.save_to(&dir).unwrap();
        let back = Storage::open(&dir, 64).unwrap();
        assert_eq!(relation_rows(&back, seg).len(), 501);
        assert_eq!(relation_rows(&back, seg), relation_rows(&st, seg));
        let tree = &back.index(idx).unwrap().tree;
        assert_eq!(tree.entry_count(), 501);
        tree.check_invariants().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_relation_orders_physically() {
        let mut st = Storage::new(64);
        let seg = st.create_segment();
        // Insert in reverse order, then cluster ascending.
        for i in (0..500).rev() {
            st.insert(seg, 1, &row(i)).unwrap();
        }
        let idx = st.create_index(seg, 1, vec![0], false).unwrap();
        st.cluster_relation(seg, 1, &[0]).unwrap();
        // Physical scan order now equals key order.
        let physical: Vec<i64> = st
            .segment(seg)
            .unwrap()
            .iter_relation(1)
            .map(|(_, t)| t.unwrap()[0].as_int().unwrap())
            .collect();
        let mut sorted = physical.clone();
        sorted.sort_unstable();
        assert_eq!(physical, sorted);
        // Index was rebuilt and still maps every key.
        let tree = &st.index(idx).unwrap().tree;
        assert_eq!(tree.entry_count(), 500);
        tree.check_invariants().unwrap();
        // Index RIDs point at valid tuples.
        for item in tree.iter() {
            let (key, rid) = item.unwrap();
            let t = st.segment(seg).unwrap().get(1, rid).unwrap();
            assert_eq!(&t[0], &key[0]);
        }
    }

    #[test]
    fn multiple_indexes_on_one_relation() {
        let (mut st, seg) = loaded_storage(50);
        let a = st.create_index(seg, 1, vec![0], true).unwrap();
        let b = st.create_index(seg, 1, vec![2], false).unwrap();
        assert_eq!(st.index(a).unwrap().tree.distinct_keys().unwrap(), 50);
        assert_eq!(st.index(b).unwrap().tree.distinct_keys().unwrap(), 10);
        let rid = st.insert(seg, 1, &row(60)).unwrap();
        st.delete(seg, 1, rid).unwrap();
        assert_eq!(st.index(a).unwrap().tree.entry_count(), 50);
        assert_eq!(st.index(b).unwrap().tree.entry_count(), 50);
    }

    #[test]
    fn temp_file_ids_are_fresh() {
        let st = Storage::new(8);
        assert_ne!(st.alloc_temp_file(), st.alloc_temp_file());
    }

    #[test]
    fn unknown_ids_error() {
        let st = Storage::new(8);
        assert!(st.segment(3).is_err());
        assert!(st.index(0).is_err());
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sysr-storage-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn relation_rows(st: &Storage, seg: SegmentId) -> Vec<Tuple> {
        st.segment(seg).unwrap().iter_relation(1).map(|(_, t)| t.unwrap()).collect()
    }

    #[test]
    fn save_open_roundtrip_preserves_rows_and_indexes() {
        let (mut st, seg) = loaded_storage(300);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        let dir = temp_dir("roundtrip");
        st.save_to(&dir).unwrap();

        let back = Storage::open(&dir, 64).unwrap();
        assert_eq!(relation_rows(&back, seg), relation_rows(&st, seg));
        let ta = &st.index(idx).unwrap().tree;
        let tb = &back.index(idx).unwrap().tree;
        assert_eq!(tb.entry_count(), ta.entry_count());
        assert_eq!(tb.distinct_keys().unwrap(), ta.distinct_keys().unwrap());
        tb.check_invariants().unwrap();
        // The reopened store keeps working: insert + unique violation.
        let mut back = back;
        back.insert(seg, 1, &row(900)).unwrap();
        assert!(back.insert(seg, 1, &row(900)).is_err(), "unique index survived reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_storage_reads_pages_from_disk() {
        let (mut st, seg) = loaded_storage(200);
        st.create_index(seg, 1, vec![0], true).unwrap();
        let dir = temp_dir("disk-reads");
        st.save_to(&dir).unwrap();
        drop(st);

        let back = Storage::open(&dir, 64).unwrap();
        back.reset_io_stats();
        let rid = back.segment(seg).unwrap().iter_relation(1).next().unwrap().0;
        back.fetch(seg, 1, rid).unwrap();
        let s = back.io_stats();
        assert_eq!(s.data_page_fetches, 1);
        assert_eq!(s.backend_reads, 1, "fetch on reopened store reads the page file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_page_file_is_a_clean_error() {
        let (mut st, seg) = loaded_storage(100);
        st.create_index(seg, 1, vec![0], true).unwrap();
        let dir = temp_dir("corrupt");
        st.save_to(&dir).unwrap();
        // Flip a byte in the middle of the first segment page.
        let path = dir.join(crate::pagefile::file_name(FileId::Segment(seg)));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Storage::open(&dir, 64).unwrap_err();
        assert!(matches!(err, RssError::Corrupt(_)), "got {err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stamp digest is part of the format: a v1 directory (FNV-1a
    /// stamps) is refused by its header, before any page is read — so the
    /// error names the version instead of a checksum mismatch.
    #[test]
    fn v1_directory_is_refused_by_version() {
        let (st, _) = loaded_storage(10);
        let dir = temp_dir("v1");
        st.save_to(&dir).unwrap();
        let meta = std::fs::read_to_string(dir.join(STORAGE_META)).unwrap();
        assert!(meta.starts_with("sysr-storage v2\n"), "{meta}");
        std::fs::write(dir.join(STORAGE_META), meta.replacen("v2", "v1", 1)).unwrap();
        let err = Storage::open(&dir, 64).unwrap_err();
        assert!(matches!(err, RssError::FormatVersion { .. }), "got {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("v1") && msg.contains("v2"), "{msg}");
        // A header that is not ours at all is still plain corruption.
        std::fs::write(dir.join(STORAGE_META), "garbage\n").unwrap();
        assert!(matches!(Storage::open(&dir, 64), Err(RssError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wide_rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i, format!("padding-padding-padding-{i:040}")]).collect()
    }

    /// What a spilling sort does to storage, 50 times: materialize a
    /// multi-page list, read it back through a pool too small to hold
    /// it, drop the guard.
    fn spill_fifty_times(st: &Storage) {
        for _ in 0..50 {
            let list = TempList::materialize(st, wide_rows(400)).unwrap();
            assert!(list.page_count() > 4);
            let guard = TempGuard::new(list, st);
            let mut scan = guard.list().scan(st);
            while !scan.next_batch(64).unwrap().is_empty() {}
        }
    }

    fn temp_files(st: &Storage) -> Vec<FileId> {
        let mut files = st.backend.lock().unwrap().files().unwrap();
        files.retain(|f| matches!(f, FileId::Temp(_)));
        files
    }

    #[test]
    fn destroyed_temp_lists_leave_nothing_in_the_backend() {
        // In memory: the pages' `Vec`s are dropped.
        let st = Storage::new(4);
        spill_fifty_times(&st);
        assert_eq!(temp_files(&st), vec![]);
        assert_eq!(st.io_stats().temp_lists_created, 50);
        assert_eq!(st.io_stats().temp_lists_leaked(), 0);

        // On disk: no `tmp-N.pages` file is left (that no descriptor is
        // either is checked in `tests/persistence.rs`, via /proc/self/fd).
        let (mut mem, _) = loaded_storage(50);
        mem.create_index(0, 1, vec![0], true).unwrap();
        let dir = temp_dir("temp-leak");
        mem.save_to(&dir).unwrap();
        let st = Storage::open(&dir, 4).unwrap();
        spill_fifty_times(&st);
        assert_eq!(temp_files(&st), vec![]);
        assert_eq!(st.io_stats().temp_lists_leaked(), 0);
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("tmp-"))
            .collect();
        assert_eq!(left, Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_meta_is_a_clean_error() {
        let (st, _) = loaded_storage(10);
        let dir = temp_dir("badmeta");
        st.save_to(&dir).unwrap();
        std::fs::write(dir.join(STORAGE_META), format!("{META_HEADER}\nseg nonsense\n")).unwrap();
        assert!(Storage::open(&dir, 64).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
