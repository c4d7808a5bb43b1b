//! A sharded, latch-guarded buffer pool for concurrent query serving.
//!
//! System R's frame cache is one LRU list; this module keeps those LRU
//! semantics in N independently latched partitions so many sessions can
//! read pages concurrently. A page's shard is a pure function of its
//! [`PageKey`]: sequential pages of one file stripe round-robin across
//! shards, so a scan that fits in the pool stays resident just as it
//! would under one global LRU.
//!
//! # Latch order
//!
//! Three latch ranks exist, and acquisition must follow the total order
//! *shard (rank 0) → write-back gate (rank 1) → backend (rank 2)*:
//!
//! - **Shard latches (rank 0).** At most one shard latch is held at a
//!   time. Cross-shard walks (flush, clear, stats) visit shards in
//!   strictly ascending shard id, releasing each before locking the
//!   next, so any future multi-latch extension stays deadlock-free.
//! - **Write-back gate (rank 1).** A counter of dirty eviction victims
//!   whose backend write is still in flight. A dirty victim is
//!   *registered* with the gate while its shard latch is still held —
//!   so at every instant a dirty image is either resident in a shard or
//!   counted in the gate — and deregistered once its backend write
//!   completes. [`ShardedBufferPool::flush`] drains the gate after its
//!   shard sweep: when `flush` returns, every page that was dirty when
//!   it was called has reached the backend, which is what makes `&self`
//!   `sync`/`save_to` sound against concurrent readers. The gate latch
//!   is held only for counter arithmetic, never across I/O (the drain
//!   wait releases it).
//! - **Backend latch (rank 2).** The page-file backend is the maximum of
//!   the order. Per the RSS discipline *latches never span I/O*, no
//!   shard or gate latch is held while the backend latch is taken: a
//!   miss releases the shard, performs the read under the backend latch
//!   alone, then relocks the shard to install the frame. Dirty eviction
//!   victims are removed under the shard latch and written back after it
//!   is released (gated as above).
//!
//! Each latch is built with its [`Rank`], and debug builds check both
//! halves of this contract at every acquisition: the rank order
//! (`latch-ordering`) and no other latch held under the backend latch
//! (`latch-discipline`). See [`crate::sync`].
//!
//! # Frames: recency plus dirty images
//!
//! Tuple data is served from the in-memory segments and B-trees, never
//! from a frame, so a frame needs no bytes to do its job: it records that
//! a page is resident and how recently it was used. A miss still reads
//! the page from the backend and verifies its stamp — the physical read
//! the paper's cost unit counts — into a stack buffer, then keeps only
//! the recency. A frame holds an image only while it is dirty: a
//! [`PageImage`] handle to what [`ShardedBufferPool::write_through`] was
//! given, no copy of it. Eviction and [`ShardedBufferPool::flush`] hand
//! that handle to the backend and drop it.
//!
//! Each shard is an LRU list threaded through a slab by index, with a
//! multiplicative hash from [`PageKey`] to slab slot: a hit is one probe
//! and two relinks, and an eviction's slot is reused by the next miss, so
//! the slab never outgrows the shard by more than one frame. Every
//! access also takes a stamp from the pool-wide clock, under the shard
//! latch, so stamp order is list order within a shard and recency is
//! comparable across shards — [`ShardedBufferPool::resize`] re-partitions
//! in global LRU order.
//!
//! # Benign staleness
//!
//! Dirty frames only arise from `&mut Storage` writers, which the borrow
//! checker already serializes against shared readers. While a dirty
//! victim's write-back is in flight, a concurrent reader of the *same*
//! page may re-read the backend's prior image; that image is always a
//! complete, checksum-valid stamped page, and the reader only verifies
//! it. Persistence itself is *not* allowed the staleness: `flush` drains
//! the write-back gate, so `sync`/`save_to` never observe the prior image
//! of a page that was dirty when they began. Counters are relaxed
//! atomics: exact in any single-threaded window (the accounting identity
//! `page_fetches == backend_reads` that the tests pin), monotonically
//! consistent across threads.

use crate::error::{RssError, RssResult};
use crate::io::{FileId, IoStats, PageKey};
use crate::page::{PageImage, PAGE_SIZE};
use crate::pagefile::{verify_page, PageBackend};
use crate::sync::{model, AtomicU64, Condvar, Mutex, Rank};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// The page-file backend behind its rank-1 latch. `Send` because frames
/// migrate across session threads.
pub type SharedBackend = Mutex<Box<dyn PageBackend + Send>>;

/// Pages per shard below which we stop splitting: tiny pools keep a
/// single shard and behave exactly like one global LRU list, which the
/// buffer-sweep experiments rely on (`crates/rss/tests/buffer_model.rs`
/// checks it against a reference LRU).
const MIN_SHARD_PAGES: usize = 8;

/// Latch-partition count ceiling; 8 matches the widest thread fan-out
/// the stress suite and throughput benchmark drive.
const MAX_SHARDS: usize = 8;

fn shard_count_for(capacity: usize) -> usize {
    (capacity / MIN_SHARD_PAGES).clamp(1, MAX_SHARDS)
}

/// The shard of `key` among `shards`. Striping adds the page number
/// *after* mixing the file id, so consecutive pages of one file land on
/// consecutive shards.
fn shard_of(key: PageKey, shards: usize) -> usize {
    let (variant, id) = match key.file {
        FileId::Segment(i) => (0u64, i),
        FileId::Index(i) => (1, i),
        FileId::Temp(i) => (2, i),
    };
    let base = variant.wrapping_mul(0x9E37_79B9) ^ u64::from(id).wrapping_mul(0x85EB_CA6B);
    (base.wrapping_add(u64::from(key.page)) % shards as u64) as usize
}

/// Shared I/O counters. Relaxed is sufficient: each field is an
/// independent monotonic tally, and windows are only compared within one
/// thread (explain-analyze) or after joining all threads (tests, bench).
#[derive(Debug, Default)]
struct Counters {
    data_page_fetches: AtomicU64,
    index_page_fetches: AtomicU64,
    temp_page_fetches: AtomicU64,
    temp_pages_written: AtomicU64,
    buffer_hits: AtomicU64,
    rsi_calls: AtomicU64,
    backend_reads: AtomicU64,
    backend_writes: AtomicU64,
    temp_lists_created: AtomicU64,
    temp_lists_destroyed: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> IoStats {
        IoStats {
            data_page_fetches: self.data_page_fetches.load(Relaxed),
            index_page_fetches: self.index_page_fetches.load(Relaxed),
            temp_page_fetches: self.temp_page_fetches.load(Relaxed),
            temp_pages_written: self.temp_pages_written.load(Relaxed),
            buffer_hits: self.buffer_hits.load(Relaxed),
            rsi_calls: self.rsi_calls.load(Relaxed),
            backend_reads: self.backend_reads.load(Relaxed),
            backend_writes: self.backend_writes.load(Relaxed),
            temp_lists_created: self.temp_lists_created.load(Relaxed),
            temp_lists_destroyed: self.temp_lists_destroyed.load(Relaxed),
        }
    }

    fn reset(&self) {
        self.data_page_fetches.store(0, Relaxed);
        self.index_page_fetches.store(0, Relaxed);
        self.temp_page_fetches.store(0, Relaxed);
        self.temp_pages_written.store(0, Relaxed);
        self.buffer_hits.store(0, Relaxed);
        self.rsi_calls.store(0, Relaxed);
        self.backend_reads.store(0, Relaxed);
        self.backend_writes.store(0, Relaxed);
        self.temp_lists_created.store(0, Relaxed);
        self.temp_lists_destroyed.store(0, Relaxed);
    }
}

/// A multiplicative (Fx-style) hash: a [`PageKey`] is three small
/// integers, which SipHash's flooding resistance buys nothing for.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Slab link meaning "no frame".
const NIL: u32 = u32::MAX;

/// One resident page: a node of its shard's recency list.
#[derive(Debug)]
struct ShardFrame {
    key: PageKey,
    /// Pool-wide clock value of the last access.
    stamp: u64,
    /// The image awaiting write-back; `None` while the page is clean.
    dirty: Option<PageImage>,
    /// Neighbour towards the least recently used end.
    older: u32,
    /// Neighbour towards the most recently used end.
    newer: u32,
}

/// One latch partition: an LRU list of frames threaded through a slab.
/// `index` maps every resident key to its slot; slots of evicted or
/// dropped frames wait on `free` for reuse.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    index: HashMap<PageKey, u32, BuildHasherDefault<KeyHasher>>,
    slab: Vec<ShardFrame>,
    free: Vec<u32>,
    /// Least recently used frame (the next victim).
    oldest: u32,
    /// Most recently used frame.
    newest: u32,
}

#[expect(
    clippy::indexing_slicing,
    reason = "slab links are issued by this shard and only followed under its latch; `index` and the list name live slots only"
)]
impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            index: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let (older, newer) = {
            let f = &self.slab[i as usize];
            (f.older, f.newer)
        };
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slab[n as usize].older = older,
        }
    }

    /// Put slot `i` at the most recently used end.
    fn push_newest(&mut self, i: u32) {
        let prev = self.newest;
        {
            let f = &mut self.slab[i as usize];
            f.older = prev;
            f.newer = NIL;
        }
        match prev {
            NIL => self.oldest = i,
            p => self.slab[p as usize].newer = i,
        }
        self.newest = i;
    }

    /// Move `key` to most-recently-used; `None` if not resident.
    fn bump(&mut self, key: PageKey, stamp: u64) -> Option<&mut ShardFrame> {
        let i = *self.index.get(&key)?;
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
        let frame = &mut self.slab[i as usize];
        frame.stamp = stamp;
        Some(frame)
    }

    /// Make `key` the most recent frame, returning the LRU victim (key
    /// and dirty image) if the shard is now over capacity. A key already
    /// resident — a racing reader installed it first — is only bumped.
    /// The caller writes dirty victims back *after* releasing this
    /// shard's latch.
    fn install(
        &mut self,
        key: PageKey,
        stamp: u64,
        dirty: Option<PageImage>,
    ) -> Option<(PageKey, Option<PageImage>)> {
        if self.bump(key, stamp).is_some() {
            return None;
        }
        let frame = ShardFrame { key, stamp, dirty, older: NIL, newer: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = frame;
                i
            }
            None => {
                self.slab.push(frame);
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(key, i);
        self.push_newest(i);
        if self.len() > self.capacity {
            self.pop_oldest()
        } else {
            None
        }
    }

    /// Drop frame `i`, returning its key and dirty image.
    fn remove(&mut self, i: u32) -> (PageKey, Option<PageImage>) {
        self.unlink(i);
        self.free.push(i);
        let frame = &mut self.slab[i as usize];
        self.index.remove(&frame.key);
        (frame.key, frame.dirty.take())
    }

    /// Remove and return the least-recently-used frame.
    fn pop_oldest(&mut self) -> Option<(PageKey, Option<PageImage>)> {
        match self.oldest {
            NIL => None,
            i => Some(self.remove(i)),
        }
    }

    /// Every dirty image, in key order (the write-back order).
    fn dirty_images(&self) -> Vec<(PageKey, PageImage)> {
        let mut dirty: Vec<(PageKey, PageImage)> = self
            .index
            .iter()
            .filter_map(|(&key, &i)| self.slab[i as usize].dirty.clone().map(|img| (key, img)))
            .collect();
        dirty.sort_unstable_by_key(|(key, _)| *key);
        dirty
    }

    /// `key` reached the backend as `image`: drop the frame's copy of it,
    /// unless a newer image replaced it meanwhile.
    fn written(&mut self, key: PageKey, image: &PageImage) {
        if let Some(&i) = self.index.get(&key) {
            let dirty = &mut self.slab[i as usize].dirty;
            if dirty.as_ref().is_some_and(|d| Arc::ptr_eq(d, image)) {
                *dirty = None;
            }
        }
    }

    /// Drop every frame of `file`.
    fn invalidate(&mut self, file: FileId) {
        let stale: Vec<u32> =
            self.index.iter().filter(|(k, _)| k.file == file).map(|(_, &i)| i).collect();
        for i in stale {
            self.remove(i);
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Every frame as `(stamp, key, dirty image)`.
    fn frames(&self) -> impl Iterator<Item = (u64, PageKey, Option<PageImage>)> + '_ {
        self.index.values().map(|&i| {
            let f = &self.slab[i as usize];
            (f.stamp, f.key, f.dirty.clone())
        })
    }
}

/// The concurrent frame cache: N latch-guarded LRU partitions over one
/// latched page backend, with lock-free counter accounting.
#[derive(Debug)]
pub struct ShardedBufferPool {
    shards: Vec<Mutex<Shard>>,
    clock: AtomicU64,
    counters: Counters,
    capacity: usize,
    /// Rank-1 write-back gate: dirty eviction victims still in flight to
    /// the backend. See the module docs for the protocol.
    gate: Mutex<usize>,
    /// Signalled whenever the gate count returns to zero.
    gate_drained: Condvar,
}

impl ShardedBufferPool {
    /// A pool holding `capacity` pages split across
    /// `min(max(capacity / 8, 1), 8)` shards. Each shard holds
    /// `ceil(capacity / shards)` pages so a single-file scan that fits
    /// the pool stays fully resident despite striping — see
    /// [`ShardedBufferPool::capacity`] for the over-admission this
    /// rounding implies.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one page");
        let n = shard_count_for(capacity);
        let per_shard = capacity.div_ceil(n);
        ShardedBufferPool {
            shards: (0..n).map(|_| Mutex::ranked(Rank::Shard, Shard::new(per_shard))).collect(),
            clock: AtomicU64::new(0),
            counters: Counters::default(),
            capacity,
            gate: Mutex::ranked(Rank::Gate, 0),
            gate_drained: Condvar::new(),
        }
    }

    /// The configured capacity. Because each of the `n` shards holds
    /// `ceil(capacity / n)` pages (the rounding that keeps a
    /// pool-fitting scan fully resident), actual residency may exceed
    /// this by up to `n - 1` pages when `capacity` is not a multiple of
    /// the shard count — e.g. 17 pages configured admits up to 18.
    /// Buffer-sweep experiments that want exactly `capacity` frames
    /// should use multiples of the shard-count ceiling (`MAX_SHARDS`, 8 —
    /// all the committed sweeps do) or single-shard sizes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Register one dirty eviction victim with the write-back gate.
    /// Called with the victim's shard latch still held, so no window
    /// exists where the dirty image is neither resident nor gated.
    fn gate_register(&self) {
        let mut inflight = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *inflight += 1;
    }

    /// Deregister one victim after its backend write finished (or
    /// failed — the caller surfaces the error; the gate only tracks
    /// in-flight work).
    fn gate_release(&self) {
        let mut inflight = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *inflight = inflight.saturating_sub(1);
        if *inflight == 0 {
            self.gate_drained.notify_all();
        }
    }

    /// Block until no dirty-victim write-back is in flight. The condvar
    /// wait releases the gate latch, so writers are never blocked by a
    /// drainer.
    fn gate_drain(&self) {
        let mut inflight = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *inflight > 0 {
            inflight =
                self.gate_drained.wait(inflight).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed) + 1
    }

    /// The latch slot for `key`'s shard.
    fn shard_slot(&self, key: PageKey) -> RssResult<&Mutex<Shard>> {
        let s = shard_of(key, self.shards.len());
        self.shards.get(s).ok_or_else(|| RssError::Corrupt(format!("shard {s} out of range")))
    }

    fn count_fetch(&self, key: PageKey) {
        match key.file {
            FileId::Segment(_) => self.counters.data_page_fetches.fetch_add(1, Relaxed),
            FileId::Index(_) => self.counters.index_page_fetches.fetch_add(1, Relaxed),
            FileId::Temp(_) => self.counters.temp_page_fetches.fetch_add(1, Relaxed),
        };
    }

    /// Access a page; a miss reads and verifies its image from the page
    /// backend (one physical read), counts a page fetch and installs a
    /// frame that holds no bytes. Returns `true` on a miss.
    pub fn read(&self, key: PageKey, backend: &SharedBackend) -> RssResult<bool> {
        let slot = self.shard_slot(key)?;
        {
            let mut shard = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if shard.bump(key, self.tick()).is_some() {
                self.counters.buffer_hits.fetch_add(1, Relaxed);
                return Ok(false);
            }
        }
        // Miss: the read happens under the backend latch alone.
        let mut buf = [0u8; PAGE_SIZE];
        {
            let mut backend = backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            backend.read_page(key, &mut buf)?;
        }
        verify_page(&buf, key)?;
        self.counters.backend_reads.fetch_add(1, Relaxed);
        self.count_fetch(key);
        // Relock to install. A racing reader may have installed the same
        // page meanwhile; both performed a real read and the counters say
        // so — the second install only bumps the frame.
        //
        // `dirty-victim-gate` is the model checker's mutant switch: it
        // re-introduces the pre-cd3b895 ordering (register only after the
        // shard latch drops, deregister before the write) so
        // `sysr-audit --model --mutant dirty-victim-gate` can prove the
        // explorer finds the lost-dirty-image schedule. It reads as
        // `false` on every thread outside the model harness.
        let mutant = model::fault("dirty-victim-gate");
        let victim = {
            let mut shard = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let victim = shard.install(key, self.tick(), None);
            // Register a dirty victim with the write-back gate *before*
            // releasing the shard latch: a concurrent flush that misses
            // the removed frame is guaranteed to see the gate count and
            // wait for the image to reach the backend.
            if victim.as_ref().is_some_and(|(_, dirty)| dirty.is_some()) && !mutant {
                self.gate_register();
            }
            victim
        };
        if let Some((vkey, Some(image))) = victim {
            if mutant {
                // The lost-dirty-image bug, verbatim in gate terms: the
                // dirty image is neither resident nor gated while its
                // write is in flight.
                self.gate_register();
                self.gate_release();
            }
            let written = {
                let mut backend = backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                backend.write_page(vkey, &image)
            };
            // Deregister before surfacing an error so a failed write can
            // never wedge a draining flush.
            if !mutant {
                self.gate_release();
            }
            written?;
            self.counters.backend_writes.fetch_add(1, Relaxed);
        }
        Ok(true)
    }

    /// Write one page image through the pool: if the page is resident
    /// its frame keeps a handle to `image` (dirty, deferred write-back),
    /// otherwise the image goes around the pool to the backend. Writes
    /// never establish residency.
    pub fn write_through(
        &self,
        key: PageKey,
        image: &PageImage,
        backend: &SharedBackend,
    ) -> RssResult<()> {
        let slot = self.shard_slot(key)?;
        {
            let mut shard = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(frame) = shard.bump(key, self.tick()) {
                frame.dirty = Some(Arc::clone(image));
                return Ok(());
            }
        }
        {
            let mut backend = backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            backend.write_page(key, image)?;
        }
        self.counters.backend_writes.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Write every dirty frame back, in key order within each shard,
    /// visiting shards in ascending id. Frames stay resident; each drops
    /// its image once that image has reached the backend, so an I/O
    /// error leaves the remaining pages still dirty.
    ///
    /// After the shard sweep the write-back gate is drained, so when
    /// this returns every page that was dirty at the time of the call —
    /// resident *or* mid-eviction in a concurrent reader — has reached
    /// the backend. `Storage::sync` and `Storage::save_to` rely on this
    /// to be sound from `&self` against concurrent readers.
    pub fn flush(&self, backend: &SharedBackend) -> RssResult<()> {
        for slot in &self.shards {
            let dirty =
                slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).dirty_images();
            for (key, image) in dirty {
                {
                    let mut backend =
                        backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    backend.write_page(key, &image)?;
                }
                self.counters.backend_writes.fetch_add(1, Relaxed);
                let mut shard = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                shard.written(key, &image);
            }
        }
        self.gate_drain();
        Ok(())
    }

    /// Evict everything without write-back (stats are kept). Callers
    /// that may hold dirty frames must [`ShardedBufferPool::flush`]
    /// first.
    pub fn clear(&self) {
        for slot in &self.shards {
            slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
    }

    /// Drop every resident page of `file` (temp-list teardown, index
    /// rebuilds).
    pub fn invalidate_file(&self, file: FileId) {
        for slot in &self.shards {
            slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).invalidate(file);
        }
    }

    /// Number of pages currently resident across all shards.
    pub fn resident_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    /// Change capacity, re-partitioning if the shard count changes.
    /// Growing keeps every resident page; shrinking evicts in global LRU
    /// order, writing dirty victims back through `backend`. All or
    /// nothing: the victims are written before the new partition
    /// replaces the old, so on a write error the pool keeps its old
    /// shards and every dirty image in them. Requires exclusive access —
    /// capacity is a `&mut Database` configuration action, never a
    /// serving-path one.
    pub fn resize(&mut self, capacity: usize, backend: &SharedBackend) -> RssResult<()> {
        assert!(capacity > 0, "buffer pool needs at least one page");
        let n = shard_count_for(capacity);
        let per_shard = capacity.div_ceil(n);
        // Every frame in ascending stamp order: true LRU recency across
        // the re-partition (the clock is pool-wide).
        let mut all: Vec<(u64, PageKey, Option<PageImage>)> = Vec::new();
        for slot in &mut self.shards {
            all.extend(slot.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner).frames());
        }
        all.sort_unstable_by_key(|(stamp, _, _)| *stamp);
        let mut shards: Vec<Shard> = (0..n).map(|_| Shard::new(per_shard)).collect();
        let mut victims = Vec::new();
        for (stamp, key, dirty) in all {
            let s = shard_of(key, n);
            let shard = shards
                .get_mut(s)
                .ok_or_else(|| RssError::Corrupt(format!("shard {s} out of range")))?;
            if let Some((vkey, Some(image))) = shard.install(key, stamp, dirty) {
                victims.push((vkey, image));
            }
        }
        for (key, image) in victims {
            {
                let mut backend = backend.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                backend.write_page(key, &image)?;
            }
            self.counters.backend_writes.fetch_add(1, Relaxed);
        }
        self.shards = shards.into_iter().map(|s| Mutex::ranked(Rank::Shard, s)).collect();
        self.capacity = capacity;
        Ok(())
    }

    /// Record `n` tuples crossing the RSI in one NEXT (lock-free: the
    /// executor's hot path): one call per returned tuple, one atomic add.
    pub fn record_rsi_calls(&self, n: u64) {
        self.counters.rsi_calls.fetch_add(n, Relaxed);
    }

    /// Record `pages` temporary pages written.
    pub fn record_temp_write(&self, pages: u64) {
        self.counters.temp_pages_written.fetch_add(pages, Relaxed);
    }

    /// Record a temporary list coming into existence.
    pub fn record_temp_list_created(&self) {
        self.counters.temp_lists_created.fetch_add(1, Relaxed);
    }

    /// Record a temporary list being destroyed.
    pub fn record_temp_list_destroyed(&self) {
        self.counters.temp_lists_destroyed.fetch_add(1, Relaxed);
    }

    pub fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    pub fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagefile::{stamp_page, FaultBackend, FaultOp, FileKind, MemBackend};

    fn file(i: u32) -> FileId {
        FileId::Segment(i)
    }

    /// A stamped image whose last byte is `marker`.
    fn image(marker: u8, lsn: u32) -> PageImage {
        let mut img = [0u8; PAGE_SIZE];
        img[PAGE_SIZE - 1] = marker;
        stamp_page(&mut img, lsn);
        Arc::new(img)
    }

    /// `backend` pre-loaded with `pages` stamped pages of `file(0)`.
    fn preloaded(mut b: impl PageBackend + Send + 'static, pages: u32) -> SharedBackend {
        for p in 0..pages {
            b.write_page(PageKey::new(file(0), p), &image(p as u8, p + 1)).unwrap();
        }
        Mutex::ranked(Rank::Backend, Box::new(b) as Box<dyn PageBackend + Send>)
    }

    /// The last byte of `key`'s image in the backend.
    fn backend_marker(backend: &SharedBackend, key: PageKey) -> u8 {
        let mut buf = [0u8; PAGE_SIZE];
        backend.lock().unwrap().read_page(key, &mut buf).unwrap();
        buf[PAGE_SIZE - 1]
    }

    /// The dirty image `key`'s frame holds: `None` if the frame is clean,
    /// and a panic if the page is not resident.
    fn frame_image(pool: &ShardedBufferPool, key: PageKey) -> Option<PageImage> {
        let shard = pool.shard_slot(key).unwrap().lock().unwrap();
        let i = shard.index[&key];
        shard.slab[i as usize].dirty.clone()
    }

    fn backend_with(pages: u32) -> SharedBackend {
        preloaded(MemBackend::new(), pages)
    }

    #[test]
    fn shard_count_scales_and_clamps() {
        assert_eq!(ShardedBufferPool::new(4).shard_count(), 1);
        assert_eq!(ShardedBufferPool::new(8).shard_count(), 1);
        assert_eq!(ShardedBufferPool::new(16).shard_count(), 2);
        assert_eq!(ShardedBufferPool::new(64).shard_count(), 8);
        assert_eq!(ShardedBufferPool::new(1024).shard_count(), 8);
    }

    #[test]
    fn miss_then_hit_accounting() {
        let backend = backend_with(4);
        let pool = ShardedBufferPool::new(8);
        let key = PageKey::new(file(0), 0);
        assert!(pool.read(key, &backend).unwrap(), "first access misses");
        assert!(!pool.read(key, &backend).unwrap(), "second access hits");
        let s = pool.stats();
        assert_eq!(s.data_page_fetches, 1);
        assert_eq!(s.backend_reads, 1);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.page_fetches(), s.backend_reads, "accounting identity");
    }

    #[test]
    fn sequential_scan_fitting_the_pool_stays_resident() {
        let backend = backend_with(16);
        let pool = ShardedBufferPool::new(16);
        assert_eq!(pool.shard_count(), 2);
        for p in 0..16 {
            pool.read(PageKey::new(file(0), p), &backend).unwrap();
        }
        // Second pass: all hits — striping must not evict a fitting scan.
        for p in 0..16 {
            assert!(!pool.read(PageKey::new(file(0), p), &backend).unwrap());
        }
        assert_eq!(pool.stats().buffer_hits, 16);
        assert_eq!(pool.resident_pages(), 16);
    }

    #[test]
    fn dirty_eviction_writes_back_and_rereads() {
        let backend = backend_with(3);
        let pool = ShardedBufferPool::new(2);
        let k0 = PageKey::new(file(0), 0);
        pool.read(k0, &backend).unwrap();
        pool.write_through(k0, &image(0xAB, 99), &backend).unwrap();
        assert_eq!(pool.stats().backend_writes, 0, "resident write defers");
        assert_eq!(backend_marker(&backend, k0), 0, "the backend still holds the old image");
        // Force k0 out (capacity 2, single shard at this size).
        pool.read(PageKey::new(file(0), 1), &backend).unwrap();
        pool.read(PageKey::new(file(0), 2), &backend).unwrap();
        assert_eq!(pool.stats().backend_writes, 1, "dirty victim written back");
        assert_eq!(backend_marker(&backend, k0), 0xAB, "the backend holds the written image");
        // A re-read is a miss that verifies the written-back image.
        assert!(pool.read(k0, &backend).unwrap());
        assert_eq!(frame_image(&pool, k0), None, "and keeps no bytes");
    }

    #[test]
    fn a_miss_installs_no_image() {
        let backend = backend_with(4);
        let pool = ShardedBufferPool::new(8);
        for p in 0..4 {
            let key = PageKey::new(file(0), p);
            assert!(pool.read(key, &backend).unwrap());
            assert_eq!(frame_image(&pool, key), None, "page {p}");
        }
        assert_eq!(pool.resident_pages(), 4);
    }

    /// A resident write keeps a handle to exactly the image it was given
    /// (no copy), a second write replaces it, and `flush` drops it once
    /// it has reached the backend.
    #[test]
    fn write_through_holds_the_written_image_until_flush() {
        let backend = backend_with(2);
        let pool = ShardedBufferPool::new(8);
        let k0 = PageKey::new(file(0), 0);
        pool.read(k0, &backend).unwrap();
        let first = image(0x11, 50);
        pool.write_through(k0, &first, &backend).unwrap();
        assert!(Arc::ptr_eq(&frame_image(&pool, k0).unwrap(), &first), "a handle, not a copy");
        let second = image(0x22, 51);
        pool.write_through(k0, &second, &backend).unwrap();
        assert!(Arc::ptr_eq(&frame_image(&pool, k0).unwrap(), &second));
        assert_eq!(Arc::strong_count(&first), 1, "the replaced image is released");
        pool.flush(&backend).unwrap();
        assert_eq!(frame_image(&pool, k0), None, "flush drops the image");
        assert_eq!(pool.resident_pages(), 1, "but keeps the frame");
        assert_eq!(backend_marker(&backend, k0), 0x22);
        assert_eq!(pool.stats().backend_writes, 1, "only the last image is written");
    }

    #[test]
    fn failed_miss_installs_nothing_and_counts_nothing() {
        let backend = preloaded(FaultBackend::failing_nth(FaultOp::Read, FileKind::Segment, 1), 4);
        let pool = ShardedBufferPool::new(8);
        let (k0, k1) = (PageKey::new(file(0), 0), PageKey::new(file(0), 1));
        pool.read(k0, &backend).unwrap();
        let before = pool.stats();
        let err = pool.read(k1, &backend).unwrap_err();
        assert!(matches!(err, RssError::Io(_)), "got {err:?}");
        assert_eq!(pool.stats(), before, "a failed miss moves no counter");
        assert_eq!(pool.resident_pages(), 1, "and installs no frame");
        assert!(pool.read(k1, &backend).unwrap(), "the retry is a miss, and succeeds");
        assert_eq!(pool.stats().backend_reads, before.backend_reads + 1);
    }

    /// A dirty victim whose write-back fails: the evicting read returns
    /// the error, and the write-back gate is back at zero — a `flush`
    /// after it returns instead of waiting for a write that will never
    /// be deregistered.
    #[test]
    fn failed_dirty_victim_writeback_releases_the_gate() {
        // Writes 0..3 are the preload; write 3 is the victim's write-back.
        let backend = preloaded(FaultBackend::failing_nth(FaultOp::Write, FileKind::Segment, 3), 3);
        let pool = ShardedBufferPool::new(2);
        let k0 = PageKey::new(file(0), 0);
        pool.read(k0, &backend).unwrap();
        pool.write_through(k0, &image(0, 99), &backend).unwrap();
        pool.read(PageKey::new(file(0), 1), &backend).unwrap();
        let err = pool.read(PageKey::new(file(0), 2), &backend).unwrap_err();
        assert!(matches!(err, RssError::Io(_)), "got {err:?}");
        assert_eq!(pool.stats().backend_writes, 0, "the failed write is not counted");
        assert_eq!(*pool.gate.lock().unwrap(), 0, "gate must not stay registered");
        pool.flush(&backend).unwrap();
    }

    #[test]
    fn write_around_when_not_resident() {
        let backend = backend_with(1);
        let pool = ShardedBufferPool::new(4);
        pool.write_through(PageKey::new(file(0), 0), &image(0, 7), &backend).unwrap();
        assert_eq!(pool.stats().backend_writes, 1, "write-around goes straight down");
        assert_eq!(pool.resident_pages(), 0, "writes never establish residency");
    }

    #[test]
    fn flush_clears_dirty_and_keeps_frames() {
        let backend = backend_with(4);
        let pool = ShardedBufferPool::new(8);
        for p in 0..4 {
            pool.read(PageKey::new(file(0), p), &backend).unwrap();
            pool.write_through(PageKey::new(file(0), p), &image(0, 50 + p), &backend).unwrap();
        }
        pool.flush(&backend).unwrap();
        assert_eq!(pool.stats().backend_writes, 4);
        assert_eq!(pool.resident_pages(), 4, "flush keeps frames resident");
        pool.flush(&backend).unwrap();
        assert_eq!(pool.stats().backend_writes, 4, "second flush finds nothing dirty");
    }

    #[test]
    fn resize_preserves_recency_across_repartition() {
        let backend = backend_with(16);
        let mut pool = ShardedBufferPool::new(16);
        for p in 0..16 {
            pool.read(PageKey::new(file(0), p), &backend).unwrap();
        }
        // Touch page 0 so it is most recent, then shrink to 8 pages
        // (1 shard): the 8 survivors must be the 8 most recent.
        pool.read(PageKey::new(file(0), 0), &backend).unwrap();
        pool.resize(8, &backend).unwrap();
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.resident_pages(), 8);
        assert!(!pool.read(PageKey::new(file(0), 0), &backend).unwrap(), "MRU page survived");
        assert!(pool.read(PageKey::new(file(0), 1), &backend).unwrap(), "LRU page was evicted");
    }

    /// A shrink whose first dirty-victim write fails loses nothing: the
    /// pool keeps its old shards, every dirty image in them, and its
    /// capacity, so the next flush brings the backend up to date.
    #[test]
    fn failed_resize_keeps_every_dirty_page() {
        // Writes 0..16 are the preload; write 16 is the first victim's.
        let backend =
            preloaded(FaultBackend::failing_nth(FaultOp::Write, FileKind::Segment, 16), 16);
        let mut pool = ShardedBufferPool::new(16);
        for p in 0..16 {
            let key = PageKey::new(file(0), p);
            pool.read(key, &backend).unwrap();
            pool.write_through(key, &image(0x80 + p as u8, 100 + p), &backend).unwrap();
        }
        let err = pool.resize(4, &backend).unwrap_err();
        assert!(matches!(err, RssError::Io(_)), "got {err:?}");
        assert_eq!((pool.capacity(), pool.shard_count(), pool.resident_pages()), (16, 2, 16));
        pool.flush(&backend).unwrap();
        for p in 0..16 {
            let marker = backend_marker(&backend, PageKey::new(file(0), p));
            assert_eq!(marker, 0x80 + p as u8, "page {p} lost its dirty image");
        }
        pool.resize(4, &backend).unwrap();
        assert_eq!((pool.capacity(), pool.resident_pages()), (4, 4));
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let backend = backend_with(4);
        let pool = ShardedBufferPool::new(8);
        pool.read(PageKey::new(file(0), 0), &backend).unwrap();
        pool.record_temp_write(1);
        pool.invalidate_file(FileId::Temp(0));
        assert_eq!(pool.resident_pages(), 1);
        pool.invalidate_file(file(0));
        assert_eq!(pool.resident_pages(), 0);
    }

    /// The dirty-victim/flush race: a reader evicting a dirty frame
    /// removes it from its shard and writes it back only after the
    /// latch drops. `flush` must not return in that window believing
    /// everything clean — the write-back gate makes it wait. Each round
    /// dirties the whole pool, races evicting readers against a flush,
    /// and checks the backend holds every dirtied image the moment
    /// `flush` returns.
    #[test]
    fn flush_waits_for_inflight_dirty_victim_writebacks() {
        const PAGES: u32 = 32;
        const DIRTY: u32 = 8; // == pool capacity, single shard
        let backend = backend_with(PAGES);
        let pool = ShardedBufferPool::new(DIRTY as usize);
        for round in 0u32..20 {
            let marker = 0x40 + (round % 64) as u8;
            for p in 0..DIRTY {
                let key = PageKey::new(file(0), p);
                pool.read(key, &backend).unwrap();
                pool.write_through(key, &image(marker, 1000 + u32::from(marker)), &backend)
                    .unwrap();
            }
            std::thread::scope(|scope| {
                for t in 0..3u32 {
                    let pool = &pool;
                    let backend = &backend;
                    scope.spawn(move || {
                        // Misses on pages ≥ DIRTY evict the dirty frames.
                        for p in DIRTY..PAGES {
                            let page = DIRTY + (p - DIRTY + t) % (PAGES - DIRTY);
                            pool.read(PageKey::new(file(0), page), backend).unwrap();
                        }
                    });
                }
                pool.flush(&backend).unwrap();
                // flush returned: every image dirtied before it was
                // called must already be in the backend, evicted or not.
                for p in 0..DIRTY {
                    assert_eq!(
                        backend_marker(&backend, PageKey::new(file(0), p)),
                        marker,
                        "round {round}: page {p} image missing from backend after flush"
                    );
                }
            });
        }
    }

    #[test]
    fn concurrent_readers_account_exactly() {
        const THREADS: u64 = 8;
        const PAGES: u32 = 32;
        const ROUNDS: u32 = 20;
        let backend = backend_with(PAGES);
        let pool = ShardedBufferPool::new(16); // smaller than the working set
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                let backend = &backend;
                scope.spawn(move || {
                    for r in 0..ROUNDS {
                        for p in 0..PAGES {
                            let page = (p + r + t as u32) % PAGES;
                            pool.read(PageKey::new(file(0), page), backend).unwrap();
                        }
                    }
                });
            }
        });
        let s = pool.stats();
        let accesses = THREADS * u64::from(PAGES) * u64::from(ROUNDS);
        assert_eq!(s.buffer_hits + s.data_page_fetches, accesses, "every access counted once");
        assert_eq!(s.backend_reads, s.data_page_fetches, "every miss is one physical read");
        assert!(pool.resident_pages() <= 16, "capacity respected under concurrency");
    }
}
