//! Model-based property test for the buffer pool: the LRU implementation
//! (per shard, a recency list threaded through a slab and indexed by a
//! hash of the page key) must agree, operation for operation, with a
//! trivially correct reference model (a Vec ordered by recency). Capacities
//! 1–9 keep [`ShardedBufferPool`] at one shard, where it is a single global
//! LRU list.
//!
//! Writes, flushes and resizes ride along: the model remembers the last
//! image written to each page and whether the pool still holds it dirty,
//! and after every flush and every eviction the backend must hold exactly
//! the images the model says have been written back.

use std::collections::HashMap;
use sysr_rss::pagefile::stamp_page;
use sysr_rss::sync::Rank;
use sysr_rss::{
    FileId, MemBackend, PageImage, PageKey, ShardedBufferPool, SharedBackend, SplitMix64, PAGE_SIZE,
};

/// The obviously-correct reference: a recency-ordered vector of resident
/// pages, each with the marker of the dirty image it holds, and the
/// marker of the image each page has in the backend.
struct ModelLru {
    capacity: usize,
    pages: Vec<(PageKey, Option<u8>)>, // most recent last
    backend: HashMap<PageKey, u8>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru { capacity, pages: Vec::new(), backend: HashMap::new() }
    }

    /// Move `key` to most recent, returning its dirty marker slot; `None`
    /// if it is not resident.
    fn bump(&mut self, key: PageKey) -> Option<&mut Option<u8>> {
        let pos = self.pages.iter().position(|&(k, _)| k == key)?;
        let frame = self.pages.remove(pos);
        self.pages.push(frame);
        self.pages.last_mut().map(|(_, dirty)| dirty)
    }

    /// Evict down to capacity, writing dirty victims back. Returns the
    /// evicted keys.
    fn evict(&mut self) -> Vec<PageKey> {
        let mut victims = Vec::new();
        while self.pages.len() > self.capacity {
            let (key, dirty) = self.pages.remove(0);
            if let Some(marker) = dirty {
                self.backend.insert(key, marker);
            }
            victims.push(key);
        }
        victims
    }

    /// Returns true on a miss, with the evicted keys.
    fn access(&mut self, key: PageKey) -> (bool, Vec<PageKey>) {
        if self.bump(key).is_some() {
            return (false, Vec::new());
        }
        self.pages.push((key, None));
        (true, self.evict())
    }

    fn write(&mut self, key: PageKey, marker: u8) {
        match self.bump(key) {
            Some(dirty) => *dirty = Some(marker),
            None => {
                self.backend.insert(key, marker);
            }
        }
    }

    fn flush(&mut self) {
        for (key, dirty) in &mut self.pages {
            if let Some(marker) = dirty.take() {
                self.backend.insert(*key, marker);
            }
        }
    }

    fn resize(&mut self, capacity: usize) -> Vec<PageKey> {
        self.capacity = capacity;
        self.evict()
    }

    fn invalidate(&mut self, file: FileId) {
        self.pages.retain(|(k, _)| k.file != file);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(PageKey),
    Write(PageKey, u8),
    Flush,
    Resize(usize),
    InvalidateFile(FileId),
    Clear,
}

fn arb_key(rng: &mut SplitMix64) -> PageKey {
    let id = rng.below(3) as u32;
    let file = match rng.below(3) {
        0 => FileId::Segment(id),
        1 => FileId::Index(id),
        _ => FileId::Temp(id),
    };
    PageKey::new(file, rng.below(12) as u32)
}

fn arb_op(rng: &mut SplitMix64) -> Op {
    // 12 access : 4 write : 1 flush : 1 resize : 1 invalidate : 1 clear.
    match rng.below(20) {
        0..=11 => Op::Access(arb_key(rng)),
        12..=15 => Op::Write(arb_key(rng), 1 + rng.below(255) as u8),
        16 => Op::Flush,
        17 => Op::Resize(1 + rng.below(9) as usize),
        18 => {
            let id = rng.below(3) as u32;
            Op::InvalidateFile(if rng.bool() { FileId::Segment(id) } else { FileId::Temp(id) })
        }
        _ => Op::Clear,
    }
}

/// A stamped page image whose last byte is `marker`.
fn image(marker: u8) -> PageImage {
    let mut img = [0u8; PAGE_SIZE];
    img[PAGE_SIZE - 1] = marker;
    stamp_page(&mut img, u32::from(marker));
    PageImage::new(img)
}

/// The marker of `key`'s image in the backend (0 for a never-written
/// page, which reads back as an all-zero gap).
fn stored_marker(backend: &SharedBackend, key: PageKey) -> u8 {
    let mut buf = [0u8; PAGE_SIZE];
    backend.lock().unwrap().read_page(key, &mut buf).unwrap();
    buf[PAGE_SIZE - 1]
}

/// The backend holds what the model says was written back to `keys`.
fn check_backend<'k>(
    backend: &SharedBackend,
    model: &ModelLru,
    keys: impl IntoIterator<Item = &'k PageKey>,
    case: u64,
) {
    for key in keys {
        let want = model.backend.get(key).copied().unwrap_or(0);
        assert_eq!(stored_marker(backend, *key), want, "case {case}: backend image of {key:?}");
    }
}

#[test]
fn pool_matches_reference_model() {
    let mut rng = SplitMix64::new(0xBFFE_0001);
    for case in 0..128u64 {
        let capacity = 1 + rng.below(9) as usize;
        let n_ops = 1 + rng.below(399) as usize;
        let mut pool = ShardedBufferPool::new(capacity);
        assert_eq!(pool.shard_count(), 1, "case {case}: capacity {capacity}");
        // Never-written pages read back as all-zero images, which verify.
        let backend = SharedBackend::ranked(Rank::Backend, Box::new(MemBackend::new()));
        let mut model = ModelLru::new(capacity);
        let mut misses = 0u64;
        let mut hits = 0u64;
        for _ in 0..n_ops {
            let op = arb_op(&mut rng);
            match op {
                Op::Access(key) => {
                    let miss = pool.read(key, &backend).unwrap();
                    let (model_miss, evicted) = model.access(key);
                    assert_eq!(miss, model_miss, "case {case}: divergence on {key:?}");
                    if miss {
                        misses += 1
                    } else {
                        hits += 1
                    }
                    check_backend(&backend, &model, &evicted, case);
                }
                Op::Write(key, marker) => {
                    pool.write_through(key, &image(marker), &backend).unwrap();
                    model.write(key, marker);
                    check_backend(&backend, &model, [&key], case);
                }
                Op::Flush => {
                    pool.flush(&backend).unwrap();
                    model.flush();
                    check_backend(&backend, &model, model.backend.keys(), case);
                }
                Op::Resize(capacity) => {
                    pool.resize(capacity, &backend).unwrap();
                    let evicted = model.resize(capacity);
                    assert_eq!(pool.capacity(), capacity, "case {case}");
                    check_backend(&backend, &model, &evicted, case);
                }
                Op::InvalidateFile(file) => {
                    pool.invalidate_file(file);
                    model.invalidate(file);
                }
                Op::Clear => {
                    pool.clear();
                    model.pages.clear();
                }
            }
            assert_eq!(pool.resident_pages(), model.pages.len(), "case {case} after {op:?}");
            assert!(pool.resident_pages() <= pool.capacity(), "case {case}");
        }
        let stats = pool.stats();
        assert_eq!(stats.page_fetches(), misses, "case {case}");
        assert_eq!(stats.buffer_hits, hits, "case {case}");
        // Whatever is still dirty reaches the backend on a last flush.
        pool.flush(&backend).unwrap();
        model.flush();
        check_backend(&backend, &model, model.backend.keys(), case);
    }
}
