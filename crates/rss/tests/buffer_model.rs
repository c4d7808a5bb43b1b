//! Model-based property test for the buffer pool: the LRU implementation
//! (HashMap + BTreeMap recency index per shard) must agree, access for
//! access, with a trivially correct reference model (a Vec ordered by
//! recency). Capacities 1–9 keep [`ShardedBufferPool`] at one shard, where
//! it is a single global LRU list.

use sysr_rss::{FileId, MemBackend, PageKey, ShardedBufferPool, SharedBackend, SplitMix64};

/// The obviously-correct reference: a recency-ordered vector.
struct ModelLru {
    capacity: usize,
    pages: Vec<PageKey>, // most recent last
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru { capacity, pages: Vec::new() }
    }

    /// Returns true on a miss.
    fn access(&mut self, key: PageKey) -> bool {
        if let Some(pos) = self.pages.iter().position(|&k| k == key) {
            self.pages.remove(pos);
            self.pages.push(key);
            false
        } else {
            self.pages.push(key);
            if self.pages.len() > self.capacity {
                self.pages.remove(0);
            }
            true
        }
    }

    fn invalidate(&mut self, file: FileId) {
        self.pages.retain(|k| k.file != file);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(PageKey),
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
    // Weights as in the original strategy: 8 access : 1 invalidate : 1 clear.
    match rng.below(10) {
        0..=7 => Op::Access(arb_key(rng)),
        8 => {
            let id = rng.below(3) as u32;
            Op::InvalidateFile(if rng.bool() { FileId::Segment(id) } else { FileId::Temp(id) })
        }
        _ => Op::Clear,
    }
}

#[test]
fn pool_matches_reference_model() {
    let mut rng = SplitMix64::new(0xBFFE_0001);
    for case in 0..128u64 {
        let capacity = 1 + rng.below(9) as usize;
        let n_ops = 1 + rng.below(399) as usize;
        let pool = ShardedBufferPool::new(capacity);
        assert_eq!(pool.shard_count(), 1, "case {case}: capacity {capacity}");
        // Never-written pages read back as all-zero images, which verify.
        let backend = SharedBackend::new(Box::new(MemBackend::new()));
        let mut model = ModelLru::new(capacity);
        let mut misses = 0u64;
        let mut hits = 0u64;
        for _ in 0..n_ops {
            match arb_op(&mut rng) {
                Op::Access(key) => {
                    let miss = pool.read(key, &backend).unwrap();
                    let model_miss = model.access(key);
                    assert_eq!(
                        miss, model_miss,
                        "case {case}: divergence on {key:?} (capacity {capacity})"
                    );
                    if miss {
                        misses += 1
                    } else {
                        hits += 1
                    }
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
            assert_eq!(pool.resident_pages(), model.pages.len(), "case {case}");
            assert!(pool.resident_pages() <= capacity, "case {case}");
        }
        let stats = pool.stats();
        assert_eq!(stats.page_fetches(), misses, "case {case}");
        assert_eq!(stats.buffer_hits, hits, "case {case}");
    }
}
