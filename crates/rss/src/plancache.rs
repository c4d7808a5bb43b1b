//! The statement plan cache as a concurrent, catalog-versioned map.
//!
//! Optimizing a repeated statement is pure waste when nothing the
//! optimizer reads has changed, so plans are cached keyed by the
//! statement's SQL text and stamped with the catalog version they were
//! optimized under (`Catalog::version` in `sysr-catalog`; the cache
//! lives here in `sysr-rss` so the model checker can drive it without a
//! dependency cycle). The cache is striped: each stripe is an independent
//! `Mutex`-guarded map (keys hash to stripes), so concurrent sessions
//! planning different statements rarely contend, while hit/miss counters
//! are lock-free atomics that never lose an update.
//!
//! Version checking happens *inside* the stripe latch: a lookup under
//! version `v` either returns a value stamped exactly `v` or nothing —
//! no thread can be served a plan from before a catalog bump it has
//! already observed. Stale entries are discarded lazily on lookup.
//!
//! The cache is generic over the cached value so the concurrency tests
//! can drive it with self-describing payloads; the database instantiates
//! it with `Arc<QueryPlan>`, so the clone a hit returns is a refcount.
//!
//! Stripe latches and the hit/miss atomics go through [`crate::sync`],
//! so `sysr-audit --model` can exhaustively interleave lookups, inserts,
//! and version bumps (DESIGN.md §12).

use crate::sync::{AtomicU64, Mutex, Rank};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;

/// Stripe count: matches the widest session fan-out the stress suite
/// drives; keys spread uniformly via FNV-1a.
const STRIPES: usize = 8;

/// Total entry cap across stripes: repeated-statement workloads fit
/// easily; when an adhoc workload overflows a stripe, one resident
/// entry of that stripe is evicted to make room (planning again is
/// cheap — this just bounds memory, so a burst of one-off statements
/// cannot wipe a hot statement's plan 16 entries at a time).
pub const PLAN_CACHE_CAP: usize = 128;

struct Entry<V> {
    value: V,
    version: u64,
}

/// A concurrent map of `key → (value, version)` with exact hit/miss
/// accounting. See the module docs for the invariants.
pub struct VersionedCache<V> {
    stripes: Vec<Mutex<HashMap<String, Entry<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for VersionedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> VersionedCache<V> {
    pub fn new() -> Self {
        VersionedCache {
            stripes: (0..STRIPES).map(|_| Mutex::ranked(Rank::Shard, HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stripe `key` hashes to. `h % len` is always in range, so the
    /// `Option` is `None` only for an (impossible) zero-stripe cache;
    /// callers degrade to a cache miss rather than panic.
    fn stripe(&self, key: &str) -> Option<&Mutex<HashMap<String, Entry<V>>>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        let i = (h % self.stripes.len().max(1) as u64) as usize;
        self.stripes.get(i)
    }

    /// Cumulative `(hits, misses)`. Exact: every lookup that returns a
    /// value counts one hit, every insert counts one miss, and both are
    /// single atomic increments.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry, keeping the counters (they describe the
    /// session, not the cache contents).
    pub fn clear_entries(&self) {
        for s in &self.stripes {
            s.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        }
    }
}

impl<V: Clone> VersionedCache<V> {
    /// Return the cached value for `key` if it was stamped with exactly
    /// `version`; a mismatched entry is dropped (the caller will
    /// re-derive and re-insert). Counts a hit only when a value is
    /// returned.
    pub fn lookup(&self, key: &str, version: u64) -> Option<V> {
        let mut map = self.stripe(key)?.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match map.get(key) {
            Some(entry) if entry.version == version => {
                let value = entry.value.clone();
                drop(map);
                self.hits.fetch_add(1, Relaxed);
                Some(value)
            }
            Some(_) => {
                map.remove(key);
                None
            }
            None => None,
        }
    }

    /// Cache `value` under `key`, stamped with `version`, counting one
    /// miss (the caller just derived the value because lookup returned
    /// nothing).
    pub fn insert(&self, key: String, version: u64, value: V) {
        self.misses.fetch_add(1, Relaxed);
        let Some(stripe) = self.stripe(&key) else { return };
        let mut map = stripe.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if map.len() >= PLAN_CACHE_CAP / STRIPES && !map.contains_key(&key) {
            // The cap is a memory bound, not an eviction policy: make
            // room by dropping one arbitrary resident entry rather than
            // the whole stripe, so adhoc churn evicts at most one plan
            // per insert.
            if let Some(evict) = map.keys().next().cloned() {
                map.remove(&evict);
            }
        }
        map.insert(key, Entry { value, version });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stripe identity as a raw pointer, for grouping keys by stripe.
    fn stripe_ptr<V>(cache: &VersionedCache<V>, key: &str) -> *const () {
        cache.stripe(key).map_or(std::ptr::null(), |m| std::ptr::from_ref(m).cast())
    }

    #[test]
    fn lookup_counts_hits_and_inserts_count_misses() {
        let cache = VersionedCache::new();
        assert_eq!(cache.lookup("q", 0), None);
        assert_eq!(cache.stats(), (0, 0), "a bare miss lookup counts nothing yet");
        cache.insert("q".into(), 0, 41);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.lookup("q", 0), Some(41));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn version_mismatch_invalidates_lazily() {
        let cache = VersionedCache::new();
        cache.insert("q".into(), 3, 1);
        assert_eq!(cache.lookup("q", 4), None, "stale stamp never served");
        assert_eq!(cache.len(), 0, "stale entry dropped on sight");
        assert_eq!(cache.stats().0, 0, "stale lookup is not a hit");
    }

    #[test]
    fn overflow_stays_bounded_without_emptying() {
        let cache = VersionedCache::new();
        for i in 0..PLAN_CACHE_CAP * 2 {
            cache.insert(format!("q{i}"), 0, i);
        }
        assert!(cache.len() <= PLAN_CACHE_CAP, "cap bounds memory");
        assert!(!cache.is_empty(), "overflow evicts per entry, never wholesale");
    }

    #[test]
    fn stripe_overflow_evicts_exactly_one_entry() {
        let cache = VersionedCache::new();
        let per_stripe = PLAN_CACHE_CAP / STRIPES;
        // Collect keys that all hash to one stripe (compare slot identity).
        let target = stripe_ptr(&cache, "q0");
        let keys: Vec<String> = (0..)
            .map(|i: u32| format!("q{i}"))
            .filter(|k| stripe_ptr(&cache, k) == target)
            .take(per_stripe + 1)
            .collect();
        for k in &keys[..per_stripe] {
            cache.insert(k.clone(), 0, 1);
        }
        assert_eq!(cache.len(), per_stripe, "stripe filled to its share of the cap");
        cache.insert(keys[per_stripe].clone(), 0, 2);
        assert_eq!(cache.len(), per_stripe, "one in, one out — the stripe is not wiped");
        assert_eq!(cache.lookup(&keys[per_stripe], 0), Some(2), "new entry resident");
        let survivors = keys[..per_stripe].iter().filter(|k| cache.lookup(k, 0).is_some()).count();
        assert_eq!(survivors, per_stripe - 1, "exactly one prior entry was evicted");
    }

    #[test]
    fn reinserting_resident_key_at_cap_evicts_nothing() {
        let cache = VersionedCache::new();
        let per_stripe = PLAN_CACHE_CAP / STRIPES;
        let target = stripe_ptr(&cache, "q0");
        let keys: Vec<String> = (0..)
            .map(|i: u32| format!("q{i}"))
            .filter(|k| stripe_ptr(&cache, k) == target)
            .take(per_stripe)
            .collect();
        for k in &keys {
            cache.insert(k.clone(), 0, 1);
        }
        // Re-stamping a resident key (e.g. after a version bump) must
        // not evict a neighbour: the map does not grow.
        cache.insert(keys[0].clone(), 1, 7);
        assert_eq!(cache.len(), per_stripe);
        let survivors = keys
            .iter()
            .enumerate()
            .filter(|(i, k)| cache.lookup(k, if *i == 0 { 1 } else { 0 }).is_some())
            .count();
        assert_eq!(survivors, per_stripe, "every entry still resident");
    }
}
