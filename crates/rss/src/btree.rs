//! B-tree indexes.
//!
//! System R indexes "are implemented as B-trees, whose leaves are pages
//! containing sets of (key, identifiers of tuples which contain that key)",
//! with leaf pages chained "so that NEXTs need not reference any upper
//! level pages of the index" (paper, Section 3).
//!
//! This implementation keeps every node in an arena where the arena slot
//! number doubles as the node's **page number** — so the scan layer can
//! charge index page fetches to the buffer pool exactly as a disk-resident
//! B-tree would incur them: the root-to-leaf path once per probe, then one
//! touch per leaf while walking the chain. Since the page-file backend
//! landed, the page numbering is literal: every node serializes into the
//! payload of one 4 KB page ([`BTreeIndex::encode_node_page`]) and a tree
//! is rebuilt from those pages on database open
//! ([`BTreeIndex::from_node_pages`]). A node therefore splits when it
//! overflows either its configured fanout *or* its page's byte budget.
//!
//! Keys are multi-column (`Vec<Value>` in index column order); a scan may
//! seek with a *prefix* of the key — this is what makes an index "match" a
//! predicate set whose columns are an initial substring of the index key
//! (paper, Section 4).
//!
//! Deletion is lazy (no rebalancing): entries are removed from leaves and
//! underfull nodes are tolerated. This matches the maintenance behaviour
//! the paper's statistics regime assumes — statistics, including NINDX, are
//! refreshed by `UPDATE STATISTICS`, not kept exact on every modification.
//!
//! Node accessors are fallible: a dangling node id — impossible from
//! in-process handles, but reachable from a corrupt page file — surfaces
//! as [`RssError::Corrupt`] and propagates to the caller instead of
//! panicking.

#![expect(
    clippy::indexing_slicing,
    reason = "B-tree node arithmetic: indices come from binary search within node bounds established one line earlier"
)]

use crate::codec;
use crate::error::{RssError, RssResult};
use crate::page::{PageImage, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::rid::Rid;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Identifier of an index within a [`crate::Storage`].
pub type IndexId = u32;

/// Payload bytes available on a node page (after the page header, whose
/// bytes 8..16 carry the recovery stamp).
const NODE_BUDGET: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

/// Largest encoded index key accepted. A quarter of the node budget
/// guarantees a byte-driven split always produces two halves that each fit
/// on a page (each half is bounded by total/2 + one max entry).
pub const MAX_KEY_BYTES: usize = NODE_BUDGET / 4;

const NODE_TAG_FREE: u8 = 0;
const NODE_TAG_LEAF: u8 = 1;
const NODE_TAG_INTERNAL: u8 = 2;

/// Sentinel for "no next leaf" in the serialized leaf chain.
const NO_NEXT: u32 = u32::MAX;

/// Bytes a leaf's (key, rid) entry occupies on its page.
const RID_BYTES: usize = 6; // u32 page + u16 slot

/// Node fanout configuration. The defaults approximate 4 KB pages holding
/// ~16-byte keys plus RIDs; tests shrink these to force deep trees.
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Max (key, rid) entries per leaf page.
    pub leaf_capacity: usize,
    /// Max children per internal page.
    pub internal_capacity: usize,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        // ~4096 bytes / ~20 bytes per (key,rid) entry ≈ 200; round to 192.
        BTreeConfig { leaf_capacity: 192, internal_capacity: 192 }
    }
}

impl BTreeConfig {
    /// A tiny-fanout configuration for tests that need multi-level trees
    /// with few entries.
    pub fn tiny() -> Self {
        BTreeConfig { leaf_capacity: 4, internal_capacity: 4 }
    }
}

type Key = Vec<Value>;

/// A node's keys stored flat: key `i` is `vals[i * arity..(i + 1) * arity]`.
/// One allocation per node instead of a `Vec` header and a heap chunk per
/// key — a loaded index is mostly keys.
#[derive(Debug, Clone)]
struct Keys {
    /// Values per key, the index's key arity (never 0).
    arity: usize,
    vals: Vec<Value>,
}

impl Keys {
    fn new(arity: usize) -> Self {
        Keys { arity, vals: Vec::new() }
    }

    fn len(&self) -> usize {
        self.vals.len() / self.arity
    }

    fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    fn get(&self, i: usize) -> Option<&[Value]> {
        self.vals.get(i * self.arity..(i + 1) * self.arity)
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Value> {
        self.vals.chunks_exact(self.arity)
    }

    /// `slice::partition_point` over the keys: the index of the first key
    /// for which `pred` is false (keys are sorted, so `pred` is monotone).
    fn partition_point(&self, mut pred: impl FnMut(&[Value]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self.vals[mid * self.arity..(mid + 1) * self.arity]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Insert `key` (of this node's arity) before key `i`.
    fn insert(&mut self, i: usize, key: Key) {
        let at = i * self.arity;
        self.vals.splice(at..at, key);
    }

    /// Append a key decoded from a node page, refusing one of the wrong
    /// arity.
    fn push(&mut self, key: Key) -> RssResult<()> {
        if key.len() != self.arity {
            return Err(RssError::Corrupt(format!(
                "stored key has {} columns, the index {}",
                key.len(),
                self.arity
            )));
        }
        self.vals.extend(key);
        Ok(())
    }

    fn remove(&mut self, i: usize) {
        self.vals.drain(i * self.arity..(i + 1) * self.arity);
    }

    /// Keys `i..`, moved out; `0..i` stay.
    fn split_off(&mut self, i: usize) -> Keys {
        Keys { arity: self.arity, vals: self.vals.split_off(i * self.arity) }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Keys,
        rids: Vec<Rid>,
        next: Option<u32>,
    },
    Internal {
        /// Key `i` separates `children[i]` from `children[i+1]`: every key
        /// in `children[i+1]` is `>=` it.
        keys: Keys,
        children: Vec<u32>,
    },
}

/// Encoded size of a key on a node page (u16 arity + tagged values).
fn key_bytes(key: &[Value]) -> usize {
    2 + key.iter().map(Value::encoded_size).sum::<usize>()
}

/// Cursor position: a leaf page number and an entry offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafPos {
    pub leaf: u32,
    pub pos: usize,
}

/// A multi-column B-tree index mapping keys to tuple RIDs.
#[derive(Debug)]
pub struct BTreeIndex {
    id: IndexId,
    unique: bool,
    key_arity: usize,
    config: BTreeConfig,
    nodes: Vec<Option<Node>>,
    free: Vec<u32>,
    root: u32,
    entry_count: usize,
    /// Node pages mutated since the last [`BTreeIndex::drain_dirty`]; the
    /// storage layer flushes their images to the page-file backend.
    dirty: BTreeSet<u32>,
}

/// Compare a full key against a (possibly shorter) prefix: only the
/// prefix's columns participate. An equal result means "key begins with
/// prefix".
pub fn cmp_key_prefix(key: &[Value], prefix: &[Value]) -> Ordering {
    for (k, p) in key.iter().zip(prefix.iter()) {
        match k.cmp(p) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

impl BTreeIndex {
    pub fn new(id: IndexId, key_arity: usize, unique: bool, config: BTreeConfig) -> Self {
        assert!(key_arity > 0, "index needs at least one key column");
        assert!(config.leaf_capacity >= 2 && config.internal_capacity >= 3);
        let root_leaf = Node::Leaf { keys: Keys::new(key_arity), rids: Vec::new(), next: None };
        BTreeIndex {
            id,
            unique,
            key_arity,
            config,
            nodes: vec![Some(root_leaf)],
            free: Vec::new(),
            root: 0,
            entry_count: 0,
            dirty: BTreeSet::from([0]),
        }
    }

    pub fn id(&self) -> IndexId {
        self.id
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    pub fn key_arity(&self) -> usize {
        self.key_arity
    }

    pub fn config(&self) -> BTreeConfig {
        self.config
    }

    /// The root node's page number (persisted in the storage metadata).
    pub fn root_page(&self) -> u32 {
        self.root
    }

    /// Total live node pages — the paper's `NINDX(I)`.
    pub fn page_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Arena slots including freed ones — the number of pages the tree's
    /// page file spans.
    pub fn node_slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf pages (the part a full index scan touches).
    pub fn leaf_page_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Some(Node::Leaf { .. }))).count()
    }

    /// Total (key, rid) entries.
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Take the set of node pages mutated since the last drain.
    pub fn drain_dirty(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Re-mark drained node pages whose flush failed, so the next flush
    /// writes them.
    pub(crate) fn mark_dirty(&mut self, pages: impl IntoIterator<Item = u32>) {
        self.dirty.extend(pages);
    }

    /// Levels from root to leaf (1 = root is a leaf).
    pub fn height(&self) -> RssResult<usize> {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match self.node(node)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Internal { children, .. } => {
                    node = *children.first().ok_or_else(|| {
                        RssError::Corrupt(format!("childless internal node {node} in index"))
                    })?;
                    h += 1;
                }
            }
        }
    }

    fn node(&self, id: u32) -> RssResult<&Node> {
        self.nodes
            .get(id as usize)
            .and_then(|n| n.as_ref())
            .ok_or_else(|| RssError::Corrupt(format!("dangling node id {id} in index {}", self.id)))
    }

    fn node_mut(&mut self, id: u32) -> RssResult<&mut Node> {
        let index_id = self.id;
        self.nodes
            .get_mut(id as usize)
            .and_then(|n| n.as_mut())
            .ok_or_else(|| RssError::Corrupt(format!("dangling node id {id} in index {index_id}")))
    }

    fn alloc(&mut self, node: Node) -> u32 {
        let id = if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            (self.nodes.len() - 1) as u32
        };
        self.dirty.insert(id);
        id
    }

    fn check_arity(&self, key: &[Value]) -> RssResult<()> {
        if key.len() != self.key_arity {
            return Err(RssError::KeyArity { expected: self.key_arity, got: key.len() });
        }
        Ok(())
    }

    /// Whether `key` is insertable at all: right arity, and small enough
    /// that a node page always holds several keys. Callers that must not
    /// fail halfway through a batch check every key up front.
    pub fn check_key(&self, key: &[Value]) -> RssResult<()> {
        self.check_arity(key)?;
        let size = key_bytes(key);
        if size > MAX_KEY_BYTES {
            return Err(RssError::TupleTooLarge { size, max: MAX_KEY_BYTES });
        }
        Ok(())
    }

    /// Insert `(key, rid)`. Duplicate full keys are allowed unless the
    /// index is UNIQUE.
    pub fn insert(&mut self, key: Key, rid: Rid) -> RssResult<()> {
        self.check_key(&key)?;
        if self.unique && self.contains_key(&key)? {
            return Err(RssError::DuplicateKey(format!("{key:?}")));
        }
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid)? {
            let old_root = self.root;
            let keys = Keys { arity: self.key_arity, vals: sep };
            let new_root = self.alloc(Node::Internal { keys, children: vec![old_root, right] });
            self.root = new_root;
        }
        self.entry_count += 1;
        Ok(())
    }

    /// Split point for an over-full node: the count midpoint for uniform
    /// entries, shifted so both byte halves fit their pages. `sizes[i]` is
    /// the on-page bytes of entry `i`; the result `mid` keeps `0..mid` on
    /// the left (always at least one entry on each side).
    fn split_point(sizes: &[usize]) -> usize {
        let total: usize = sizes.iter().sum();
        let mut acc = 0;
        let mut mid = 0;
        for (i, sz) in sizes.iter().enumerate() {
            if mid > 0 && (acc + sz) * 2 > total {
                break;
            }
            acc += sz;
            mid = i + 1;
        }
        mid.min(sizes.len() - 1).max(1)
    }

    /// Recursive insert; returns `(separator, new right sibling)` when the
    /// child split.
    fn insert_rec(&mut self, node_id: u32, key: Key, rid: Rid) -> RssResult<Option<(Key, u32)>> {
        match self.node(node_id)? {
            Node::Leaf { keys, .. } => {
                // Upper bound: duplicates append after equal keys, so RIDs
                // for equal keys stay in insertion order.
                let pos = keys.partition_point(|k| k <= key.as_slice());
                let leaf_cap = self.config.leaf_capacity;
                let Node::Leaf { keys, rids, next } = self.node_mut(node_id)? else {
                    return Err(RssError::Corrupt("leaf changed kind between reads".into()));
                };
                keys.insert(pos, key);
                rids.insert(pos, rid);
                let entry_size = |k: &[Value]| key_bytes(k) + RID_BYTES;
                // tag + count + next, then the entries
                if keys.len() <= leaf_cap
                    && 7 + keys.iter().map(entry_size).sum::<usize>() <= NODE_BUDGET
                {
                    self.dirty.insert(node_id);
                    return Ok(None);
                }
                // Split: move the upper part to a new right sibling, cutting
                // at the byte-balanced midpoint. The left half keeps about
                // half its entries; give back the capacity its vectors grew
                // to while it filled (an ascending load never touches it
                // again, any other insert regrows it on demand).
                let sizes: Vec<usize> = keys.iter().map(entry_size).collect();
                let mid = Self::split_point(&sizes);
                let right_keys = keys.split_off(mid);
                let right_rids = rids.split_off(mid);
                keys.vals.shrink_to_fit();
                rids.shrink_to_fit();
                let old_next = *next;
                let sep = right_keys.vals[..right_keys.arity].to_vec();
                let right =
                    self.alloc(Node::Leaf { keys: right_keys, rids: right_rids, next: old_next });
                let Node::Leaf { next, .. } = self.node_mut(node_id)? else {
                    return Err(RssError::Corrupt("leaf changed kind between reads".into()));
                };
                *next = Some(right);
                self.dirty.insert(node_id);
                Ok(Some((sep, right)))
            }
            Node::Internal { keys, children } => {
                // Descend into the child whose range covers the key.
                let idx = keys.partition_point(|k| k <= key.as_slice());
                let child = children[idx];
                let Some((sep, right)) = self.insert_rec(child, key, rid)? else {
                    return Ok(None);
                };
                let internal_cap = self.config.internal_capacity;
                let Node::Internal { keys, children } = self.node_mut(node_id)? else {
                    return Err(RssError::Corrupt(
                        "internal node changed kind between reads".into(),
                    ));
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                // Each key travels with one child pointer.
                let entry_size = |k: &[Value]| key_bytes(k) + 4;
                // tag + count, the entries, then the extra child
                if children.len() <= internal_cap
                    && 3 + keys.iter().map(entry_size).sum::<usize>() + 4 <= NODE_BUDGET
                {
                    self.dirty.insert(node_id);
                    return Ok(None);
                }
                // Split internal node: the key at the cut is promoted and
                // leaves this node.
                let sizes: Vec<usize> = keys.iter().map(entry_size).collect();
                let mid = Self::split_point(&sizes);
                let right_keys = keys.split_off(mid + 1);
                let promoted = keys.split_off(mid).vals;
                let right_children = children.split_off(mid + 1);
                let right_id =
                    self.alloc(Node::Internal { keys: right_keys, children: right_children });
                self.dirty.insert(node_id);
                Ok(Some((promoted, right_id)))
            }
        }
    }

    /// Remove the entry `(key, rid)`. Returns `true` if found. Equal keys
    /// may span leaf boundaries; the run is walked via the leaf chain.
    pub fn delete(&mut self, key: &[Value], rid: Rid) -> RssResult<bool> {
        self.check_arity(key)?;
        let (_, mut cursor) = self.seek(key)?;
        while let Some(pos) = cursor {
            let (k, r) = self.entry(pos)?;
            if cmp_key_prefix(k, key) != Ordering::Equal {
                break;
            }
            if r == rid {
                let Node::Leaf { keys, rids, .. } = self.node_mut(pos.leaf)? else {
                    return Err(RssError::Corrupt("leaf changed kind between reads".into()));
                };
                keys.remove(pos.pos);
                rids.remove(pos.pos);
                self.entry_count -= 1;
                self.dirty.insert(pos.leaf);
                return Ok(true);
            }
            cursor = self.next_pos(pos)?;
        }
        Ok(false)
    }

    /// Whether any entry has exactly this full key.
    pub fn contains_key(&self, key: &[Value]) -> RssResult<bool> {
        let (_, cursor) = self.seek(key)?;
        match cursor {
            Some(pos) => {
                let (k, _) = self.entry(pos)?;
                Ok(k == key)
            }
            None => Ok(false),
        }
    }

    /// Position at the first entry whose key is `>=` the given prefix
    /// (lower bound). Returns the internal-node pages visited during the
    /// descent (for page accounting) and the leaf position, or `None` if no
    /// such entry exists.
    pub fn seek(&self, prefix: &[Value]) -> RssResult<(Vec<u32>, Option<LeafPos>)> {
        let mut path = Vec::new();
        let mut node_id = self.root;
        loop {
            match self.node(node_id)? {
                Node::Internal { keys, children } => {
                    path.push(node_id);
                    // First child that can contain a key >= prefix: descend
                    // left of the first separator strictly greater than the
                    // prefix... but duplicates of the prefix may live left
                    // of an equal separator, so treat equal separators as
                    // "go left".
                    let idx = keys.partition_point(|k| cmp_key_prefix(k, prefix) == Ordering::Less);
                    node_id = children[idx];
                }
                Node::Leaf { keys, next, .. } => {
                    let pos = keys.partition_point(|k| cmp_key_prefix(k, prefix) == Ordering::Less);
                    if pos < keys.len() {
                        return Ok((path, Some(LeafPos { leaf: node_id, pos })));
                    }
                    // The lower bound may be in the next leaf (separator
                    // boundaries are not exact under lazy deletion).
                    let here = match next {
                        Some(leaf) => self.first_entry_of_leaf_chain(*leaf)?,
                        None => None,
                    };
                    return Ok((path, here));
                }
            }
        }
    }

    /// Position at the first entry of the whole index.
    pub fn seek_first(&self) -> RssResult<(Vec<u32>, Option<LeafPos>)> {
        let mut path = Vec::new();
        let mut node_id = self.root;
        loop {
            match self.node(node_id)? {
                Node::Internal { children, .. } => {
                    path.push(node_id);
                    node_id = *children.first().ok_or_else(|| {
                        RssError::Corrupt(format!("childless internal node {node_id}"))
                    })?;
                }
                Node::Leaf { .. } => {
                    let first = self.first_entry_of_leaf_chain(node_id)?;
                    return Ok((path, first));
                }
            }
        }
    }

    /// Skip empty leaves (possible after lazy deletes).
    fn first_entry_of_leaf_chain(&self, mut leaf: u32) -> RssResult<Option<LeafPos>> {
        loop {
            let Node::Leaf { keys, next, .. } = self.node(leaf)? else {
                return Err(RssError::Corrupt(format!(
                    "leaf chain of index {} reaches internal node {leaf}",
                    self.id
                )));
            };
            if !keys.is_empty() {
                return Ok(Some(LeafPos { leaf, pos: 0 }));
            }
            match next {
                Some(n) => leaf = *n,
                None => return Ok(None),
            }
        }
    }

    /// The `(key, rid)` entry at `pos`. A stale or corrupt position — the
    /// cursor is only valid while the tree is unmodified — reports
    /// [`RssError::Corrupt`].
    pub fn entry(&self, pos: LeafPos) -> RssResult<(&[Value], Rid)> {
        let Node::Leaf { keys, rids, .. } = self.node(pos.leaf)? else {
            return Err(RssError::Corrupt(format!(
                "cursor {pos:?} of index {} does not point at a leaf",
                self.id
            )));
        };
        match (keys.get(pos.pos), rids.get(pos.pos)) {
            (Some(k), Some(&r)) => Ok((k, r)),
            _ => Err(RssError::Corrupt(format!(
                "stale cursor {pos:?} of index {}: entry out of range",
                self.id
            ))),
        }
    }

    /// Advance a cursor by one entry, following the leaf chain. Returns
    /// `None` at the end of the index.
    pub fn next_pos(&self, pos: LeafPos) -> RssResult<Option<LeafPos>> {
        let Node::Leaf { rids, next, .. } = self.node(pos.leaf)? else {
            return Err(RssError::Corrupt(format!(
                "cursor {pos:?} of index {} does not point at a leaf",
                self.id
            )));
        };
        if pos.pos + 1 < rids.len() {
            return Ok(Some(LeafPos { leaf: pos.leaf, pos: pos.pos + 1 }));
        }
        match next {
            Some(n) => self.first_entry_of_leaf_chain(*n),
            None => Ok(None),
        }
    }

    /// Iterate all entries in key order (no page accounting; used by
    /// statistics collection and tests). Items are fallible because the
    /// walk may hit corruption.
    pub fn iter(&self) -> BTreeIter<'_> {
        match self.seek_first() {
            Ok((_, start)) => BTreeIter { tree: self, cursor: start, pending_err: None },
            Err(e) => BTreeIter { tree: self, cursor: None, pending_err: Some(e) },
        }
    }

    /// Number of distinct full keys — the paper's `ICARD(I)`. Computed by a
    /// leaf walk, as `UPDATE STATISTICS` would.
    pub fn distinct_keys(&self) -> RssResult<usize> {
        let mut count = 0;
        let mut prev: Option<&[Value]> = None;
        for item in self.iter() {
            let (key, _) = item?;
            if prev != Some(key) {
                count += 1;
                prev = Some(key);
            }
        }
        Ok(count)
    }

    /// Smallest full key, if any.
    pub fn min_key(&self) -> RssResult<Option<&[Value]>> {
        let (_, pos) = self.seek_first()?;
        match pos {
            Some(p) => Ok(Some(self.entry(p)?.0)),
            None => Ok(None),
        }
    }

    /// Largest full key, if any (walks the rightmost spine then the chain
    /// tail; cheap because the tree is shallow).
    pub fn max_key(&self) -> RssResult<Option<&[Value]>> {
        let mut last = None;
        for item in self.iter() {
            last = Some(item?.0);
        }
        Ok(last)
    }

    /// Internal consistency check used by property tests: key ordering
    /// within and across leaves, separator sanity, entry count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut n = 0;
        let mut prev: Option<Vec<Value>> = None;
        for item in self.iter() {
            let (key, _) = item.map_err(|e| e.to_string())?;
            if key.len() != self.key_arity {
                return Err(format!("entry arity {} != {}", key.len(), self.key_arity));
            }
            if let Some(p) = &prev {
                if p.as_slice() > key {
                    return Err(format!("keys out of order: {p:?} then {key:?}"));
                }
            }
            prev = Some(key.to_vec());
            n += 1;
        }
        if n != self.entry_count {
            return Err(format!("entry_count {} but iterated {n}", self.entry_count));
        }
        Ok(())
    }

    /// Serialize node `id` into a fresh page image (payload after the page
    /// header; bytes 8..16 stay free for the recovery stamp). A freed
    /// arena slot encodes as an all-zero payload.
    pub fn encode_node_page(&self, id: u32) -> RssResult<PageImage> {
        let mut image = PageImage::new([0u8; PAGE_SIZE]);
        let Some(slot) = self.nodes.get(id as usize) else {
            return Err(RssError::Corrupt(format!(
                "node page {id} out of range in index {}",
                self.id
            )));
        };
        let Some(node) = slot else {
            return Ok(image);
        };
        let mut out = Vec::with_capacity(256);
        match node {
            Node::Leaf { keys, rids, next } => {
                out.push(NODE_TAG_LEAF);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.unwrap_or(NO_NEXT).to_le_bytes());
                for (key, rid) in keys.iter().zip(rids) {
                    codec::encode_key(key, &mut out);
                    out.extend_from_slice(&rid.page.to_le_bytes());
                    out.extend_from_slice(&rid.slot.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                out.push(NODE_TAG_INTERNAL);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                for key in keys.iter() {
                    codec::encode_key(key, &mut out);
                }
                for child in children {
                    out.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        if out.len() > NODE_BUDGET {
            return Err(RssError::Corrupt(format!(
                "node {id} of index {} overflows its page: {} > {NODE_BUDGET} bytes",
                self.id,
                out.len()
            )));
        }
        std::sync::Arc::make_mut(&mut image)[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + out.len()]
            .copy_from_slice(&out);
        Ok(image)
    }

    /// Decode one node from a page payload written by
    /// [`BTreeIndex::encode_node_page`]. `None` is a freed arena slot.
    fn decode_node(payload: &[u8], key_arity: usize) -> RssResult<Option<Node>> {
        let mut cur = codec::Cursor::new(payload);
        match cur.u8()? {
            NODE_TAG_FREE => Ok(None),
            NODE_TAG_LEAF => {
                let n = cur.u16()? as usize;
                let raw_next = cur.u32()?;
                let next = if raw_next == NO_NEXT { None } else { Some(raw_next) };
                let mut keys = Keys { arity: key_arity, vals: Vec::with_capacity(n * key_arity) };
                let mut rids = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(codec::decode_key(&mut cur)?)?;
                    let page = cur.u32()?;
                    let slot = cur.u16()?;
                    rids.push(Rid::new(page, slot));
                }
                Ok(Some(Node::Leaf { keys, rids, next }))
            }
            NODE_TAG_INTERNAL => {
                let n = cur.u16()? as usize;
                let mut keys = Keys { arity: key_arity, vals: Vec::with_capacity(n * key_arity) };
                for _ in 0..n {
                    keys.push(codec::decode_key(&mut cur)?)?;
                }
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(cur.u32()?);
                }
                Ok(Some(Node::Internal { keys, children }))
            }
            t => Err(RssError::Corrupt(format!("unknown B-tree node tag {t}"))),
        }
    }

    /// Rebuild a tree from its node pages (database open). `pages[i]` is
    /// the full image of node page `i`. Nothing is considered dirty.
    pub fn from_node_pages(
        id: IndexId,
        key_arity: usize,
        unique: bool,
        config: BTreeConfig,
        root: u32,
        entry_count: usize,
        pages: &[PageImage],
    ) -> RssResult<Self> {
        if key_arity == 0 || config.leaf_capacity < 2 || config.internal_capacity < 3 {
            return Err(RssError::Corrupt(format!("bad stored shape for index {id}")));
        }
        let mut nodes = Vec::with_capacity(pages.len());
        let mut free = Vec::new();
        for (i, page) in pages.iter().enumerate() {
            let node = Self::decode_node(&page[PAGE_HEADER_SIZE..], key_arity)?;
            if let Some(Node::Internal { keys, children }) = &node {
                if children.len() != keys.len() + 1 || children.is_empty() {
                    return Err(RssError::Corrupt(format!(
                        "internal node {i} of index {id}: {} keys but {} children",
                        keys.len(),
                        children.len()
                    )));
                }
            }
            if node.is_none() {
                free.push(i as u32);
            }
            nodes.push(node);
        }
        if nodes.is_empty() {
            nodes.push(Some(Node::Leaf {
                keys: Keys::new(key_arity),
                rids: Vec::new(),
                next: None,
            }));
            free.clear();
        }
        match nodes.get(root as usize) {
            Some(Some(_)) => {}
            _ => {
                return Err(RssError::Corrupt(format!(
                    "root page {root} of index {id} is missing or freed"
                )))
            }
        }
        Ok(BTreeIndex {
            id,
            unique,
            key_arity,
            config,
            nodes,
            free,
            root,
            entry_count,
            dirty: BTreeSet::new(),
        })
    }
}

/// Iterator over all `(key, rid)` entries in key order.
pub struct BTreeIter<'a> {
    tree: &'a BTreeIndex,
    cursor: Option<LeafPos>,
    pending_err: Option<RssError>,
}

impl<'a> Iterator for BTreeIter<'a> {
    type Item = RssResult<(&'a [Value], Rid)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.pending_err.take() {
            return Some(Err(e));
        }
        let pos = self.cursor?;
        let entry = match self.tree.entry(pos) {
            Ok(e) => e,
            Err(e) => {
                self.cursor = None;
                return Some(Err(e));
            }
        };
        match self.tree.next_pos(pos) {
            Ok(next) => self.cursor = next,
            Err(e) => {
                self.cursor = None;
                self.pending_err = Some(e);
            }
        }
        Some(Ok(entry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    fn key(i: i64) -> Key {
        vec![Value::Int(i)]
    }

    fn rid(i: u32) -> Rid {
        Rid::new(i, 0)
    }

    fn build(entries: &[i64]) -> BTreeIndex {
        let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::tiny());
        for (i, &k) in entries.iter().enumerate() {
            t.insert(key(k), rid(i as u32)).unwrap();
        }
        t
    }

    fn all_keys(t: &BTreeIndex) -> Vec<i64> {
        t.iter().map(|e| e.unwrap().0[0].as_int().unwrap()).collect()
    }

    #[test]
    fn sorted_iteration() {
        let t = build(&[5, 3, 8, 1, 9, 2, 7, 4, 6, 0]);
        assert_eq!(all_keys(&t), (0..10).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn splits_produce_multiple_levels() {
        let t = build(&(0..100).collect::<Vec<_>>());
        assert!(
            t.height().unwrap() >= 3,
            "tiny fanout must force height >= 3, got {}",
            t.height().unwrap()
        );
        assert!(t.page_count() > 10);
        assert_eq!(t.entry_count(), 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn seek_lower_bound() {
        let t = build(&[10, 20, 30, 40, 50]);
        let (_, pos) = t.seek(&key(25)).unwrap();
        let (k, _) = t.entry(pos.unwrap()).unwrap();
        assert_eq!(k[0], Value::Int(30));
        let (_, pos) = t.seek(&key(30)).unwrap();
        assert_eq!(t.entry(pos.unwrap()).unwrap().0[0], Value::Int(30));
        let (_, pos) = t.seek(&key(55)).unwrap();
        assert!(pos.is_none());
    }

    #[test]
    fn seek_path_reports_internal_pages() {
        let t = build(&(0..200).collect::<Vec<_>>());
        let (path, pos) = t.seek(&key(137)).unwrap();
        assert!(pos.is_some());
        assert_eq!(path.len(), t.height().unwrap() - 1, "path covers every internal level");
    }

    #[test]
    fn duplicates_allowed_when_not_unique() {
        let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::tiny());
        for i in 0..20 {
            t.insert(key(7), rid(i)).unwrap();
        }
        assert_eq!(t.entry_count(), 20);
        assert_eq!(t.distinct_keys().unwrap(), 1);
        let rids: Vec<u32> = t.iter().map(|e| e.unwrap().1.page).collect();
        assert_eq!(rids, (0..20).collect::<Vec<_>>(), "equal keys keep insertion order");
    }

    #[test]
    fn unique_rejects_duplicates() {
        let mut t = BTreeIndex::new(0, 1, true, BTreeConfig::tiny());
        t.insert(key(1), rid(0)).unwrap();
        assert!(matches!(t.insert(key(1), rid(1)), Err(RssError::DuplicateKey(_))));
        assert_eq!(t.entry_count(), 1);
    }

    #[test]
    fn delete_specific_rid_among_duplicates() {
        let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::tiny());
        for i in 0..10 {
            t.insert(key(7), rid(i)).unwrap();
        }
        assert!(t.delete(&key(7), rid(5)).unwrap());
        assert!(!t.delete(&key(7), rid(5)).unwrap(), "already gone");
        let rids: Vec<u32> = t.iter().map(|e| e.unwrap().1.page).collect();
        assert_eq!(rids, vec![0, 1, 2, 3, 4, 6, 7, 8, 9]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let mut t = build(&(0..50).collect::<Vec<_>>());
        for i in 0..50 {
            assert!(t.delete(&key(i), rid(i as u32)).unwrap());
        }
        assert_eq!(t.entry_count(), 0);
        assert!(t.iter().next().is_none());
        assert!(t.min_key().unwrap().is_none());
        // Inserts still work after total deletion.
        t.insert(key(99), rid(0)).unwrap();
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn multi_column_keys_and_prefix_seek() {
        let mut t = BTreeIndex::new(0, 2, false, BTreeConfig::tiny());
        for i in 0..10i64 {
            for j in 0..3i64 {
                t.insert(vec![Value::Int(i), Value::Int(j)], rid((i * 3 + j) as u32)).unwrap();
            }
        }
        // Seek with a 1-column prefix of the 2-column key.
        let (_, pos) = t.seek(&[Value::Int(4)]).unwrap();
        let (k, _) = t.entry(pos.unwrap()).unwrap();
        assert_eq!(k, &[Value::Int(4), Value::Int(0)][..]);
        // All rows with prefix 4.
        let mut cursor = pos;
        let mut got = Vec::new();
        while let Some(p) = cursor {
            let (k, _) = t.entry(p).unwrap();
            if cmp_key_prefix(k, &[Value::Int(4)]) != Ordering::Equal {
                break;
            }
            got.push(k[1].as_int().unwrap());
            cursor = t.next_pos(p).unwrap();
        }
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn key_arity_enforced() {
        let mut t = BTreeIndex::new(0, 2, false, BTreeConfig::default());
        assert!(matches!(
            t.insert(vec![Value::Int(1)], rid(0)),
            Err(RssError::KeyArity { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn min_max_keys() {
        let t = build(&[42, 7, 99, 13]);
        assert_eq!(t.min_key().unwrap().unwrap()[0], Value::Int(7));
        assert_eq!(t.max_key().unwrap().unwrap()[0], Value::Int(99));
    }

    #[test]
    fn distinct_keys_counts_full_keys() {
        let t = build(&[1, 1, 2, 2, 2, 3]);
        assert_eq!(t.distinct_keys().unwrap(), 3);
        assert_eq!(t.entry_count(), 6);
    }

    #[test]
    fn oversized_key_rejected_cleanly() {
        let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::default());
        let huge = vec![Value::Str("x".repeat(MAX_KEY_BYTES + 10))];
        assert!(matches!(t.insert(huge, rid(0)), Err(RssError::TupleTooLarge { .. })));
        assert_eq!(t.entry_count(), 0);
    }

    #[test]
    fn byte_budget_forces_splits_before_fanout() {
        // Large string keys overflow the 4080-byte page budget long before
        // the default 192-entry fanout.
        let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::default());
        for i in 0..100 {
            t.insert(vec![Value::Str(format!("{i:04}-{}", "p".repeat(200)))], rid(i)).unwrap();
        }
        assert!(t.leaf_page_count() > 5, "got {} leaves", t.leaf_page_count());
        t.check_invariants().unwrap();
        // Every node must actually serialize within its page.
        for id in 0..t.node_slot_count() as u32 {
            t.encode_node_page(id).unwrap();
        }
    }

    #[test]
    fn node_pages_roundtrip() {
        let mut t = build(&(0..200).rev().collect::<Vec<_>>());
        for i in (0..200).step_by(3) {
            assert!(t.delete(&key(i), rid((199 - i) as u32)).unwrap());
        }
        let pages: Vec<_> =
            (0..t.node_slot_count() as u32).map(|id| t.encode_node_page(id).unwrap()).collect();
        let back = BTreeIndex::from_node_pages(
            t.id(),
            t.key_arity(),
            t.is_unique(),
            t.config(),
            t.root_page(),
            t.entry_count(),
            &pages,
        )
        .unwrap();
        back.check_invariants().unwrap();
        assert_eq!(all_keys(&back), all_keys(&t));
        assert_eq!(back.height().unwrap(), t.height().unwrap());
        assert_eq!(back.page_count(), t.page_count());
        let rids_a: Vec<Rid> = t.iter().map(|e| e.unwrap().1).collect();
        let rids_b: Vec<Rid> = back.iter().map(|e| e.unwrap().1).collect();
        assert_eq!(rids_a, rids_b);
    }

    #[test]
    fn corrupt_node_page_decodes_to_error_not_panic() {
        let t = build(&(0..50).collect::<Vec<_>>());
        let mut pages: Vec<_> =
            (0..t.node_slot_count() as u32).map(|id| t.encode_node_page(id).unwrap()).collect();
        // Truncate a leaf's entry count upward: decoding walks off the page.
        let leaf = std::sync::Arc::make_mut(&mut pages[0]);
        leaf[PAGE_HEADER_SIZE + 1] = 0xFF;
        leaf[PAGE_HEADER_SIZE + 2] = 0xFF;
        let err = BTreeIndex::from_node_pages(0, 1, false, BTreeConfig::tiny(), 0, 50, &pages)
            .unwrap_err();
        assert!(matches!(err, RssError::Corrupt(_)));
    }

    #[test]
    fn dangling_root_is_a_clean_error() {
        let t = build(&[1, 2, 3]);
        let pages: Vec<_> =
            (0..t.node_slot_count() as u32).map(|id| t.encode_node_page(id).unwrap()).collect();
        let err = BTreeIndex::from_node_pages(0, 1, false, BTreeConfig::tiny(), 999, 3, &pages)
            .unwrap_err();
        assert!(matches!(err, RssError::Corrupt(_)));
    }

    /// FNV-1a over every node page image in page order, then the root page
    /// number: two trees with equal digests write identical page files.
    fn tree_digest(t: &BTreeIndex) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for id in 0..t.node_slot_count() as u32 {
            eat(&t.encode_node_page(id).unwrap()[..]);
        }
        eat(&t.root_page().to_le_bytes());
        h
    }

    /// The page images of three trees, pinned: a change to the in-memory
    /// node layout or the insert path must leave every split point, and so
    /// every byte written to the page files, where it was.
    #[test]
    fn page_images_are_pinned() {
        // 200k ascending unique keys: the bulk-load shape of every index
        // built over a relation loaded in key order.
        let mut asc = BTreeIndex::new(0, 1, true, BTreeConfig::default());
        for i in 0..200_000u32 {
            asc.insert(key(i64::from(i)), Rid::new(i / 64, (i % 64) as u16)).unwrap();
        }
        // 50k seeded non-unique keys with many duplicates, then 20k seeded
        // deletes.
        let mut rng = SplitMix64::new(0x00D1_6E57);
        let mut dup = BTreeIndex::new(1, 1, false, BTreeConfig::default());
        let mut live: Vec<(i64, u32)> = Vec::new();
        for i in 0..50_000u32 {
            let k = rng.range_i64(0, 5_000);
            dup.insert(key(k), rid(i)).unwrap();
            live.push((k, i));
        }
        for _ in 0..20_000 {
            let (k, r) = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(dup.delete(&key(k), rid(r)).unwrap());
        }
        // Two-column int + string keys at tiny fanout: deep trees, and
        // variable-width keys in the byte-balanced split.
        let mut wide = BTreeIndex::new(2, 2, false, BTreeConfig::tiny());
        for i in 0..3_000u32 {
            let k = vec![
                Value::Int(rng.range_i64(0, 100)),
                Value::Str(format!("s{}", rng.below(1_000))),
            ];
            wide.insert(k, rid(i)).unwrap();
        }
        let got: Vec<(u64, usize)> =
            [&asc, &dup, &wide].iter().map(|t| (tree_digest(t), t.node_slot_count())).collect();
        let pinned = vec![
            (0xC694_687F_805C_FDEA, 2105),
            (0xA4A0_85C8_BF77_8B7F, 377),
            (0x5FA7_B3AE_A826_2A64, 1551),
        ];
        assert_eq!(got, pinned, "(digest, node pages) of the ascending, churned and wide trees");

        // An ascending load only ever inserts into the last leaf, so every
        // other leaf is the left half of a split and holds no slack.
        let leaves: Vec<(usize, usize, usize)> = asc
            .nodes
            .iter()
            .filter_map(|n| match n {
                Some(Node::Leaf { keys, rids, next }) if next.is_some() => {
                    Some((keys.vals.len(), keys.vals.capacity(), rids.capacity()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(leaves.len(), asc.leaf_page_count() - 1);
        for (len, key_cap, rid_cap) in leaves {
            assert_eq!((key_cap, rid_cap), (len, len), "a split-off left half keeps no slack");
        }
    }

    /// Random interleavings of inserts and deletes must preserve the
    /// sorted-multiset semantics of the index.
    #[test]
    fn prop_matches_reference_multiset() {
        let mut rng = SplitMix64::new(0xB7EE_0001);
        for case in 0..256u64 {
            let n_ops = 1 + rng.below(299) as usize;
            let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::tiny());
            let mut reference: Vec<(i64, u32)> = Vec::new();
            let mut stamp = 0u32;
            for _ in 0..n_ops {
                let is_insert = rng.bool();
                let k = rng.range_i64(0, 40);
                if is_insert {
                    t.insert(key(k), rid(stamp)).unwrap();
                    reference.push((k, stamp));
                    stamp += 1;
                } else if let Some(idx) = reference.iter().position(|&(rk, _)| rk == k) {
                    let (_, r) = reference.remove(idx);
                    assert!(t.delete(&key(k), rid(r)).unwrap(), "case {case}");
                } else {
                    assert!(!t.delete(&key(k), rid(0)).unwrap(), "case {case}");
                }
            }
            t.check_invariants().unwrap_or_else(|e| panic!("case {case}: {e}"));
            let mut expect: Vec<i64> = reference.iter().map(|&(k, _)| k).collect();
            expect.sort_unstable();
            assert_eq!(all_keys(&t), expect, "case {case}");
        }
    }

    /// Lower-bound seek agrees with a sorted reference vector.
    #[test]
    fn prop_seek_is_lower_bound() {
        let mut rng = SplitMix64::new(0xB7EE_0002);
        for case in 0..256u64 {
            let n_keys = 1 + rng.below(199) as usize;
            let mut keys: Vec<i64> = (0..n_keys).map(|_| rng.range_i64(0, 1000)).collect();
            let probe = rng.range_i64(0, 1000);
            let t = build(&keys);
            keys.sort_unstable();
            let expect = keys.iter().copied().find(|&k| k >= probe);
            let (_, pos) = t.seek(&key(probe)).unwrap();
            let got = pos.map(|p| t.entry(p).unwrap().0[0].as_int().unwrap());
            assert_eq!(got, expect, "case {case}");
        }
    }

    /// Serialize/deserialize after every batch of random ops: the rebuilt
    /// tree must match the live one.
    #[test]
    fn prop_node_pages_roundtrip_randomized() {
        let mut rng = SplitMix64::new(0xB7EE_0003);
        for case in 0..64u64 {
            let n_ops = 1 + rng.below(199) as usize;
            let mut t = BTreeIndex::new(0, 1, false, BTreeConfig::tiny());
            let mut live: Vec<(i64, u32)> = Vec::new();
            let mut stamp = 0u32;
            for _ in 0..n_ops {
                if rng.bool() {
                    let k = rng.range_i64(0, 30);
                    t.insert(key(k), rid(stamp)).unwrap();
                    live.push((k, stamp));
                    stamp += 1;
                } else if !live.is_empty() {
                    let (k, r) = live.remove(0);
                    assert!(t.delete(&key(k), rid(r)).unwrap(), "case {case}");
                }
            }
            let pages: Vec<_> =
                (0..t.node_slot_count() as u32).map(|id| t.encode_node_page(id).unwrap()).collect();
            let back = BTreeIndex::from_node_pages(
                0,
                1,
                false,
                BTreeConfig::tiny(),
                t.root_page(),
                t.entry_count(),
                &pages,
            )
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(all_keys(&back), all_keys(&t), "case {case}");
            back.check_invariants().unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}
