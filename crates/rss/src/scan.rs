//! RSS scans: the RSI.
//!
//! "The primary way of accessing tuples in a relation is via an RSS scan.
//! A scan returns a tuple at a time along a given access path. OPEN, NEXT,
//! and CLOSE are the principal commands on a scan." (paper, Section 3).
//! NEXT here returns a *batch* of tuples ([`RsiScan::next_batch`]); the
//! paper's tuple at a time is `next_batch(1)`, and the accounting is per
//! tuple either way.
//!
//! * [`SegmentScan`] examines **all non-empty pages of the segment**, each
//!   touched once, returning tuples of the requested relation. Its kernel
//!   walks each page's slot directory entry by entry and runs the SARGs,
//!   compiled at OPEN (`codec::EncodedEval`), on the slot bytes in place:
//!   a rejected slot costs one directory read and the compares its SARGs
//!   need, and only accepted tuples are decoded. A reopened scan can
//!   instead replay the RIDs an earlier walk of equal SARGs returned,
//!   with the same touches and RSI calls ([`SegmentScan::reopen`]).
//! * [`IndexScan`] reads B-tree leaf pages sequentially between optional
//!   start and stop keys, fetching the referenced data tuples in key order.
//!   Leaf pages are chained, so NEXT never revisits upper index levels —
//!   only the initial OPEN descends from the root.
//!
//! Both accept SARGs, applied *before* a tuple is returned; a returned
//! tuple costs one RSI call.

use crate::btree::{cmp_key_prefix, IndexId, LeafPos};
use crate::codec::{decode_tuple, EncodedEval};
use crate::error::{RssError, RssResult};
use crate::io::{FileId, PageKey};
use crate::rid::Rid;
#[cfg(test)]
use crate::sarg::SargExpr;
use crate::sarg::SargList;
use crate::segment::SegmentId;
use crate::storage::Storage;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;

/// Upper bound on tuples returned by one `next_batch` call.
pub const MAX_BATCH: usize = 1024;

/// A batch of `(rid, tuple)` pairs returned by one batched `NEXT`.
pub type Batch = Vec<(Rid, Tuple)>;

/// An RSS scan: the RSI `NEXT` operation. Returns `(rid, tuple)` pairs
/// until exhausted.
///
/// Accounting does not depend on how a drain is chunked: each *returned*
/// tuple costs one RSI call (never one per batch), and page touches
/// happen in the same order — any sequence of batch sizes over the same
/// scan produces the same [`crate::IoStats`].
pub trait RsiScan {
    /// NEXT: up to `max.clamp(1, MAX_BATCH)` pairs. A batch may come back
    /// short while the scan still has tuples; only an **empty** batch
    /// means exhausted.
    fn next_batch(&mut self, max: usize) -> RssResult<Batch>;

    /// Drain the scan into a vector (convenience for tests and loaders).
    fn collect_all(&mut self) -> RssResult<Vec<Tuple>>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        loop {
            let batch = self.next_batch(MAX_BATCH)?;
            if batch.is_empty() {
                return Ok(out);
            }
            out.extend(batch.into_iter().map(|(_, t)| t));
        }
    }
}

/// A segment scan's SARG list and the program compiled from it. CLOSE
/// hands both back ([`SegmentScan::into_sargs`]), so the next OPEN of the
/// same relation rewrites the list's operands and recompiles the program
/// in place instead of allocating either again.
#[derive(Default)]
pub struct SegmentSargs {
    pub list: SargList,
    program: EncodedEval,
}

impl From<SargList> for SegmentSargs {
    fn from(list: SargList) -> Self {
        SegmentSargs { list, program: EncodedEval::default() }
    }
}

/// Full scan of a segment, returning tuples of one relation.
pub struct SegmentScan<'a> {
    storage: &'a Storage,
    seg: SegmentId,
    rel_id: u16,
    /// The SARGs and their program, compiled at OPEN and evaluated on
    /// encoded slot bytes: rejected slots are never decoded into a
    /// [`Tuple`].
    sargs: SegmentSargs,
    /// On a replay, the RIDs an earlier walk of an equal SARG list
    /// returned and how many of them were returned again so far; the
    /// walk then takes each page's slots from the list and runs no
    /// program.
    replay: Option<(&'a [Rid], usize)>,
    page_no: u32,
    slot: u16,
    entered_page: bool,
    /// Size of the previous batch if it was full, else 0: pre-sizing the
    /// next batch's vector to it avoids the growth-realloc chain on full
    /// batches. Both scans return a short batch only once exhausted, so
    /// the empty NEXT that ends a selective probe allocates nothing.
    batch_hint: usize,
}

impl<'a> SegmentScan<'a> {
    /// OPEN a segment scan.
    pub fn open(
        storage: &'a Storage,
        seg: SegmentId,
        rel_id: u16,
        sargs: impl Into<SargList>,
    ) -> Self {
        Self::reopen(storage, seg, rel_id, SegmentSargs::from(sargs.into()), None)
    }

    /// OPEN with the SARGs an earlier scan's CLOSE handed back, their
    /// operands rewritten: the program is recompiled in place.
    ///
    /// `replay`, when given, must be the RIDs that a walk of an equal SARG
    /// list over the same data returned. The walk then takes each page's
    /// slots from it instead of running the program: it touches the same
    /// pages in the same order, returns the same tuples and charges the
    /// same RSI calls, and only the per-slot SARG evaluation is skipped.
    pub fn reopen(
        storage: &'a Storage,
        seg: SegmentId,
        rel_id: u16,
        mut sargs: SegmentSargs,
        replay: Option<&'a [Rid]>,
    ) -> Self {
        if replay.is_none() {
            sargs.program.compile(&sargs.list);
        }
        SegmentScan {
            storage,
            seg,
            rel_id,
            sargs,
            replay: replay.map(|rids| (rids, 0)),
            page_no: 0,
            slot: 0,
            entered_page: false,
            batch_hint: 0,
        }
    }

    /// CLOSE, handing the SARGs back so the caller's next OPEN can rewrite
    /// their operands in place instead of building a new list.
    pub fn into_sargs(self) -> SegmentSargs {
        self.sargs
    }

    /// Walk pages and slots, pushing up to `cap` matching tuples into
    /// `out`. The RSI-call count is **not** recorded here — callers
    /// charge one call per pushed tuple. Touch accounting is independent
    /// of `cap`: a page is touched once when the walk first enters it,
    /// whether its slots match or not, and a batch boundary mid-page
    /// does not re-touch on resume.
    ///
    /// Per slot the walk reads one 8-byte directory entry and tests its
    /// live flag and relation tag; the compiled SARGs then see the slot's
    /// bytes, and only a tuple they accept is decoded. A replay visits
    /// only the remembered slots, and stops a full batch where the walk
    /// would: at the first slot past the last tuple pushed, or on the
    /// next non-empty page when that tuple held its page's last slot.
    fn fill(&mut self, cap: usize, out: &mut Batch) -> RssResult<()> {
        let segment = self.storage.segment(self.seg)?;
        while let Some(page) = segment.page(self.page_no) {
            // Empty pages are skipped via the segment's space map; only
            // non-empty pages are touched.
            if !page.is_empty() {
                if !self.entered_page {
                    self.storage.touch(PageKey::new(FileId::Segment(self.seg), self.page_no))?;
                    self.entered_page = true;
                }
                let dir = page.slot_dir()?;
                if let Some((rids, next)) = &mut self.replay {
                    let mut at = self.slot;
                    loop {
                        if out.len() >= cap {
                            if at < page.slot_count() {
                                self.slot = at;
                                return Ok(());
                            }
                            break;
                        }
                        let Some(&rid) = rids.get(*next).filter(|r| r.page == self.page_no) else {
                            break;
                        };
                        let entry = dir
                            .entry(rid.slot)
                            .filter(|e| e.is_live() && e.rel_id() == self.rel_id)
                            .ok_or_else(|| {
                                RssError::Corrupt(format!("replayed RID {rid} holds no tuple"))
                            })?;
                        out.push((rid, decode_tuple(dir.data(entry)?)?));
                        *next += 1;
                        at = rid.slot.saturating_add(1);
                    }
                } else {
                    for (slot, entry) in dir.from(self.slot) {
                        if out.len() >= cap {
                            self.slot = slot;
                            return Ok(());
                        }
                        if !entry.is_live() || entry.rel_id() != self.rel_id {
                            continue;
                        }
                        let bytes = dir.data(entry)?;
                        if self.sargs.program.matches(bytes, &self.sargs.list)? {
                            out.push((Rid::new(self.page_no, slot), decode_tuple(bytes)?));
                        }
                    }
                }
            }
            self.page_no += 1;
            self.slot = 0;
            self.entered_page = false;
        }
        Ok(())
    }
}

impl RsiScan for SegmentScan<'_> {
    fn next_batch(&mut self, max: usize) -> RssResult<Batch> {
        let cap = max.clamp(1, MAX_BATCH);
        let mut out: Batch = Vec::with_capacity(self.batch_hint.min(cap));
        self.fill(cap, &mut out)?;
        self.batch_hint = if out.len() == cap { cap } else { 0 };
        self.storage.record_rsi_calls(out.len() as u64);
        Ok(out)
    }
}

/// An index scan's upper-bound key prefix and whether it is inclusive.
pub type StopKey = (Vec<Value>, bool);

/// Index scan between optional start and stop key prefixes.
///
/// The start prefix positions the scan at the first key `>=` the prefix;
/// the stop prefix ends it at the first key beyond the bound. An equality
/// probe on key columns `k` uses the same prefix for both with an inclusive
/// stop.
pub struct IndexScan<'a> {
    storage: &'a Storage,
    index: IndexId,
    start: Option<Vec<Value>>,
    stop: Option<StopKey>,
    sargs: SargList,
    cursor: Option<LeafPos>,
    current_leaf: Option<u32>,
    opened: bool,
    /// When false, the scan returns index entries without fetching the data
    /// tuple (used when every needed column is in the key — "index-only").
    fetch_data: bool,
    /// See [`SegmentScan::batch_hint`].
    batch_hint: usize,
}

impl<'a> IndexScan<'a> {
    /// OPEN an index scan over the full key range.
    pub fn open_full(storage: &'a Storage, index: IndexId, sargs: impl Into<SargList>) -> Self {
        Self::open(storage, index, None, None, sargs)
    }

    /// OPEN an index scan. `start` is a lower-bound key prefix; `stop` is
    /// an upper-bound prefix with an inclusivity flag.
    pub fn open(
        storage: &'a Storage,
        index: IndexId,
        start: Option<Vec<Value>>,
        stop: Option<(Vec<Value>, bool)>,
        sargs: impl Into<SargList>,
    ) -> Self {
        IndexScan {
            storage,
            index,
            start,
            stop,
            sargs: sargs.into(),
            cursor: None,
            current_leaf: None,
            opened: false,
            fetch_data: true,
            batch_hint: 0,
        }
    }

    /// Equality probe: scan exactly the keys beginning with `prefix`.
    pub fn open_eq(
        storage: &'a Storage,
        index: IndexId,
        prefix: Vec<Value>,
        sargs: impl Into<SargList>,
    ) -> Self {
        Self::open(storage, index, Some(prefix.clone()), Some((prefix, true)), sargs)
    }

    /// Disable data-page fetches; the scan then returns the key columns as
    /// the tuple.
    pub fn index_only(mut self) -> Self {
        self.fetch_data = false;
        self
    }

    /// CLOSE, handing back the start key, stop key and SARG list so the
    /// caller's next OPEN can reuse their allocations.
    pub fn into_parts(self) -> (Option<Vec<Value>>, Option<StopKey>, SargList) {
        (self.start, self.stop, self.sargs)
    }

    fn do_open(&mut self) -> RssResult<()> {
        let entry = self.storage.index(self.index)?;
        let (path, pos) = match &self.start {
            Some(prefix) => entry.tree.seek(prefix)?,
            None => entry.tree.seek_first()?,
        };
        // The OPEN descends root→leaf: every internal page on the path is
        // one index page fetch.
        for page in path {
            self.storage.touch(PageKey::new(FileId::Index(self.index), page))?;
        }
        self.cursor = pos;
        self.opened = true;
        Ok(())
    }

    /// Whether `key` lies beyond the stop bound.
    fn past_stop(&self, key: &[Value]) -> bool {
        match &self.stop {
            None => false,
            Some((prefix, inclusive)) => match cmp_key_prefix(key, prefix) {
                Ordering::Less => false,
                Ordering::Equal => !*inclusive,
                Ordering::Greater => true,
            },
        }
    }

    /// Advance the cursor, pushing up to `cap` matching tuples into
    /// `out`. RSI calls are **not** recorded here — callers charge one
    /// per pushed tuple. Leaf and data-page touches are per-entry work
    /// and happen identically however the drain is chunked.
    fn fill(&mut self, cap: usize, out: &mut Batch) -> RssResult<()> {
        if !self.opened {
            self.do_open()?;
        }
        let storage = self.storage;
        let entry = storage.index(self.index)?;
        while out.len() < cap {
            let Some(pos) = self.cursor else {
                return Ok(());
            };
            // Touch the leaf page when the scan moves onto it. A NEXT along
            // the chain touches each leaf exactly once.
            if self.current_leaf != Some(pos.leaf) {
                storage.touch(PageKey::new(FileId::Index(self.index), pos.leaf))?;
                self.current_leaf = Some(pos.leaf);
            }
            let (key, rid) = entry.tree.entry(pos)?;
            if self.past_stop(key) {
                self.cursor = None;
                return Ok(());
            }
            let key_owned: Vec<Value> = if self.fetch_data { Vec::new() } else { key.to_vec() };
            self.cursor = entry.tree.next_pos(pos)?;
            let tuple = if self.fetch_data {
                storage.fetch(entry.segment, entry.rel_id, rid)?
            } else {
                Tuple::new(key_owned)
            };
            if self.sargs.eval(&tuple) {
                out.push((rid, tuple));
            }
        }
        Ok(())
    }
}

impl RsiScan for IndexScan<'_> {
    fn next_batch(&mut self, max: usize) -> RssResult<Batch> {
        let cap = max.clamp(1, MAX_BATCH);
        let mut out: Batch = Vec::with_capacity(self.batch_hint.min(cap));
        self.fill(cap, &mut out)?;
        self.batch_hint = if out.len() == cap { cap } else { 0 };
        self.storage.record_rsi_calls(out.len() as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sarg::{CompareOp, SargPred};
    use crate::tuple;

    /// Load `n` rows (id, name, id % 10) of relation 1, ids in insertion
    /// order `order`.
    fn setup(n: i64, shuffled: bool) -> (Storage, SegmentId) {
        let mut st = Storage::new(1024);
        let seg = st.create_segment();
        let mut ids: Vec<i64> = (0..n).collect();
        if shuffled {
            // Deterministic shuffle: stride by a coprime.
            ids = (0..n).map(|i| (i * 7919) % n).collect();
        }
        for i in ids {
            st.insert(seg, 1, &tuple![i, format!("n{i}"), i % 10]).unwrap();
        }
        (st, seg)
    }

    #[test]
    fn segment_scan_returns_all_rows_once() {
        let (st, seg) = setup(500, true);
        let mut scan = SegmentScan::open(&st, seg, 1, SargExpr::always_true());
        let rows = scan.collect_all().unwrap();
        assert_eq!(rows.len(), 500);
        let stats = st.io_stats();
        assert_eq!(stats.rsi_calls, 500);
        // Each non-empty page touched exactly once.
        assert_eq!(
            stats.data_page_fetches as usize,
            st.segment(seg).unwrap().nonempty_page_count()
        );
        assert_eq!(stats.buffer_hits, 0);
    }

    #[test]
    fn segment_scan_sargs_cut_rsi_calls() {
        let (st, seg) = setup(500, false);
        let sarg = SargExpr::single(SargPred::new(2, CompareOp::Eq, 3i64));
        let mut scan = SegmentScan::open(&st, seg, 1, sarg);
        let rows = scan.collect_all().unwrap();
        assert_eq!(rows.len(), 50);
        let stats = st.io_stats();
        // Pages all touched, but only matching tuples crossed the RSI.
        assert_eq!(stats.rsi_calls, 50);
        assert_eq!(
            stats.data_page_fetches as usize,
            st.segment(seg).unwrap().nonempty_page_count()
        );
    }

    #[test]
    fn segment_scan_ignores_other_relations() {
        let mut st = Storage::new(64);
        let seg = st.create_segment();
        for i in 0..20 {
            st.insert(seg, 1, &tuple![i]).unwrap();
            st.insert(seg, 2, &tuple![i + 100]).unwrap();
        }
        let mut scan = SegmentScan::open(&st, seg, 2, SargExpr::always_true());
        let rows = scan.collect_all().unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|t| t[0].as_int().unwrap() >= 100));
    }

    #[test]
    fn index_scan_full_returns_key_order() {
        let (mut st, seg) = setup(300, true);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true());
        let ids: Vec<i64> =
            scan.collect_all().unwrap().iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn index_scan_range_bounds() {
        let (mut st, seg) = setup(100, true);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        // 10 <= id < 20
        let mut scan = IndexScan::open(
            &st,
            idx,
            Some(vec![Value::Int(10)]),
            Some((vec![Value::Int(20)], false)),
            SargExpr::always_true(),
        );
        let ids: Vec<i64> =
            scan.collect_all().unwrap().iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ids, (10..20).collect::<Vec<_>>());
        // inclusive stop
        let mut scan = IndexScan::open(
            &st,
            idx,
            Some(vec![Value::Int(95)]),
            Some((vec![Value::Int(99)], true)),
            SargExpr::always_true(),
        );
        assert_eq!(scan.collect_all().unwrap().len(), 5);
    }

    #[test]
    fn index_equality_probe() {
        let (mut st, seg) = setup(200, true);
        let idx = st.create_index(seg, 1, vec![2], false).unwrap();
        let mut scan = IndexScan::open_eq(&st, idx, vec![Value::Int(7)], SargExpr::always_true());
        let rows = scan.collect_all().unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|t| t[2].as_int().unwrap() == 7));
    }

    #[test]
    fn clustered_scan_touches_fewer_data_pages_than_unclustered() {
        // Build two identical relations: one physically clustered on the
        // key, one scattered. A full index scan of the clustered one
        // touches each data page ~once; the unclustered one touches a data
        // page per tuple (buffer smaller than relation).
        let n = 2000i64;
        let mut st = Storage::new(8); // small buffer to defeat caching
        let seg = st.create_segment();
        for i in 0..n {
            let key = (i * 7919) % n; // scattered order
            st.insert(seg, 1, &tuple![key, format!("val-{key}")]).unwrap();
        }
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();

        st.reset_io_stats();
        let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true());
        assert_eq!(scan.collect_all().unwrap().len(), n as usize);
        let unclustered = st.io_stats().data_page_fetches;

        st.cluster_relation(seg, 1, &[0]).unwrap();
        st.evict_all().unwrap();
        st.reset_io_stats();
        let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true());
        assert_eq!(scan.collect_all().unwrap().len(), n as usize);
        let clustered = st.io_stats().data_page_fetches;

        assert!(
            clustered * 4 < unclustered,
            "clustered scan ({clustered} fetches) must be far cheaper than unclustered ({unclustered})"
        );
        let data_pages = st.segment(seg).unwrap().pages_holding(1) as u64;
        assert_eq!(clustered, data_pages, "clustered index scan touches each data page once");
    }

    #[test]
    fn index_scan_counts_index_pages() {
        let (mut st, seg) = setup(1000, false);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        st.reset_io_stats();
        let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true());
        scan.collect_all().unwrap();
        let stats = st.io_stats();
        let tree = &st.index(idx).unwrap().tree;
        // Full scan: every leaf once, plus the root-to-leftmost-leaf path.
        let expected = tree.leaf_page_count() as u64 + (tree.height().unwrap() as u64 - 1);
        assert_eq!(stats.index_page_fetches, expected);
    }

    #[test]
    fn index_only_scan_skips_data_pages() {
        let (mut st, seg) = setup(500, false);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        st.reset_io_stats();
        let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true()).index_only();
        let rows = scan.collect_all().unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(st.io_stats().data_page_fetches, 0);
        assert!(st.io_stats().index_page_fetches > 0);
    }

    #[test]
    fn empty_range_returns_nothing() {
        let (mut st, seg) = setup(10, false);
        let idx = st.create_index(seg, 1, vec![0], true).unwrap();
        let mut scan = IndexScan::open_eq(&st, idx, vec![Value::Int(999)], SargExpr::always_true());
        assert!(scan.next_batch(1).unwrap().is_empty());
    }

    /// Batch sizes of a full drain with `next_batch(MAX_BATCH)`.
    fn drain_batch_sizes(scan: &mut impl RsiScan) -> Vec<usize> {
        let mut sizes = Vec::new();
        loop {
            let b = scan.next_batch(MAX_BATCH).unwrap();
            if b.is_empty() {
                return sizes;
            }
            sizes.push(b.len());
        }
    }

    #[test]
    fn segment_batches_at_max_batch_boundaries() {
        // Relation sizes straddling the batch capacity: full batches come
        // back at exactly MAX_BATCH; the remainder is a short batch; only
        // the *empty* batch signals exhaustion (a short non-empty batch
        // must not be treated as the end).
        for (n, want) in [
            (0usize, vec![]),
            (1, vec![1]),
            (1023, vec![1023]),
            (1024, vec![1024]),
            (1025, vec![1024, 1]),
        ] {
            let (st, seg) = setup(n as i64, n > 1);
            st.reset_io_stats();
            let mut scan = SegmentScan::open(&st, seg, 1, SargExpr::always_true());
            assert_eq!(drain_batch_sizes(&mut scan), want, "n = {n}");
            assert_eq!(st.io_stats().rsi_calls, n as u64, "n = {n}");
        }
    }

    #[test]
    fn index_batches_cover_boundary_sizes() {
        // The index scan may cut batches at leaf boundaries, so only the
        // totals are pinned: every tuple exactly once, one RSI call each,
        // and exhaustion only via the empty batch.
        for n in [1usize, 1023, 1024, 1025] {
            let (mut st, seg) = setup(n as i64, n > 1);
            let idx = st.create_index(seg, 1, vec![0], true).unwrap();
            st.reset_io_stats();
            let mut scan = IndexScan::open_full(&st, idx, SargExpr::always_true());
            let sizes = drain_batch_sizes(&mut scan);
            assert_eq!(sizes.iter().sum::<usize>(), n, "n = {n}");
            assert!(sizes.iter().all(|&s| s > 0 && s <= MAX_BATCH));
            assert_eq!(st.io_stats().rsi_calls, n as u64, "n = {n}");
        }
    }

    #[test]
    fn sarg_rejecting_candidate_at_full_batch_boundary() {
        // 1026 rows, SARG `id != 1023`: the 1024th match comes from *past*
        // the rejected row, so the first batch crosses a rejection right
        // at its tail. The reject must not end the batch early, eat the
        // following tuple, or cost an RSI call.
        let (st, seg) = setup(1026, false);
        st.reset_io_stats();
        let sarg = SargExpr::single(SargPred::new(0, CompareOp::Ne, 1023i64));
        let mut scan = SegmentScan::open(&st, seg, 1, sarg);
        let b1 = scan.next_batch(MAX_BATCH).unwrap();
        assert_eq!(b1.len(), MAX_BATCH);
        assert_eq!(b1.last().unwrap().1[0].as_int().unwrap(), 1024, "1023 skipped");
        let b2 = scan.next_batch(MAX_BATCH).unwrap();
        assert_eq!(b2.len(), 1);
        assert_eq!(b2[0].1[0].as_int().unwrap(), 1025);
        assert!(scan.next_batch(MAX_BATCH).unwrap().is_empty());
        assert_eq!(st.io_stats().rsi_calls, 1025, "one call per returned tuple only");
    }

    /// Drain `scan` with the batch sizes `max()` yields.
    fn drain_with(scan: &mut impl RsiScan, mut max: impl FnMut() -> usize) -> Batch {
        let mut out = Batch::new();
        loop {
            let b = scan.next_batch(max()).unwrap();
            if b.is_empty() {
                return out;
            }
            out.extend(b);
        }
    }

    #[test]
    fn next_batch_is_independent_of_batch_size() {
        // Oracle: over seeded random relations and SARGs, a batched drain
        // (random batch sizes) returns the same (rid, tuple) sequence with
        // the same IoStats as a tuple-at-a-time `next_batch(1)` drain.
        use crate::prng::SplitMix64;
        let mut rng = SplitMix64::new(0x5eed_cafe);
        for case in 0..8 {
            let n = 1 + (case * 397) % 2500;
            let sarg = match case % 3 {
                0 => SargExpr::always_true(),
                1 => SargExpr::single(SargPred::new(2, CompareOp::Eq, (case % 10) as i64)),
                _ => SargExpr::single(SargPred::new(0, CompareOp::Lt, (n / 2) as i64)),
            };
            // Two identical storages so accounting starts from the same
            // cold buffer pool.
            let (st_a, seg_a) = setup(n as i64, true);
            let (st_b, seg_b) = setup(n as i64, true);
            st_a.reset_io_stats();
            st_b.reset_io_stats();

            let mut one = SegmentScan::open(&st_a, seg_a, 1, sarg.clone());
            let singles = drain_with(&mut one, || 1);
            let mut many = SegmentScan::open(&st_b, seg_b, 1, sarg);
            let batched = drain_with(&mut many, || 1 + rng.range_usize(0, MAX_BATCH));

            assert_eq!(singles, batched, "case {case}: same tuples in the same order");
            assert_eq!(st_a.io_stats(), st_b.io_stats(), "case {case}: same accounting");
        }
    }

    /// A literal or stored value from a small domain, so that compares
    /// often tie: NULL, Int, Float (Int-valued ones included, to meet an
    /// Int across the divide) and Str with one- to four-byte UTF-8.
    fn small_value(rng: &mut crate::prng::SplitMix64) -> Value {
        const STRS: &[&str] = &["", "a", "ab", "é", "éa", "Ω", "日本", "😀", "b"];
        match rng.below(8) {
            0 => Value::Null,
            1..=3 => Value::Int(rng.range_i64(-3, 3)),
            4 | 5 => Value::Float(*rng.pick(&[-1.5, 0.0, 1.0, 2.0, 2.5, f64::NAN]).unwrap()),
            _ => Value::Str((*rng.pick(STRS).unwrap()).to_owned()),
        }
    }

    /// A random SARG list over columns `0..7` (tuples have arity 0..=6, so
    /// some columns lie past the arity): one to four DNF factors listed
    /// in any column order, single predicates, conjunctions, ORs, a
    /// repeat of the previous factor's column (`K < b AND K > -n`),
    /// NULL literals, and now and then an always-true factor or an empty
    /// conjunction.
    fn random_sargs(rng: &mut crate::prng::SplitMix64) -> SargList {
        use crate::sarg::CompareOp::{Eq, Ge, Gt, Le, Lt, Ne};
        // A predicate on `col`, or on a random column.
        let pred = |rng: &mut crate::prng::SplitMix64, col: Option<usize>| SargPred {
            col: col.unwrap_or_else(|| rng.range_usize(0, 7)),
            op: *rng.pick(&[Eq, Ne, Lt, Le, Gt, Ge]).unwrap(),
            value: small_value(rng),
        };
        let mut col = rng.range_usize(0, 7);
        let factors = (0..rng.range_usize(1, 5))
            .map(|_| {
                if !rng.chance(0.4) {
                    col = rng.range_usize(0, 7);
                }
                let disjuncts = match rng.below(10) {
                    0 => Vec::new(),
                    1 => vec![Vec::new(), vec![pred(rng, Some(col))]],
                    2..=4 => vec![vec![pred(rng, Some(col))]],
                    5 | 6 => vec![vec![pred(rng, Some(col)), pred(rng, None)]],
                    _ => (0..rng.range_usize(1, 4))
                        .map(|_| (0..rng.range_usize(1, 3)).map(|_| pred(rng, None)).collect())
                        .collect(),
                };
                SargExpr { disjuncts }
            })
            .collect();
        SargList { factors }
    }

    /// Differential test of the segment-scan kernel (slot-directory walk
    /// and compiled SARG evaluator): over seeded random relations —
    /// mixed-type columns, NULLs, varying arity, a second relation on the
    /// same pages, dead slots — and random SARG lists, a drain with random
    /// batch sizes returns exactly the `(Rid, Tuple)` sequence, with
    /// exactly the `IoStats`, of a reference that touches every
    /// non-empty page, decodes every live slot of the relation and keeps
    /// the tuples `SargList::eval` accepts. One `SegmentSargs` is carried
    /// through every case, so each program is recompiled in place over
    /// the last one. Each case then OPENs again to replay the RIDs its
    /// walk returned: the replay must return the same sequence with the
    /// same `IoStats`, touching the pages that hold no remembered slot as
    /// well, and under the walk's random batch sizes it must end every
    /// batch on the same page touch as the walk.
    #[test]
    fn segment_scan_matches_decode_then_eval_reference() {
        use crate::prng::SplitMix64;
        let mut rng = SplitMix64::new(0x5ca1_ab1e);
        let mut carried = SegmentSargs::default();
        for case in 0..300 {
            let mut st = Storage::new(if case % 2 == 0 { 1024 } else { 3 });
            let seg = st.create_segment();
            let row = |rng: &mut SplitMix64| {
                Tuple::new((0..rng.range_usize(0, 7)).map(|_| small_value(rng)).collect())
            };
            for _ in 0..rng.range_usize(1, 4) {
                let ours: Vec<Tuple> =
                    (0..rng.range_usize(0, 120)).map(|_| row(&mut rng)).collect();
                let theirs: Vec<Tuple> =
                    (0..rng.range_usize(0, 40)).map(|_| row(&mut rng)).collect();
                st.insert_many(seg, 1, ours).unwrap();
                st.insert_many(seg, 2, theirs).unwrap();
            }
            let doomed: Vec<Rid> = st
                .segment(seg)
                .unwrap()
                .iter_relation(1)
                .map(|(rid, _)| rid)
                .filter(|_| rng.chance(0.2))
                .collect();
            st.delete_many(seg, 1, &doomed).unwrap();
            let sargs = random_sargs(&mut rng);
            carried.list = sargs.clone();

            // Drain with batch sizes from `sizes`, and the stats after
            // each batch.
            let drain_traced = |scan: &mut SegmentScan<'_>, mut sizes: SplitMix64| {
                st.evict_all().unwrap();
                st.reset_io_stats();
                let (mut all, mut stats) = (Batch::new(), Vec::new());
                loop {
                    let b = scan.next_batch(1 + sizes.range_usize(0, 64)).unwrap();
                    stats.push(st.io_stats());
                    if b.is_empty() {
                        return (all, stats);
                    }
                    all.extend(b);
                }
            };
            let sizes = SplitMix64::new(case);
            let mut scan = SegmentScan::reopen(&st, seg, 1, carried, None);
            let (got, got_stats) = drain_traced(&mut scan, sizes.clone());
            carried = scan.into_sargs();
            let rids: Vec<Rid> = got.iter().map(|&(rid, _)| rid).collect();
            let mut scan = SegmentScan::reopen(&st, seg, 1, carried, Some(&rids));
            let (replayed, replayed_stats) = drain_traced(&mut scan, sizes);
            carried = scan.into_sargs();
            assert_eq!(replayed, got, "case {case}: replay, sargs {sargs:?}");
            assert_eq!(replayed_stats, got_stats, "case {case}: replay accounting per batch");

            st.evict_all().unwrap();
            st.reset_io_stats();
            let segment = st.segment(seg).unwrap();
            let mut want = Batch::new();
            for page_no in 0..segment.page_count() as u32 {
                let page = segment.page(page_no).unwrap();
                if page.is_empty() {
                    continue;
                }
                st.touch(PageKey::new(FileId::Segment(seg), page_no)).unwrap();
                for (slot, item) in page.iter() {
                    let (rel, bytes) = item.unwrap();
                    let tuple = decode_tuple(bytes).unwrap();
                    if rel == 1 && sargs.eval(&tuple) {
                        want.push((Rid::new(page_no, slot), tuple));
                    }
                }
            }
            st.record_rsi_calls(want.len() as u64);

            assert_eq!(got, want, "case {case}: sargs {sargs:?}");
            assert_eq!(got_stats.last(), Some(&st.io_stats()), "case {case}: same accounting");
        }
    }

    /// A slot directory that points outside its page is a typed
    /// `Corrupt` error from `Page::get`, `Segment::get` and the segment
    /// scan, never a panic: a live slot whose bytes run past the page end,
    /// and a slot count whose directory would overrun the page.
    #[test]
    fn corrupt_slot_directory_is_a_typed_error() {
        use crate::error::RssError;
        use crate::page::{Page, PAGE_SIZE};
        use crate::pagefile::{stamp_page, DirBackend, PageBackend};
        use crate::segment::Segment;
        use std::sync::Arc;

        let mut st = Storage::new(16);
        let seg = st.create_segment();
        let rid = st.insert(seg, 1, &tuple![7, "DENVER"]).unwrap();
        let image = **st.segment(seg).unwrap().page(0).unwrap().image();
        let mut past_end = image;
        // Slot 0's entry is the last 8 bytes; its length is bytes 4..6.
        past_end[PAGE_SIZE - 4..PAGE_SIZE - 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let mut overrun = image;
        overrun[..2].copy_from_slice(&600u16.to_le_bytes());

        let dir = std::env::temp_dir().join(format!("sysr-corrupt-slots-{}", std::process::id()));
        for (name, mut bad) in [("data past the page end", past_end), ("slot count 600", overrun)] {
            let page = Page::from_image(Arc::new(bad));
            assert!(matches!(page.get(0), Err(RssError::Corrupt(_))), "{name}: Page::get");
            let segment = Segment::from_pages(0, vec![page], 0);
            assert!(
                matches!(segment.get(1, rid), Err(RssError::Corrupt(_))),
                "{name}: Segment::get"
            );

            // The same image on disk, stamped so that it verifies, under a
            // reopened storage: the scan reports it.
            let _ = std::fs::remove_dir_all(&dir);
            st.save_to(&dir).unwrap();
            stamp_page(&mut bad, 1);
            let key = PageKey::new(FileId::Segment(seg), 0);
            DirBackend::open(&dir).unwrap().write_page(key, &Arc::new(bad)).unwrap();
            let reopened = Storage::open(&dir, 16).unwrap();
            let mut scan = SegmentScan::open(&reopened, seg, 1, SargList::none());
            assert!(
                matches!(scan.next_batch(MAX_BATCH), Err(RssError::Corrupt(_))),
                "{name}: segment scan"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_next_batch_is_independent_of_batch_size() {
        let mut rng = crate::prng::SplitMix64::new(0xfeed_beef);
        for case in 0..4 {
            let n = 200 + case * 613;
            let (mut st_a, seg_a) = setup(n as i64, true);
            let (mut st_b, seg_b) = setup(n as i64, true);
            let idx_a = st_a.create_index(seg_a, 1, vec![0], true).unwrap();
            let idx_b = st_b.create_index(seg_b, 1, vec![0], true).unwrap();
            st_a.reset_io_stats();
            st_b.reset_io_stats();

            let mut one = IndexScan::open_full(&st_a, idx_a, SargExpr::always_true());
            let singles = drain_with(&mut one, || 1);
            let mut many = IndexScan::open_full(&st_b, idx_b, SargExpr::always_true());
            let batched = drain_with(&mut many, || 1 + rng.range_usize(0, MAX_BATCH));

            assert_eq!(singles, batched, "case {case}");
            assert_eq!(st_a.io_stats(), st_b.io_stats(), "case {case}");
        }
    }
}
