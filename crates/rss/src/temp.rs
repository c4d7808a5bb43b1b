//! Temporary lists.
//!
//! "If the subquery can return a set of values, they are returned in a
//! temporary list, an internal form which is more efficient than a relation
//! but which can only be accessed sequentially" (paper, Section 6). Temp
//! lists are also where sorts put their output: the sorted inner relation
//! of a merging-scans join is a temp list, and the paper's
//! `C-inner(sorted list) = TEMPPAGES/N + W*RSICARD` formula charges its
//! page footprint.
//!
//! A [`TempList`] materializes tuples into real 4 KB pages (page boundaries
//! computed from real encoded sizes) written to the page backend under a
//! fresh [`FileId::Temp`], so reading it back costs temp-page fetches — each
//! a physical backend read on a pool miss — and RSI calls exactly like any
//! other access path. Temp pages are scratch: they are never saved with the
//! database, and [`TempList::destroy`] drops their buffer frames and removes
//! the backing file from the backend.

use crate::error::RssResult;
use crate::io::{FileId, PageKey};
use crate::page::{PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::storage::Storage;
use crate::tuple::Tuple;

/// A materialized, sequentially-readable list of tuples.
#[derive(Debug)]
pub struct TempList {
    file: u32,
    tuples: Vec<Tuple>,
    /// `page_of[i]` is the virtual page holding tuple `i`.
    page_of: Vec<u32>,
    page_count: u32,
}

impl TempList {
    /// Materialize `tuples` into a new temp list, writing each page image
    /// to the page backend and charging one temp-page write per page.
    pub fn materialize(storage: &Storage, tuples: Vec<Tuple>) -> RssResult<TempList> {
        let file = storage.alloc_temp_file();
        let usable = PAGE_SIZE - PAGE_HEADER_SIZE;
        let mut page_of = Vec::with_capacity(tuples.len());
        let mut page = 0u32;
        let mut used = 0usize;
        let mut payload: Vec<u8> = Vec::with_capacity(usable);
        for t in &tuples {
            let sz = t.encoded_size().min(usable);
            if used + sz > usable && used > 0 {
                storage.write_temp_page(file, page, &payload)?;
                payload.clear();
                page += 1;
                used = 0;
            }
            used += sz;
            crate::codec::encode_tuple(t, &mut payload);
            // A tuple bigger than a page occupies one page alone; its image
            // is clipped (the in-memory copy stays authoritative).
            payload.truncate(usable);
            page_of.push(page);
        }
        let page_count = if tuples.is_empty() { 0 } else { page + 1 };
        if !tuples.is_empty() {
            storage.write_temp_page(file, page, &payload)?;
        }
        storage.record_temp_write(page_count as u64);
        storage.record_temp_list_created();
        Ok(TempList { file, tuples, page_of, page_count })
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Pages occupied — the paper's `TEMPPAGES`.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    pub fn file_id(&self) -> u32 {
        self.file
    }

    /// Peek tuple `i` without any accounting (planning / tests).
    pub fn peek(&self, i: usize) -> Option<&Tuple> {
        self.tuples.get(i)
    }

    /// Sequential scan from the beginning.
    pub fn scan<'a>(&'a self, storage: &'a Storage) -> TempScan<'a> {
        TempScan { list: self, storage, pos: 0, page: None }
    }

    /// Drop the list's pages from the buffer pool and its file from the
    /// backend. A list whose file could not be removed is not counted as
    /// destroyed, so it shows in `IoStats::temp_lists_leaked`.
    pub fn destroy(&self, storage: &Storage) -> RssResult<()> {
        storage.invalidate_temp(self.file)?;
        storage.record_temp_list_destroyed();
        Ok(())
    }
}

/// Scope guard tying a [`TempList`]'s lifetime to a lexical scope: the
/// list is destroyed (its buffer frames dropped, its backend file
/// removed, the destruction counted) when the guard drops — on success
/// *and* on early error returns, so an operator that spills cannot leak
/// temp pages.
pub struct TempGuard<'a> {
    list: TempList,
    storage: &'a Storage,
}

impl<'a> TempGuard<'a> {
    pub fn new(list: TempList, storage: &'a Storage) -> Self {
        TempGuard { list, storage }
    }

    pub fn list(&self) -> &TempList {
        &self.list
    }
}

impl Drop for TempGuard<'_> {
    fn drop(&mut self) {
        // A drop cannot return the error; the list stays counted as
        // leaked (see `TempList::destroy`).
        let _ = self.list.destroy(self.storage);
    }
}

/// Sequential cursor over a temp list with positioned rescan support —
/// the merging-scans join rewinds the inner list to the start of the
/// current join group ("remembering where matching join groups are
/// located").
pub struct TempScan<'a> {
    list: &'a TempList,
    storage: &'a Storage,
    pos: usize,
    /// The page the cursor last entered, touched when it did.
    page: Option<u32>,
}

impl<'a> TempScan<'a> {
    /// Current position (tuple ordinal).
    pub fn tell(&self) -> usize {
        self.pos
    }

    /// Reposition the cursor.
    pub fn seek(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// NEXT: advance over up to `max` tuples and return them as a
    /// borrowed run — no per-tuple clone, which is what makes the sort
    /// read-back batch-friendly. Accounting does not depend on `max`: a
    /// page is touched once when the cursor enters it, as a segment scan
    /// touches its pages, and each returned tuple is one RSI call,
    /// recorded as a single bulk add. An empty slice means exhausted.
    pub fn next_batch(&mut self, max: usize) -> RssResult<&'a [Tuple]> {
        let cap = max.clamp(1, crate::scan::MAX_BATCH);
        let start = self.pos;
        if start >= self.list.tuples.len() {
            return Ok(&[]);
        }
        let end = start.saturating_add(cap).min(self.list.tuples.len());
        for &pg in self.list.page_of.get(start..end).unwrap_or_default() {
            if self.page != Some(pg) {
                self.storage.touch(PageKey::new(FileId::Temp(self.list.file), pg))?;
                self.page = Some(pg);
            }
        }
        self.pos = end;
        self.storage.record_rsi_calls((end - start) as u64);
        Ok(self.list.tuples.get(start..end).unwrap_or(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::MAX_BATCH;
    use crate::tuple;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| tuple![i, format!("padding-padding-{i}")]).collect()
    }

    #[test]
    fn materialize_counts_page_writes() {
        let st = Storage::new(16);
        let list = TempList::materialize(&st, rows(1000)).unwrap();
        assert!(list.page_count() > 1);
        assert_eq!(st.io_stats().temp_pages_written, list.page_count() as u64);
    }

    #[test]
    fn empty_list() {
        let st = Storage::new(16);
        let list = TempList::materialize(&st, vec![]).unwrap();
        assert_eq!(list.page_count(), 0);
        assert!(list.is_empty());
        let mut scan = list.scan(&st);
        assert!(scan.next_batch(1).unwrap().is_empty());
    }

    #[test]
    fn sequential_scan_touches_each_page_once() {
        let st = Storage::new(64);
        let list = TempList::materialize(&st, rows(500)).unwrap();
        st.reset_io_stats();
        let mut scan = list.scan(&st);
        let mut n = 0;
        while !scan.next_batch(1).unwrap().is_empty() {
            n += 1;
        }
        assert_eq!(n, 500);
        let stats = st.io_stats();
        assert_eq!(stats.temp_page_fetches, list.page_count() as u64);
        assert_eq!(stats.buffer_hits, 0, "a page is touched on entry only");
        assert_eq!(stats.rsi_calls, 500);
    }

    #[test]
    fn seek_and_tell_support_group_rewind() {
        let st = Storage::new(64);
        let list = TempList::materialize(&st, rows(10)).unwrap();
        let mut scan = list.scan(&st);
        scan.next_batch(2).unwrap();
        let mark = scan.tell();
        let third = scan.next_batch(1).unwrap();
        scan.seek(mark);
        assert_eq!(scan.next_batch(1).unwrap(), third);
        assert_eq!(third, &rows(10)[2..3]);
    }

    #[test]
    fn destroy_drops_frames_and_backend_pages() {
        let st = Storage::new(64);
        let list = TempList::materialize(&st, rows(100)).unwrap();
        let mut scan = list.scan(&st);
        while !scan.next_batch(MAX_BATCH).unwrap().is_empty() {}
        let before = st.io_stats();
        list.destroy(&st).unwrap();
        assert_eq!(st.io_stats().temp_lists_leaked(), 0);
        // The frames are gone: a touch misses again. (That the backend
        // pages went with them is `storage.rs`'s leak test — only it can
        // see the backend.)
        let key = PageKey::new(FileId::Temp(list.file_id()), 0);
        assert!(st.touch(key).unwrap(), "destroyed pages must not stay resident");
        let after = st.io_stats();
        assert_eq!(after.temp_page_fetches, before.temp_page_fetches + 1);
        assert_eq!(after.backend_writes, before.backend_writes, "destroy writes nothing");
        // Destroying twice is harmless to the backend (absent = Ok).
        list.destroy(&st).unwrap();
    }

    /// Drain `list` from the start with the batch sizes `max()` yields.
    fn drain(list: &TempList, st: &Storage, mut max: impl FnMut() -> usize) -> Vec<Tuple> {
        let mut scan = list.scan(st);
        let mut out = Vec::new();
        loop {
            let run = scan.next_batch(max()).unwrap();
            if run.is_empty() {
                return out;
            }
            out.extend_from_slice(run);
        }
    }

    #[test]
    fn next_batch_is_independent_of_batch_size() {
        // Oracle: a drain in random batch sizes returns the same tuple
        // sequence with the same IoStats as a `next_batch(1)` drain. Two
        // storages with a pool smaller than the list, so evictions count.
        let mut rng = crate::prng::SplitMix64::new(0x7e3f_0001);
        for n in [1i64, 37, 1024, 2500] {
            let (st_a, st_b) = (Storage::new(4), Storage::new(4));
            let list_a = TempList::materialize(&st_a, rows(n)).unwrap();
            let list_b = TempList::materialize(&st_b, rows(n)).unwrap();
            let singles = drain(&list_a, &st_a, || 1);
            let batched = drain(&list_b, &st_b, || 1 + rng.range_usize(0, MAX_BATCH));
            assert_eq!(singles, rows(n), "n = {n}");
            assert_eq!(singles, batched, "n = {n}: same tuples in the same order");
            assert_eq!(st_a.io_stats(), st_b.io_stats(), "n = {n}: same accounting");
        }
    }

    #[test]
    fn big_tuples_one_per_page() {
        let st = Storage::new(16);
        let big: Vec<Tuple> = (0..5).map(|i| tuple![i, "x".repeat(3000)]).collect();
        let list = TempList::materialize(&st, big).unwrap();
        assert_eq!(list.page_count(), 5);
    }
}
