//! Segments: logical units of pages holding one or more relations.
//!
//! Pages are organized into segments; a segment may contain tuples of
//! several relations (interleaved on shared pages), but no relation spans a
//! segment. This interleaving is why the paper's statistics include
//! `P(T)` — the fraction of a segment's non-empty pages that hold tuples of
//! relation T — and why a segment scan must touch *every* non-empty page
//! regardless of which relation it wants.

#![expect(
    clippy::indexing_slicing,
    reason = "slotted-page layout: offsets are derived from the page header and validated by the page checksum"
)]

use crate::codec::{decode_tuple, tuple_bytes};
use crate::error::{RssError, RssResult};
use crate::page::{Page, PageImage, PAGE_SIZE};
use crate::rid::Rid;
use crate::tuple::Tuple;
use std::collections::BTreeSet;

/// Identifier of a segment within a [`crate::Storage`].
pub type SegmentId = u32;

/// A growable collection of slotted pages.
#[derive(Debug, Default)]
pub struct Segment {
    id: SegmentId,
    pages: Vec<Page>,
    /// Page to try first on insert; avoids rescanning from page 0.
    fill_hint: usize,
    /// Pages mutated since the last [`Segment::drain_dirty`]; the storage
    /// layer flushes their images to the page-file backend after every
    /// mutating call so the persistent bytes stay current.
    dirty: BTreeSet<u32>,
}

impl Segment {
    pub fn new(id: SegmentId) -> Self {
        Segment { id, pages: Vec::new(), fill_hint: 0, dirty: BTreeSet::new() }
    }

    /// Rebuild a segment from page images read back from a page file
    /// (database open). Nothing is considered dirty.
    pub fn from_pages(id: SegmentId, pages: Vec<Page>, fill_hint: usize) -> Self {
        Segment { id, pages, fill_hint, dirty: BTreeSet::new() }
    }

    /// Take the set of pages mutated since the last drain.
    pub fn drain_dirty(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }

    /// Re-mark drained pages whose flush failed, so the next flush
    /// writes them.
    pub(crate) fn mark_dirty(&mut self, pages: impl IntoIterator<Item = u32>) {
        self.dirty.extend(pages);
    }

    pub fn fill_hint(&self) -> usize {
        self.fill_hint
    }

    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Number of pages allocated in the segment (empty or not).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages holding at least one live tuple (of any relation).
    /// Denominator of the paper's `P(T)`.
    pub fn nonempty_page_count(&self) -> usize {
        self.pages.iter().filter(|p| !p.is_empty()).count()
    }

    /// Number of pages holding at least one live tuple of `rel_id` — the
    /// paper's `TCARD(T)`.
    pub fn pages_holding(&self, rel_id: u16) -> usize {
        self.pages.iter().filter(|p| p.holds_relation(rel_id)).count()
    }

    /// Count live tuples of `rel_id` — the paper's `NCARD(T)`, computed by
    /// an exhaustive walk (this is what `UPDATE STATISTICS` runs).
    pub fn count_tuples(&self, rel_id: u16) -> usize {
        self.pages.iter().map(|p| p.count_relation(rel_id)).sum()
    }

    pub fn page(&self, page_no: u32) -> Option<&Page> {
        self.pages.get(page_no as usize)
    }

    /// Stamp page `page_no` in place for a backend write and return its
    /// shared image (see [`Page::stamp`]).
    pub(crate) fn stamp(&mut self, page_no: u32, lsn: u32) -> Option<&PageImage> {
        self.pages.get_mut(page_no as usize).map(|page| page.stamp(lsn))
    }

    /// Insert a tuple for `rel_id`, appending a page if no existing page
    /// fits. Returns the tuple's RID.
    pub fn insert(&mut self, rel_id: u16, tuple: &Tuple) -> RssResult<Rid> {
        let data = tuple_bytes(tuple);
        if data.len() > Page::max_tuple_size() {
            return Err(RssError::TupleTooLarge { size: data.len(), max: Page::max_tuple_size() });
        }
        // Try the fill-hint page, then the final page, then append.
        for candidate in [self.fill_hint, self.pages.len().saturating_sub(1)] {
            if let Some(page) = self.pages.get_mut(candidate) {
                if let Some(slot) = page.insert(rel_id, &data) {
                    self.fill_hint = candidate;
                    self.dirty.insert(candidate as u32);
                    return Ok(Rid::new(candidate as u32, slot));
                }
            }
        }
        let mut page = Page::new();
        #[expect(
            clippy::expect_used,
            reason = "tuple size was checked against max_tuple_size above"
        )]
        let slot = page
            .insert(rel_id, &data)
            .expect("fresh page must accept a tuple within max_tuple_size");
        self.pages.push(page);
        self.fill_hint = self.pages.len() - 1;
        self.dirty.insert((self.pages.len() - 1) as u32);
        Ok(Rid::new((self.pages.len() - 1) as u32, slot))
    }

    /// Fetch and decode the tuple at `rid`, verifying it belongs to
    /// `rel_id`.
    pub fn get(&self, rel_id: u16, rid: Rid) -> RssResult<Tuple> {
        let page = self
            .pages
            .get(rid.page as usize)
            .ok_or_else(|| RssError::BadRid(format!("page {} of segment {}", rid.page, self.id)))?;
        let (tag, bytes) = page
            .get(rid.slot)?
            .ok_or_else(|| RssError::BadRid(format!("slot {rid} empty in segment {}", self.id)))?;
        if tag != rel_id {
            return Err(RssError::BadRid(format!(
                "rid {rid} belongs to relation {tag}, not {rel_id}"
            )));
        }
        decode_tuple(bytes)
    }

    /// Delete the tuple at `rid` (must belong to `rel_id`). Space is
    /// reclaimed lazily by page compaction on demand.
    pub fn delete(&mut self, rel_id: u16, rid: Rid) -> RssResult<()> {
        // Validate ownership first.
        self.get(rel_id, rid)?;
        let page = &mut self.pages[rid.page as usize];
        page.delete(rid.slot)?;
        if page.free_space() < PAGE_SIZE / 8 {
            page.compact();
        }
        self.dirty.insert(rid.page);
        if (rid.page as usize) < self.fill_hint {
            self.fill_hint = rid.page as usize;
        }
        Ok(())
    }

    /// Iterate `(rid, tuple)` for all live tuples of `rel_id`, in physical
    /// order. Used by `UPDATE STATISTICS` and index builds; query
    /// execution goes through [`crate::SegmentScan`] so page fetches are
    /// accounted. A corrupt directory entry is an `Err` item at its RID.
    pub fn iter_relation<'a>(
        &'a self,
        rel_id: u16,
    ) -> impl Iterator<Item = (Rid, RssResult<Tuple>)> + 'a {
        self.pages.iter().enumerate().flat_map(move |(page_no, page)| {
            page.iter().filter_map(move |(slot, item)| {
                let tuple = match item {
                    Ok((rel, bytes)) if rel == rel_id => decode_tuple(bytes),
                    Ok(_) => return None,
                    Err(e) => Err(e),
                };
                Some((Rid::new(page_no as u32, slot), tuple))
            })
        })
    }

    /// Encoded lengths of the live tuples whose directory entries read
    /// back, with their relation ids.
    fn live_lens(&self) -> impl Iterator<Item = (u16, usize)> + '_ {
        self.pages
            .iter()
            .flat_map(Page::iter)
            .filter_map(|(_, item)| item.ok().map(|(rel, bytes)| (rel, bytes.len())))
    }

    /// Total encoded bytes of live tuples belonging to `rel_id` (statistic
    /// source for the relation's average tuple width).
    pub fn bytes_of_relation(&self, rel_id: u16) -> usize {
        self.live_lens().filter(|&(rel, _)| rel == rel_id).map(|(_, len)| len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    fn row(i: i64) -> Tuple {
        tuple![i, format!("name-{i}"), i as f64 * 1.5]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut seg = Segment::new(0);
        let rid = seg.insert(1, &row(42)).unwrap();
        assert_eq!(seg.get(1, rid).unwrap(), row(42));
    }

    #[test]
    fn wrong_relation_id_is_an_error() {
        let mut seg = Segment::new(0);
        let rid = seg.insert(1, &row(1)).unwrap();
        assert!(seg.get(2, rid).is_err());
    }

    #[test]
    fn spills_to_new_pages() {
        let mut seg = Segment::new(0);
        for i in 0..1000 {
            seg.insert(1, &row(i)).unwrap();
        }
        assert!(seg.page_count() > 1, "1000 rows cannot fit on one 4K page");
        assert_eq!(seg.count_tuples(1), 1000);
        assert_eq!(seg.nonempty_page_count(), seg.page_count());
    }

    #[test]
    fn interleaved_relations_share_pages() {
        let mut seg = Segment::new(0);
        for i in 0..50 {
            seg.insert(1, &row(i)).unwrap();
            seg.insert(2, &row(i)).unwrap();
        }
        // Both relations live in the same (small) set of pages.
        assert_eq!(seg.count_tuples(1), 50);
        assert_eq!(seg.count_tuples(2), 50);
        let p1 = seg.pages_holding(1);
        let p2 = seg.pages_holding(2);
        let total = seg.nonempty_page_count();
        assert!(p1 + p2 > total, "relations must share at least one page");
    }

    #[test]
    fn tcard_less_than_nonempty_when_sharing() {
        let mut seg = Segment::new(0);
        // Relation 1 gets a few rows, relation 2 many: P(1) < 1.
        for i in 0..5 {
            seg.insert(1, &row(i)).unwrap();
        }
        for i in 0..2000 {
            seg.insert(2, &row(i)).unwrap();
        }
        assert!(seg.pages_holding(1) < seg.nonempty_page_count());
    }

    #[test]
    fn delete_then_get_fails() {
        let mut seg = Segment::new(0);
        let rid = seg.insert(1, &row(7)).unwrap();
        seg.delete(1, rid).unwrap();
        assert!(seg.get(1, rid).is_err());
        assert_eq!(seg.count_tuples(1), 0);
    }

    #[test]
    fn iter_relation_filters_by_relation() {
        let mut seg = Segment::new(0);
        for i in 0..10 {
            seg.insert(1, &row(i)).unwrap();
            seg.insert(2, &row(i + 100)).unwrap();
        }
        let ids: Vec<i64> = seg
            .iter_relation(2)
            .map(|(_, t)| t.unwrap().get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut seg = Segment::new(0);
        let huge = Tuple::new(vec![Value::Str("x".repeat(5000))]);
        assert!(matches!(seg.insert(1, &huge), Err(RssError::TupleTooLarge { .. })));
    }
}
