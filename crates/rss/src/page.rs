//! 4 KB slotted pages.
//!
//! The RSS stores tuples on 4 KB pages; no tuple spans a page (paper,
//! Section 3). A page is a real byte array with the classic slotted
//! layout: a fixed header, tuple data growing upward from the header, and
//! a slot directory growing downward from the end of the page.
//!
//! ```text
//! +--------+----------------------->    free    <-------------------+
//! | header | tuple data ...                        ... slot dir     |
//! +--------+--------------------------------------------------------+
//! 0        16                     lower      upper               4096
//! ```
//!
//! Each slot records the owning **relation id** — segments interleave
//! tuples of several relations on the same pages, and a segment scan uses
//! the tag to return only the tuples of the requested relation.

#![expect(
    clippy::indexing_slicing,
    reason = "slotted-page byte layout: offsets come from the page's own slot directory within a fixed PAGE_SIZE buffer"
)]

use crate::error::{RssError, RssResult};
use std::sync::Arc;

/// Page size in bytes, as in System R.
pub const PAGE_SIZE: usize = 4096;
/// Bytes reserved for the page header.
pub const PAGE_HEADER_SIZE: usize = 16;
/// Bytes per slot-directory entry.
pub const SLOT_SIZE: usize = 8;

/// A 4 KB page image as the buffer pool and the page backends pass it:
/// one shared allocation, cloned by reference count. Whoever mutates an
/// image that someone else still holds copies it first
/// ([`Arc::make_mut`]), so a holder never sees a later change.
pub type PageImage = Arc<[u8; PAGE_SIZE]>;

const OFF_SLOT_COUNT: usize = 0;
const OFF_LOWER: usize = 2;
const OFF_UPPER: usize = 4;
const OFF_LIVE: usize = 6;

/// Byte offset of the flags within a slot-directory entry.
const SLOT_FLAGS: usize = 6;
const FLAG_LIVE: u16 = 1;

fn u16_at(bytes: &[u8; PAGE_SIZE], off: usize) -> u16 {
    u16::from_le_bytes([bytes[off], bytes[off + 1]])
}

fn set_u16(bytes: &mut [u8; PAGE_SIZE], off: usize, v: u16) {
    bytes[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn write_slot(
    bytes: &mut [u8; PAGE_SIZE],
    slot: u16,
    rel_id: u16,
    offset: u16,
    len: u16,
    flags: u16,
) {
    let base = Page::slot_offset(slot);
    set_u16(bytes, base, rel_id);
    set_u16(bytes, base + 2, offset);
    set_u16(bytes, base + 4, len);
    set_u16(bytes, base + SLOT_FLAGS, flags);
}

/// A slotted 4 KB page. Its image is shared copy-on-write: after a flush
/// the page backend (or a dirty buffer frame) holds the same allocation,
/// and the first mutation after that copies it. Every mutator therefore
/// checks what it can first and takes the image for writing last, so a
/// rejected insert copies nothing.
#[derive(Clone)]
pub struct Page {
    bytes: PageImage,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut bytes = Arc::new([0; PAGE_SIZE]);
        let b = Arc::make_mut(&mut bytes);
        set_u16(b, OFF_LOWER, PAGE_HEADER_SIZE as u16);
        set_u16(b, OFF_UPPER, PAGE_SIZE as u16);
        Page { bytes }
    }

    /// Rebuild a page from a raw 4 KB image (a verified backend read).
    pub fn from_image(bytes: PageImage) -> Self {
        Page { bytes }
    }

    /// The page image, for stamping and backend writes. Bytes 8..16 of
    /// the header are unused by the slotted layout and carry the recovery
    /// stamp (checksum + LSN).
    pub fn image(&self) -> &PageImage {
        &self.bytes
    }

    /// Write the recovery stamp for `lsn` into header bytes 8..16 and
    /// return the stamped image — the page is its own write buffer, and
    /// the handle it returns is what the pool and the backend keep.
    pub(crate) fn stamp(&mut self, lsn: u32) -> &PageImage {
        crate::pagefile::stamp_page(Arc::make_mut(&mut self.bytes), lsn);
        &self.bytes
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16_at(&self.bytes, off)
    }

    /// Number of slot-directory entries (live and dead).
    pub fn slot_count(&self) -> u16 {
        self.u16_at(OFF_SLOT_COUNT)
    }

    /// Number of live (non-deleted) tuples on the page.
    pub fn live_count(&self) -> u16 {
        self.u16_at(OFF_LIVE)
    }

    /// True if the page holds no live tuples. A segment scan skips empty
    /// pages without fetching them ("all the non-empty pages ... will be
    /// touched").
    pub fn is_empty(&self) -> bool {
        self.live_count() == 0
    }

    fn lower(&self) -> usize {
        self.u16_at(OFF_LOWER) as usize
    }

    fn upper(&self) -> usize {
        self.u16_at(OFF_UPPER) as usize
    }

    /// Contiguous free bytes between the data area and the slot directory.
    pub fn free_space(&self) -> usize {
        self.upper().saturating_sub(self.lower())
    }

    /// Largest tuple that could ever fit on an empty page.
    pub fn max_tuple_size() -> usize {
        PAGE_SIZE - PAGE_HEADER_SIZE - SLOT_SIZE
    }

    fn slot_offset(slot: u16) -> usize {
        PAGE_SIZE - (slot as usize + 1) * SLOT_SIZE
    }

    /// The slot directory, checked once: its `slot_count` entries must
    /// fit between the header and the page end. Every read of a stored
    /// tuple goes through it, so a corrupt directory is an
    /// [`RssError::Corrupt`], never an out-of-range read.
    #[inline]
    pub(crate) fn slot_dir(&self) -> RssResult<SlotDir<'_>> {
        let n = self.slot_count() as usize;
        let start = PAGE_SIZE
            .checked_sub(n * SLOT_SIZE)
            .filter(|&start| start >= PAGE_HEADER_SIZE)
            .ok_or_else(|| RssError::Corrupt(format!("slot count {n} overruns the page")))?;
        Ok(SlotDir { bytes: &self.bytes, entries: &self.bytes[start..] })
    }

    /// Whether an insertion of `len` tuple bytes would fit, counting the
    /// possible new slot entry.
    pub fn fits(&self, len: usize) -> bool {
        // A dead slot may be reusable, but only the data bytes must fit in
        // the gap then; be conservative and require slot space too.
        len + SLOT_SIZE <= self.free_space()
    }

    /// Insert tuple bytes tagged with `rel_id`. Returns the slot number, or
    /// `None` if the page is full (or its directory is corrupt). Dead
    /// slots are reused to keep slot numbers dense over long update
    /// workloads.
    pub fn insert(&mut self, rel_id: u16, data: &[u8]) -> Option<u16> {
        if data.len() > u16::MAX as usize {
            return None;
        }
        let reuse = self.slot_dir().ok()?.from(0).find(|(_, e)| !e.is_live()).map(|(s, _)| s);
        let need = data.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        if need > self.free_space() {
            return None;
        }
        let (offset, slots, upper, live) =
            (self.lower(), self.slot_count(), self.upper(), self.live_count());
        let bytes = Arc::make_mut(&mut self.bytes);
        bytes[offset..offset + data.len()].copy_from_slice(data);
        set_u16(bytes, OFF_LOWER, (offset + data.len()) as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                set_u16(bytes, OFF_SLOT_COUNT, slots + 1);
                set_u16(bytes, OFF_UPPER, (upper - SLOT_SIZE) as u16);
                slots
            }
        };
        write_slot(bytes, slot, rel_id, offset as u16, data.len() as u16, FLAG_LIVE);
        set_u16(bytes, OFF_LIVE, live + 1);
        Some(slot)
    }

    /// The tuple bytes stored in `slot`, with the owning relation id, or
    /// `None` if the slot is dead or out of range. A directory or a live
    /// entry that points outside the page is [`RssError::Corrupt`].
    #[inline]
    pub fn get(&self, slot: u16) -> RssResult<Option<(u16, &[u8])>> {
        let dir = self.slot_dir()?;
        match dir.entry(slot) {
            Some(entry) if entry.is_live() => Ok(Some((entry.rel_id(), dir.data(entry)?))),
            _ => Ok(None),
        }
    }

    /// Delete the tuple in `slot`. The data bytes become garbage until
    /// [`Page::compact`] runs.
    pub fn delete(&mut self, slot: u16) -> RssResult<()> {
        match self.slot_dir()?.entry(slot) {
            None => return Err(RssError::BadRid(format!("slot {slot} out of range"))),
            Some(entry) if !entry.is_live() => {
                return Err(RssError::BadRid(format!("slot {slot} already deleted")))
            }
            Some(_) => {}
        }
        let live = self.live_count();
        let bytes = Arc::make_mut(&mut self.bytes);
        set_u16(bytes, Self::slot_offset(slot) + SLOT_FLAGS, 0);
        set_u16(bytes, OFF_LIVE, live.saturating_sub(1));
        Ok(())
    }

    /// Reclaim the space of deleted tuples by sliding live tuple data
    /// together. Slot numbers (and therefore RIDs) are preserved. A page
    /// whose directory does not read back is left as it is, for the next
    /// read to report.
    pub fn compact(&mut self) {
        let live: RssResult<Vec<(u16, u16, Vec<u8>)>> = self
            .iter()
            .map(|(s, item)| item.map(|(rel_id, data)| (s, rel_id, data.to_vec())))
            .collect();
        let Ok(live) = live else { return };
        let bytes = Arc::make_mut(&mut self.bytes);
        let mut cursor = PAGE_HEADER_SIZE;
        for (s, rel_id, data) in live {
            bytes[cursor..cursor + data.len()].copy_from_slice(&data);
            write_slot(bytes, s, rel_id, cursor as u16, data.len() as u16, FLAG_LIVE);
            cursor += data.len();
        }
        set_u16(bytes, OFF_LOWER, cursor as u16);
    }

    /// Iterate over live slots as `(slot, Ok((rel_id, bytes)))`, the
    /// shape of [`Page::get`]. A live entry that points outside the page
    /// yields its error in place of the pair; a corrupt directory yields
    /// one error, at slot 0, and nothing else.
    pub fn iter(&self) -> impl Iterator<Item = (u16, RssResult<(u16, &[u8])>)> + '_ {
        let (dir, bad_dir) = match self.slot_dir() {
            Ok(dir) => (Some(dir), None),
            Err(e) => (None, Some((0, Err(e)))),
        };
        let live = dir.into_iter().flat_map(|dir| {
            dir.from(0)
                .filter(|(_, entry)| entry.is_live())
                .map(move |(s, entry)| (s, dir.data(entry).map(|data| (entry.rel_id(), data))))
        });
        bad_dir.into_iter().chain(live)
    }

    /// Whether any live tuple on this page belongs to `rel_id`. Reads the
    /// directory only; a corrupt one holds nothing.
    pub fn holds_relation(&self, rel_id: u16) -> bool {
        self.slot_dir()
            .is_ok_and(|dir| dir.from(0).any(|(_, e)| e.is_live() && e.rel_id() == rel_id))
    }

    /// Count of live tuples belonging to `rel_id`. Reads the directory
    /// only; a corrupt one holds nothing.
    pub fn count_relation(&self, rel_id: u16) -> usize {
        self.slot_dir().map_or(0, |dir| {
            dir.from(0).filter(|(_, e)| e.is_live() && e.rel_id() == rel_id).count()
        })
    }
}

/// A page's slot directory, checked by [`Page::slot_dir`]. Reading an
/// entry is then a plain read of an 8-byte array; only the tuple bytes a
/// live entry points at are range-checked, by [`SlotDir::data`].
#[derive(Clone, Copy)]
pub(crate) struct SlotDir<'a> {
    bytes: &'a [u8; PAGE_SIZE],
    /// The directory bytes, `SLOT_SIZE` per entry. It grows down from
    /// the page end, so slot 0 is the last entry.
    entries: &'a [u8],
}

impl<'a> SlotDir<'a> {
    /// The entry of `slot`, or `None` past the directory.
    #[inline]
    pub(crate) fn entry(&self, slot: u16) -> Option<Slot> {
        let end = self.entries.len().checked_sub(slot as usize * SLOT_SIZE)?;
        self.entries.get(end.checked_sub(SLOT_SIZE)?..end).map(Slot::read)
    }

    /// The entries of slots `first..`, in slot order.
    #[inline]
    pub(crate) fn from(&self, first: u16) -> impl Iterator<Item = (u16, Slot)> + 'a {
        let head = self.entries.len().saturating_sub(first as usize * SLOT_SIZE);
        (first..).zip(self.entries[..head].rchunks_exact(SLOT_SIZE).map(Slot::read))
    }

    /// The tuple bytes `entry` points at. They must lie between the
    /// header and the directory; anything else is [`RssError::Corrupt`].
    #[inline]
    pub(crate) fn data(&self, entry: Slot) -> RssResult<&'a [u8]> {
        let (offset, end) = (entry.offset(), entry.offset() + entry.len());
        let dir_start = PAGE_SIZE - self.entries.len();
        if offset < PAGE_HEADER_SIZE || end > dir_start {
            return Err(RssError::Corrupt(format!(
                "slot data {offset}..{end} outside the data area {PAGE_HEADER_SIZE}..{dir_start}"
            )));
        }
        Ok(&self.bytes[offset..end])
    }
}

/// One slot-directory entry: relation id, data offset, data length and
/// flags, four little-endian `u16`s.
#[derive(Clone, Copy)]
pub(crate) struct Slot([u8; SLOT_SIZE]);

impl Slot {
    /// The entry in `raw`, one `SLOT_SIZE` chunk of the directory.
    #[inline]
    fn read(raw: &[u8]) -> Slot {
        Slot(raw.first_chunk().copied().unwrap_or_default())
    }

    /// The relation the slot's tuple belongs to.
    #[inline]
    pub(crate) fn rel_id(self) -> u16 {
        u16::from_le_bytes([self.0[0], self.0[1]])
    }

    #[inline]
    fn offset(self) -> usize {
        u16::from_le_bytes([self.0[2], self.0[3]]) as usize
    }

    #[inline]
    fn len(self) -> usize {
        u16::from_le_bytes([self.0[4], self.0[5]]) as usize
    }

    /// Whether the slot holds a tuple (a deleted slot keeps its entry).
    #[inline]
    pub(crate) fn is_live(self) -> bool {
        u16::from_le_bytes([self.0[6], self.0[7]]) & FLAG_LIVE != 0
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("live", &self.live_count())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s = p.insert(7, b"hello").unwrap();
        assert_eq!(p.get(s), Ok(Some((7u16, &b"hello"[..]))));
        assert_eq!(p.live_count(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let blob = vec![0xABu8; 1000];
        let mut n = 0;
        while p.insert(1, &blob).is_some() {
            n += 1;
        }
        // 4096 - 16 header = 4080; each tuple costs 1000+8 = 1008 → 4 fit.
        assert_eq!(n, 4);
        assert!(p.free_space() < 1008);
    }

    #[test]
    fn delete_and_reuse_slot() {
        let mut p = Page::new();
        let a = p.insert(1, b"aaaa").unwrap();
        let b = p.insert(1, b"bbbb").unwrap();
        p.delete(a).unwrap();
        assert_eq!(p.get(a), Ok(None));
        assert_eq!(p.live_count(), 1);
        let c = p.insert(2, b"cc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(b), Ok(Some((1u16, &b"bbbb"[..]))));
        assert_eq!(p.get(c), Ok(Some((2u16, &b"cc"[..]))));
    }

    #[test]
    fn double_delete_errors() {
        let mut p = Page::new();
        let s = p.insert(1, b"x").unwrap();
        p.delete(s).unwrap();
        assert!(p.delete(s).is_err());
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = Page::new();
        let blob = vec![1u8; 1000];
        let s0 = p.insert(1, &blob).unwrap();
        let s1 = p.insert(1, &blob).unwrap();
        let s2 = p.insert(1, &blob).unwrap();
        let s3 = p.insert(1, &blob).unwrap();
        assert!(p.insert(1, &blob).is_none());
        p.delete(s0).unwrap();
        p.delete(s2).unwrap();
        // Without compaction the data area is still full (reuse slot exists
        // but data bytes don't fit in the gap).
        assert!(p.insert(1, &blob).is_none());
        p.compact();
        assert!(p.insert(1, &blob).is_some());
        // Survivors intact, same slots.
        assert_eq!(p.get(s1).unwrap().unwrap().1, &blob[..]);
        assert_eq!(p.get(s3).unwrap().unwrap().1, &blob[..]);
    }

    #[test]
    fn multi_relation_pages() {
        let mut p = Page::new();
        p.insert(1, b"r1").unwrap();
        p.insert(2, b"r2").unwrap();
        p.insert(1, b"r1b").unwrap();
        assert!(p.holds_relation(1));
        assert!(p.holds_relation(2));
        assert!(!p.holds_relation(3));
        assert_eq!(p.count_relation(1), 2);
        assert_eq!(p.count_relation(2), 1);
    }

    #[test]
    fn empty_page_reports_empty() {
        let p = Page::new();
        assert!(p.is_empty());
        assert_eq!(p.free_space(), PAGE_SIZE - PAGE_HEADER_SIZE);
        assert_eq!(p.iter().count(), 0);
    }

    /// A page whose image someone else holds (the backend, a dirty
    /// frame) copies it on its first mutation, so the holder keeps the
    /// bytes it was given; a rejected insert copies nothing.
    #[test]
    fn shared_image_is_copied_on_write() {
        let mut p = Page::new();
        p.insert(1, b"before").unwrap();
        let held = Arc::clone(p.image());
        let snapshot = *held;
        assert!(p.insert(1, &[0u8; PAGE_SIZE]).is_none());
        assert!(Arc::ptr_eq(p.image(), &held), "a rejected insert leaves the image shared");
        for mutate in [
            |p: &mut Page| assert!(p.insert(2, b"after").is_some()),
            |p: &mut Page| p.delete(0).unwrap(),
            |p: &mut Page| p.compact(),
            |p: &mut Page| {
                p.stamp(7);
            },
        ] {
            let mut q = Page::from_image(Arc::clone(&held));
            mutate(&mut q);
            assert!(!Arc::ptr_eq(q.image(), &held), "the mutation copied the image");
            assert_eq!(*held, snapshot, "the holder still sees the old bytes");
        }
        // A page nobody else holds is mutated in place.
        let before = Arc::as_ptr(p.image());
        drop(held);
        p.insert(2, b"in place").unwrap();
        assert_eq!(Arc::as_ptr(p.image()), before);
    }

    /// Inserting arbitrary byte strings and deleting a subset must keep
    /// survivors byte-identical, before and after compaction.
    #[test]
    fn prop_page_contents_survive() {
        let mut rng = SplitMix64::new(0x9A6E_0001);
        for case in 0..256u64 {
            let n_payloads = 1 + rng.below(29) as usize;
            let payloads: Vec<Vec<u8>> = (0..n_payloads)
                .map(|_| (0..rng.below(200)).map(|_| rng.below(256) as u8).collect())
                .collect();
            let delete_mask: Vec<bool> = (0..30).map(|_| rng.bool()).collect();

            let mut p = Page::new();
            let mut inserted: Vec<(u16, Vec<u8>)> = Vec::new();
            for payload in &payloads {
                if let Some(slot) = p.insert(5, payload) {
                    inserted.push((slot, payload.clone()));
                }
            }
            let mut kept: Vec<(u16, Vec<u8>)> = Vec::new();
            for (i, (slot, data)) in inserted.into_iter().enumerate() {
                if delete_mask[i % delete_mask.len()] {
                    p.delete(slot).unwrap();
                } else {
                    kept.push((slot, data));
                }
            }
            for (slot, data) in &kept {
                assert_eq!(p.get(*slot).unwrap().unwrap().1, &data[..], "case {case}");
            }
            p.compact();
            for (slot, data) in &kept {
                assert_eq!(p.get(*slot).unwrap().unwrap().1, &data[..], "case {case}");
            }
            assert_eq!(p.live_count() as usize, kept.len(), "case {case}");
        }
    }
}
