//! Buffer-pool vocabulary: page addresses and the I/O counters.
//!
//! System R's cost formulas are expressed in *page fetches*; several
//! formulas in Table 2 have a cheaper variant "if this number fits in the
//! System R buffer". To reproduce those effects the RSS routes every page
//! access — data pages, index pages, and temporary-list pages — through one
//! LRU buffer pool, [`ShardedBufferPool`](crate::ShardedBufferPool). A
//! **page fetch** is a buffer miss; a hit is free, which is exactly the
//! clustered-index assumption the paper makes ("a page remains in the
//! buffer long enough for every tuple to be retrieved from it").
//!
//! This module holds what every layer shares with the pool: the
//! ([`FileId`], page number) address of a page, and [`IoStats`] — page
//! fetches by file kind, device reads and writes, and **RSI calls**
//! (tuples returned across the storage-system interface, the paper's
//! proxy for CPU cost).

use std::fmt;

/// Identifies a "file": one segment, one index, or one temporary list.
/// Pages are addressed as (file, page number) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FileId {
    Segment(u32),
    Index(u32),
    Temp(u32),
}

/// Address of one 4 KB page in the buffer pool's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    pub file: FileId,
    pub page: u32,
}

impl PageKey {
    pub fn new(file: FileId, page: u32) -> Self {
        PageKey { file, page }
    }
}

/// Execution-time I/O counters — the measured analog of the optimizer's
/// predicted `COST = PAGE FETCHES + W * RSI CALLS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer-pool misses on data (segment) pages.
    pub data_page_fetches: u64,
    /// Buffer-pool misses on index pages.
    pub index_page_fetches: u64,
    /// Buffer-pool misses on temporary-list pages (sorted inner relations,
    /// subquery result lists).
    pub temp_page_fetches: u64,
    /// Pages written when materializing temporary lists (sort output,
    /// stored composites).
    pub temp_pages_written: u64,
    /// Buffer-pool hits (all kinds), for hit-ratio reporting.
    pub buffer_hits: u64,
    /// Tuples returned across the RSI.
    pub rsi_calls: u64,
    /// Pages physically read from the backing store. In a window where all
    /// traffic flows through the pool's `read`, this equals the fetch
    /// counters summed: every miss is exactly one device read.
    pub backend_reads: u64,
    /// Pages physically written to the backing store: write-around writes
    /// plus dirty-frame write-backs at eviction or flush.
    pub backend_writes: u64,
    /// Temporary lists materialized. Monotonic, paired with
    /// `temp_lists_destroyed`: at quiescence the difference is the number
    /// of *leaked* lists still pinning buffer frames — tests assert it is
    /// zero even on error exits from operators that spill.
    pub temp_lists_created: u64,
    /// Temporary lists destroyed (their pages dropped from the pool).
    pub temp_lists_destroyed: u64,
}

impl IoStats {
    /// All page fetches (the paper's `PAGE FETCHES` term). Temporary page
    /// writes count as page I/O too, as in the paper's sort cost C-sort
    /// which includes "putting the results into a temporary list".
    pub fn page_fetches(&self) -> u64 {
        self.data_page_fetches
            + self.index_page_fetches
            + self.temp_page_fetches
            + self.temp_pages_written
    }

    /// Total weighted cost with CPU weighting factor `w`.
    pub fn cost(&self, w: f64) -> f64 {
        self.page_fetches() as f64 + w * self.rsi_calls as f64
    }

    /// Component-wise difference (`self - start`), for measuring a window.
    ///
    /// Saturating: the counters are database-global and `reset_io_stats`
    /// is `&self`, so a reset (or relaxed-ordering skew between threads)
    /// can make a later snapshot read lower than the window's start. A
    /// component that would go negative clamps to zero — a short window
    /// rather than a panic/garbage underflow.
    pub fn since(&self, start: &IoStats) -> IoStats {
        IoStats {
            data_page_fetches: self.data_page_fetches.saturating_sub(start.data_page_fetches),
            index_page_fetches: self.index_page_fetches.saturating_sub(start.index_page_fetches),
            temp_page_fetches: self.temp_page_fetches.saturating_sub(start.temp_page_fetches),
            temp_pages_written: self.temp_pages_written.saturating_sub(start.temp_pages_written),
            buffer_hits: self.buffer_hits.saturating_sub(start.buffer_hits),
            rsi_calls: self.rsi_calls.saturating_sub(start.rsi_calls),
            backend_reads: self.backend_reads.saturating_sub(start.backend_reads),
            backend_writes: self.backend_writes.saturating_sub(start.backend_writes),
            temp_lists_created: self.temp_lists_created.saturating_sub(start.temp_lists_created),
            temp_lists_destroyed: self
                .temp_lists_destroyed
                .saturating_sub(start.temp_lists_destroyed),
        }
    }

    /// Temporary lists created but never destroyed — buffer frames still
    /// pinned by scratch data. Zero in a leak-free execution window.
    pub fn temp_lists_leaked(&self) -> u64 {
        self.temp_lists_created.saturating_sub(self.temp_lists_destroyed)
    }
}

impl std::ops::Add for IoStats {
    type Output = IoStats;

    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            data_page_fetches: self.data_page_fetches + rhs.data_page_fetches,
            index_page_fetches: self.index_page_fetches + rhs.index_page_fetches,
            temp_page_fetches: self.temp_page_fetches + rhs.temp_page_fetches,
            temp_pages_written: self.temp_pages_written + rhs.temp_pages_written,
            buffer_hits: self.buffer_hits + rhs.buffer_hits,
            rsi_calls: self.rsi_calls + rhs.rsi_calls,
            backend_reads: self.backend_reads + rhs.backend_reads,
            backend_writes: self.backend_writes + rhs.backend_writes,
            temp_lists_created: self.temp_lists_created + rhs.temp_lists_created,
            temp_lists_destroyed: self.temp_lists_destroyed + rhs.temp_lists_destroyed,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetches={} (data={} index={} temp={} temp-writes={}) hits={} rsi={} disk(r={} w={})",
            self.page_fetches(),
            self.data_page_fetches,
            self.index_page_fetches,
            self.temp_page_fetches,
            self.temp_pages_written,
            self.buffer_hits,
            self.rsi_calls,
            self.backend_reads,
            self.backend_writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_combines_fetches_and_rsi() {
        let s = IoStats { data_page_fetches: 1, rsi_calls: 2, ..IoStats::default() };
        assert_eq!(s.cost(0.5), 1.0 + 0.5 * 2.0);
    }

    #[test]
    fn stats_window_via_since() {
        let start = IoStats { data_page_fetches: 1, ..IoStats::default() };
        let end = IoStats { data_page_fetches: 2, rsi_calls: 1, ..IoStats::default() };
        let delta = end.since(&start);
        assert_eq!(delta.data_page_fetches, 1);
        assert_eq!(delta.rsi_calls, 1);
    }
}
