//! # sysr-rss — the Research Storage System substrate
//!
//! A from-scratch reimplementation of the storage layer the System R
//! optimizer paper (Selinger et al., SIGMOD 1979) assumes: the *Research
//! Storage System* (RSS) and its tuple-oriented interface (RSI).
//!
//! The RSS stores relations as collections of tuples on 4 KB slotted
//! [`Page`]s organized into [`Segment`]s. A segment may hold tuples from
//! several relations interleaved on the same pages (each tuple is tagged
//! with its relation id), but no relation spans a segment. Indexes are
//! B-trees whose leaves are chained so a range scan never revisits upper
//! levels.
//!
//! Two kinds of scans are provided, mirroring the paper's Section 3:
//!
//! * [`SegmentScan`] — touches every non-empty page of a segment exactly
//!   once and returns the tuples of one relation;
//! * [`IndexScan`] — walks B-tree leaves between optional start/stop keys
//!   and fetches the referenced data tuples.
//!
//! Both scans accept *search arguments* (SARGs, [`SargExpr`]): sargable
//! predicates in disjunctive normal form that are applied **below** the RSI
//! boundary, so rejected tuples never count as RSI calls.
//!
//! All page traffic flows through a counting [`ShardedBufferPool`]; a *page fetch*
//! in the paper's cost formula `COST = PAGE FETCHES + W * RSI CALLS` is a
//! buffer-pool miss here. This is the substitution documented in DESIGN.md:
//! the cost model's unit is page fetches, not seconds, so an in-memory pager
//! that counts misses reproduces exactly the quantity the optimizer
//! predicts.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod error;
pub mod page;
pub mod pagefile;
pub mod plancache;
pub mod prng;
pub mod rid;
pub mod sarg;
pub mod scan;
pub mod segment;
pub mod sharded;
pub mod storage;
pub mod sync;
pub mod temp;
pub mod tuple;
pub mod value;

pub use btree::{BTreeConfig, BTreeIndex, IndexId};
pub use buffer::{FileId, IoStats, PageKey};
pub use error::{RssError, RssResult};
pub use page::{Page, PageImage, PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_SIZE};
pub use pagefile::{
    write_file_atomic, DirBackend, FaultBackend, FaultOp, FileKind, MemBackend, PageBackend,
};
pub use plancache::{VersionedCache, PLAN_CACHE_CAP};
pub use prng::SplitMix64;
pub use rid::Rid;
pub use sarg::{CompareOp, SargExpr, SargList, SargPred};
pub use scan::{Batch, IndexScan, RsiScan, SegmentSargs, SegmentScan, StopKey, MAX_BATCH};
pub use segment::{Segment, SegmentId};
pub use sharded::{ShardedBufferPool, SharedBackend};
pub use storage::Storage;
pub use temp::{TempGuard, TempList};
pub use tuple::Tuple;
pub use value::{ColType, Value};
