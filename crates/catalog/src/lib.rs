//! # sysr-catalog — the System R catalogs
//!
//! "The OPTIMIZER accumulates the names of tables and columns referenced in
//! the query and looks them up in the System R catalogs to verify their
//! existence and to retrieve information about them. The catalog lookup
//! portion of the OPTIMIZER also obtains statistics about the referenced
//! relations, and the access paths available on each of them." (paper,
//! Section 2).
//!
//! The statistics maintained per relation `T` and per index `I` are exactly
//! the paper's Section 4 list:
//!
//! * `NCARD(T)` — cardinality of `T`;
//! * `TCARD(T)` — pages of the segment holding tuples of `T`;
//! * `P(T)` — `TCARD(T) / (non-empty pages in the segment)`;
//! * `ICARD(I)` — distinct keys in index `I`;
//! * `NINDX(I)` — pages in index `I`;
//!
//! plus the leading-key-column low/high values used for the linear
//! interpolation selectivities of range predicates.
//!
//! Statistics are **not** updated on every INSERT/DELETE — as in System R,
//! that would serialize catalog access — but by an explicit
//! [`Catalog::update_statistics`] (the `UPDATE STATISTICS` command); they
//! are initialized at relation load / index creation time by the database
//! facade.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

mod meta;
pub mod persist;
mod stats;

pub use meta::{Catalog, CatalogError, ColumnMeta, IndexMeta, RelId, RelationMeta};
pub use stats::{IndexStats, RelStats};
