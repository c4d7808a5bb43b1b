//! # sysr-executor — executing the optimizer's plans against the RSS
//!
//! System R compiled chosen plans into System/370 machine code; here the
//! plan tree is interpreted (DESIGN.md documents the substitution — the
//! optimizer's output contract is an executable plan, and interpretation
//! preserves plan semantics and I/O behaviour).
//!
//! What matters for the reproduction is that execution **measures the
//! quantities the optimizer predicts**: every page the interpreter touches
//! flows through the storage engine's counting buffer pool, every tuple
//! crossing the RSI increments the RSI-call counter, and sorts materialize
//! real temporary lists whose pages are charged. The §7 experiments
//! compare these measurements against the predictions plan-by-plan.
//!
//! Execution model:
//!
//! * scans run through [`sysr_rss::SegmentScan`] / [`sysr_rss::IndexScan`]
//!   with resolved SARGs; residual factors are evaluated above the RSI;
//! * nested-loop joins build the inner probe (residuals, SARG list with
//!   literals resolved, index key vectors) once per join, then reopen the
//!   inner scan per outer row, rewriting only the operands bound from the
//!   outer tuple; the outer row moves into the probe, so its last match
//!   takes it without a copy;
//! * merging-scans joins consume two sorted inputs with group buffering;
//! * sorts materialize a temporary list (write + read back accounted);
//! * subqueries evaluate on demand — once for uncorrelated blocks, and
//!   memoized per referenced-outer-value for correlation subqueries (§6's
//!   re-evaluation-avoidance, generalized from "same as the previous
//!   candidate tuple" to a cache).

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

pub mod block;
pub mod error;
pub mod eval;
pub mod exec;
pub mod result;
pub mod row;
pub mod tracer;

pub use block::{
    execute, execute_block, execute_block_at, execute_victims, root_rows_sorted, BlockRt, ExecEnv,
};
pub use error::{ExecError, ExecResult};
pub use result::ResultSet;
pub use row::Row;
pub use tracer::{sum_node_io, ExecTracer};
