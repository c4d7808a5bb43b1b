//! # sysr-bench — workloads and the experiment harness
//!
//! Everything needed to regenerate the paper's tables, figures, and §7
//! claims: parameterized workload generators over the paper's schemas, a
//! measurement harness that executes raw plans cold and reports
//! `PAGE FETCHES + W * RSI CALLS`, and small reporting utilities.
//!
//! Each experiment binary under `src/bin/` regenerates one table or
//! figure; see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded outputs.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod harness;
pub mod timing;
pub mod workloads;

pub use harness::{measure_plan, run_all_plans, spearman, summarize_plan, PlanMeasurement};
pub use timing::BenchGroup;
pub use workloads::{employee_db, fig1_db, star_db, synth_chain_db, two_table_db, Fig1Params};
