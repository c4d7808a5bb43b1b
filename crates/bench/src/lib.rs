//! # sysr-bench — workloads and the experiment harness
//!
//! Everything needed to regenerate the paper's tables, figures, and §7
//! claims: parameterized workload generators over the paper's schemas, a
//! measurement harness that executes raw plans cold and reports
//! `PAGE FETCHES + W * RSI CALLS`, and the golden comparator behind
//! `sysr-experiments --check`. The workloads and the harness are also the
//! integration tests' fixtures and every-plan oracle.
//!
//! The `sysr-experiments` binary writes one report per
//! `results/<name>.txt` (`sysr-experiments <name>`) and checks every
//! report's deterministic section against its committed file
//! (`sysr-experiments --check [name…]`); see DESIGN.md's per-experiment
//! index and EXPERIMENTS.md for the recorded outputs. `bench_concurrency`
//! measures multi-session throughput into `BENCH_concurrency.json`.

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

pub mod golden;
pub mod harness;
pub mod workloads;
