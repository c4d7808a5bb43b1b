//! # sysr-core — access path selection (the paper's contribution)
//!
//! This crate is the System R OPTIMIZER of Selinger et al., SIGMOD 1979:
//! given a parsed query block, it chooses the plan that minimizes
//!
//! ```text
//! COST = PAGE FETCHES + W * (RSI CALLS)
//! ```
//!
//! The pieces map onto the paper's sections:
//!
//! | module | paper |
//! |---|---|
//! | [`bind`] | §2 — catalog lookup, semantic checking, query-block structure |
//! | [`query`] | §2/§4 — bound query blocks, boolean factors |
//! | [`selectivity`] | §4, **Table 1** — selectivity factors F |
//! | [`cost`] | §4, **Table 2** — single-relation cost formulas |
//! | [`access`] | §4 — access paths for single relations, matching indexes |
//! | [`order`] | §4/§5 — interesting orders, order equivalence classes |
//! | [`join`] | §5 — nested-loop and merging-scans join costs, C-sort |
//! | [`enumerate`] | §5 — dynamic-programming search over join orders with the Cartesian-product-deferral heuristic |
//! | [`plan`] | §2 — the chosen execution plan (our ASL analog) |
//! | [`nested`] | §6 — subquery classification and planning |
//!
//! The entry point is [`Optimizer::optimize`], which runs binder →
//! analysis → enumeration and returns a [`plan::QueryPlan`] ready for
//! `sysr-executor`.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod access;
pub mod analyze;
pub mod arena;
pub mod bind;
pub mod cost;
pub mod enumerate;
pub mod intern;
pub mod join;
pub mod nested;
pub mod num;
pub mod order;
pub mod plan;
pub mod query;
pub mod selectivity;

mod bitset;

pub use analyze::NodeMeasurement;
pub use bind::{bind_select, BindError};
pub use bitset::TableSet;
pub use cost::{Cost, CostModel};
pub use enumerate::{EnumerationStats, Enumerator, SearchTrace, SubsetTrace, TraceEntry};
pub use num::{card_f64, dense_id, len_f64, pages_ceil, F64_EXACT_MAX};
pub use order::{OrderInfo, OrderKey};
pub use plan::{Access, IndexRange, PlanExpr, PlanNode, QueryPlan, SargAtom, SargFactor, ScanPlan};
pub use query::{
    AggCall, BExpr, BoundQuery, BoundTable, ColId, Factor, Operand, SExpr, SubqueryDef,
};
pub use selectivity::{estimate_qcard, Selectivity};

use sysr_catalog::Catalog;
use sysr_sql::SelectStmt;

/// Tunables for the optimizer. `w` is the paper's "adjustable weighting
/// factor between I/O and CPU"; `buffer_pages` feeds Table 2's "if this
/// number fits in the System R buffer" variants.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Weight of one RSI call relative to one page fetch.
    pub w: f64,
    /// Buffer pool size in pages.
    pub buffer_pages: usize,
    /// Apply the join-order heuristic that defers Cartesian products
    /// (paper §5). Disabled only by the ablation experiments.
    pub defer_cartesian: bool,
    /// Keep the cheapest plan per interesting-order equivalence class
    /// (paper §4/§5). Disabled only by the ablation experiments, which
    /// then keep a single cheapest plan per subset.
    pub interesting_orders: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            // System R spent most CPU in the RSS; a tuple retrieval is far
            // cheaper than a page I/O, so W is small.
            w: 0.02,
            buffer_pages: 64,
            defer_cartesian: true,
            interesting_orders: true,
        }
    }
}

/// The access path selector. Borrow a catalog, feed it parsed SELECTs.
pub struct Optimizer<'a> {
    pub catalog: &'a Catalog,
    pub config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer { catalog, config: OptimizerConfig::default() }
    }

    pub fn with_config(catalog: &'a Catalog, config: OptimizerConfig) -> Self {
        Optimizer { catalog, config }
    }

    /// Choose the minimum-cost plan for a SELECT statement: bind, analyze,
    /// enumerate, and assemble the final [`QueryPlan`] (including plans for
    /// every nested query block).
    pub fn optimize(&self, stmt: &SelectStmt) -> Result<QueryPlan, BindError> {
        let bound = bind_select(self.catalog, stmt)?;
        Ok(self.optimize_bound(&bound))
    }

    /// Plan an already-bound query (used recursively for subqueries).
    pub fn optimize_bound(&self, bound: &BoundQuery) -> QueryPlan {
        nested::plan_query(self.catalog, &self.config, bound)
    }

    /// Like [`Optimizer::optimize`], additionally collecting the
    /// enumerator's [`SearchTrace`] for every query block (root first).
    pub fn optimize_traced(
        &self,
        stmt: &SelectStmt,
    ) -> Result<(QueryPlan, Vec<(String, SearchTrace)>), BindError> {
        let bound = bind_select(self.catalog, stmt)?;
        Ok(nested::plan_query_traced(self.catalog, &self.config, &bound))
    }
}
