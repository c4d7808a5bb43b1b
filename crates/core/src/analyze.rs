//! `EXPLAIN ANALYZE` support: plan-node identifiers, per-node runtime
//! measurements, and the predicted-vs-measured report.
//!
//! The optimizer predicts `COST = PAGE FETCHES + W * RSI CALLS` per plan
//! node (Table 2 and the §5 join formulas); the executor measures the same
//! quantities through the counting buffer pool. This module joins the two:
//! every node of a [`QueryPlan`] — including nodes of nested query blocks —
//! gets a stable **pre-order id**, the executor reports a
//! [`NodeMeasurement`] keyed by that id, and
//! [`QueryPlan::explain_analyze`] renders the annotated tree.
//!
//! # Node id scheme
//!
//! Ids are assigned pre-order within one block's plan tree, then block by
//! block: the root block's tree occupies `0..root.node_count()`, followed
//! by each subquery block's full tree in order. For a join node at id `n`,
//! the outer child is `n + 1` and the inner child is
//! `n + 1 + outer.node_count()`; a sort's input is `n + 1`. The executor
//! reproduces the same arithmetic while walking the tree, so no id needs
//! to be stored inside the plan.

use crate::cost::Cost;
use crate::plan::{node_head, PlanExpr, PlanNode, QueryPlan};
use std::collections::HashMap;
use std::fmt::Write as _;
use sysr_catalog::Catalog;
use sysr_rss::IoStats;

/// What the executor measured for one plan node, accumulated over every
/// invocation (a nested-loop inner scan is invoked once per outer row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMeasurement {
    /// Times the node was opened.
    pub invocations: u64,
    /// Rows produced, summed over invocations.
    pub rows: u64,
    /// I/O charged to this node alone: the window delta minus whatever was
    /// already charged to nodes nested *within* the window (children,
    /// subqueries evaluated in residual predicates). Summing `io` over all
    /// nodes therefore reproduces the whole-query [`IoStats`] delta.
    pub io: IoStats,
}

impl PlanExpr {
    /// Pre-order id of the outer (or only) child of the node at `id`.
    /// Returns `None` for leaves.
    pub fn outer_child_id(&self, id: usize) -> Option<usize> {
        match &self.node {
            PlanNode::Scan(_) => None,
            PlanNode::NestedLoop { .. } | PlanNode::Merge { .. } | PlanNode::Sort { .. } => {
                Some(id + 1)
            }
        }
    }

    /// Pre-order id of the inner child of the join node at `id`.
    pub fn inner_child_id(&self, id: usize) -> Option<usize> {
        match &self.node {
            PlanNode::NestedLoop { outer, .. } | PlanNode::Merge { outer, .. } => {
                Some(id + 1 + outer.node_count())
            }
            _ => None,
        }
    }
}

impl QueryPlan {
    /// Total node count across this block and all nested blocks.
    pub fn total_nodes(&self) -> usize {
        self.root.node_count() + self.subplans.iter().map(|s| s.total_nodes()).sum::<usize>()
    }

    /// Base id of subquery block `i`, given this block's own base id.
    /// Subquery trees are numbered after the block's own tree, in order.
    pub fn subplan_base(&self, own_base: usize, i: usize) -> usize {
        own_base
            + self.root.node_count()
            + self.subplans.iter().take(i).map(|s| s.total_nodes()).sum::<usize>()
    }

    /// Render the predicted-vs-measured report: the `EXPLAIN` tree with
    /// every node annotated by what the executor actually did.
    pub fn explain_analyze(
        &self,
        catalog: &Catalog,
        measurements: &HashMap<usize, NodeMeasurement>,
        w: f64,
    ) -> String {
        let mut out = String::new();
        self.render_analyze(catalog, measurements, 0, &mut out, 0);
        // Footer: whole-query predicted vs measured totals. Per-node `io`
        // values are disjoint, so their sum is the whole-query delta.
        let mut measured = IoStats::default();
        for m in measurements.values() {
            measured += m.io;
        }
        let _ =
            writeln!(out, "predicted: {} = {:.1} (W={w})", self.predicted, self.predicted.total(w));
        let measured_cost = Cost::from_io(&measured);
        let _ = writeln!(
            out,
            "measured:  {:.1} pages + W\u{b7}{:.1} rsi = {:.1} (W={w})",
            measured_cost.pages,
            measured_cost.rsi,
            measured_cost.total(w),
        );
        let _ = writeln!(out, "measured io: {measured}");
        out
    }

    fn render_analyze(
        &self,
        catalog: &Catalog,
        measurements: &HashMap<usize, NodeMeasurement>,
        base: usize,
        out: &mut String,
        depth: usize,
    ) {
        render_node_analyze(&self.root, self, catalog, measurements, base, out, depth);
        if !self.block_filters.is_empty() {
            let _ =
                writeln!(out, "{}block filters: {:?}", "  ".repeat(depth + 1), self.block_filters);
        }
        for (i, (sub, def)) in self.subplans.iter().zip(&self.query.subqueries).enumerate() {
            let _ = writeln!(
                out,
                "{}subquery #{i} ({}{}):",
                "  ".repeat(depth + 1),
                if def.correlated { "correlated " } else { "" },
                if def.scalar { "scalar" } else { "set" },
            );
            sub.render_analyze(catalog, measurements, self.subplan_base(base, i), out, depth + 2);
        }
    }
}

fn render_node_analyze(
    plan: &PlanExpr,
    block: &QueryPlan,
    catalog: &Catalog,
    measurements: &HashMap<usize, NodeMeasurement>,
    id: usize,
    out: &mut String,
    depth: usize,
) {
    let pad = "  ".repeat(depth);
    let head = node_head(plan, &block.query, catalog);
    let est = format!("(cost={}, rows={:.1})", plan.cost, plan.rows);
    match measurements.get(&id) {
        Some(m) => {
            let _ = writeln!(
                out,
                "{pad}#{id} {head} {est} \
                 [actual rows={} loops={} fetches={} \
                 (data={} index={} temp={}+{}w) rsi={}]",
                m.rows,
                m.invocations,
                m.io.page_fetches(),
                m.io.data_page_fetches,
                m.io.index_page_fetches,
                m.io.temp_page_fetches,
                m.io.temp_pages_written,
                m.io.rsi_calls,
            );
        }
        None => {
            let _ = writeln!(out, "{pad}#{id} {head} {est} [never executed]");
        }
    }
    match &plan.node {
        PlanNode::Scan(_) => {}
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            // Child ids per the pre-order scheme: outer at id+1, inner after
            // the whole outer subtree.
            let outer_id = id + 1;
            let inner_id = id + 1 + outer.node_count();
            render_node_analyze(outer, block, catalog, measurements, outer_id, out, depth + 1);
            render_node_analyze(inner, block, catalog, measurements, inner_id, out, depth + 1);
        }
        PlanNode::Sort { input, .. } => {
            render_node_analyze(input, block, catalog, measurements, id + 1, out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::plan::{Access, ScanPlan};

    fn scan(table: usize) -> PlanExpr {
        PlanExpr {
            node: PlanNode::Scan(ScanPlan {
                table,
                access: Access::Segment,
                sargs: vec![],
                residual: vec![],
            }),
            cost: Cost::new(10.0, 100.0),
            rows: 100.0,
            order: vec![],
        }
    }

    #[test]
    fn preorder_child_ids() {
        // ((0 ⋈ 1) ⋈ sort(2)): ids 0=join, 1=join, 2=scan0, 3=scan1,
        // 4=sort, 5=scan2.
        let lower = PlanExpr {
            node: PlanNode::NestedLoop { outer: Box::new(scan(0)), inner: Box::new(scan(1)) },
            cost: Cost::ZERO,
            rows: 1.0,
            order: vec![],
        };
        let sorted = PlanExpr {
            node: PlanNode::Sort {
                input: Box::new(scan(2)),
                keys: vec![(crate::query::ColId::new(2, 0), false)],
                sorted_prefix: 0,
            },
            cost: Cost::ZERO,
            rows: 1.0,
            order: vec![],
        };
        let top = PlanExpr {
            node: PlanNode::NestedLoop { outer: Box::new(lower), inner: Box::new(sorted) },
            cost: Cost::ZERO,
            rows: 1.0,
            order: vec![],
        };
        assert_eq!(top.node_count(), 6);
        assert_eq!(top.outer_child_id(0), Some(1));
        assert_eq!(top.inner_child_id(0), Some(4));
        let PlanNode::NestedLoop { outer, inner } = &top.node else { panic!("expected a join") };
        assert_eq!(outer.outer_child_id(1), Some(2));
        assert_eq!(outer.inner_child_id(1), Some(3));
        assert_eq!(inner.outer_child_id(4), Some(5));
        assert_eq!(inner.inner_child_id(4), None);
        let PlanNode::Sort { input, .. } = &inner.node else { panic!("expected a sort") };
        assert_eq!(input.outer_child_id(5), None);
    }
}
