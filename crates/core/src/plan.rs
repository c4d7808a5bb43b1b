//! Execution plans — our analog of System R's Access Specification
//! Language (ASL).
//!
//! "This minimum cost solution is represented by a structural modification
//! of the parse tree. The result is an execution plan" (§2). A plan here
//! is a tree of scans, joins, and sorts, each node annotated with the
//! optimizer's predicted cost, output cardinality, and produced tuple
//! order. `sysr-executor` interprets the tree; `EXPLAIN` renders it.

use crate::cost::Cost;
use crate::enumerate::EnumerationStats;
use crate::query::{BoundQuery, ColId, Operand};
use std::fmt::Write as _;
use sysr_catalog::Catalog;
use sysr_rss::{CompareOp, IndexId};

/// One sargable atom: `tuple[col] op operand`, resolvable below the RSI.
#[derive(Debug, Clone, PartialEq)]
pub struct SargAtom {
    /// Column position within the scanned relation's tuple.
    pub col: usize,
    pub op: CompareOp,
    pub operand: Operand,
}

/// A boolean factor compiled to search-argument form: a DNF over sargable
/// atoms, tagged with the factor it implements.
#[derive(Debug, Clone, PartialEq)]
pub struct SargFactor {
    /// Index into [`BoundQuery::factors`].
    pub factor: usize,
    /// OR of ANDs of atoms; the whole factor holds iff some disjunct holds.
    pub dnf: Vec<Vec<SargAtom>>,
}

/// Bounds for the non-equal tail column of an index probe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexRange {
    /// Lower bound (operand, inclusive).
    pub lower: Option<(Operand, bool)>,
    /// Upper bound (operand, inclusive).
    pub upper: Option<(Operand, bool)>,
}

/// How a relation is accessed.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Full segment scan.
    Segment,
    /// B-tree index scan. `eq_prefix` holds equality probes for the
    /// leading key columns; `range` optionally bounds the next key column.
    /// `matching` lists the boolean factors the index *matches* (paper §4)
    /// — the F(preds) of the Table 2 formulas.
    Index {
        index: IndexId,
        eq_prefix: Vec<Operand>,
        range: Option<IndexRange>,
        matching: Vec<usize>,
    },
}

/// A single-relation scan node.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// FROM-list position of the relation.
    pub table: usize,
    pub access: Access,
    /// Factors applied as SARGs (below the RSI).
    pub sargs: Vec<SargFactor>,
    /// Factors applied above the RSI at this scan (non-sargable shapes:
    /// OR trees, subquery membership, expression comparisons).
    pub residual: Vec<usize>,
}

/// Plan tree node kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    Scan(ScanPlan),
    /// Nested loops: for each outer row, open the inner scan (whose probe
    /// operands may reference outer columns).
    NestedLoop {
        outer: Box<PlanExpr>,
        inner: Box<PlanExpr>,
    },
    /// Merging scans over `outer_key = inner_key`. The inner side is
    /// either a `Sort` (sorted temporary list, synchronized group scan) or
    /// an ordered index scan probed per distinct outer value. `residual`
    /// factors are evaluated on each composite row.
    Merge {
        outer: Box<PlanExpr>,
        inner: Box<PlanExpr>,
        outer_key: ColId,
        inner_key: ColId,
        residual: Vec<usize>,
    },
    /// Sort the input into `keys` order, each key a `(column,
    /// descending)` pair. `sorted_prefix` is the number of leading `keys`
    /// the input already delivers (proved against the input's produced
    /// order): `0` sorts the whole input through a temporary list; a
    /// positive prefix lets the executor sort run-at-a-time, spilling only
    /// oversized runs.
    Sort {
        input: Box<PlanExpr>,
        keys: Vec<(ColId, bool)>,
        sorted_prefix: usize,
    },
}

/// A plan node with the optimizer's annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExpr {
    pub node: PlanNode,
    /// Predicted cumulative cost of producing this node's full output.
    pub cost: Cost,
    /// Predicted output cardinality.
    pub rows: f64,
    /// Produced tuple order (leading sort columns, each with its
    /// direction: `true` = descending), empty if unordered.
    pub order: Vec<(ColId, bool)>,
}

impl PlanExpr {
    /// Tables covered by this subtree.
    pub fn tables(&self) -> crate::bitset::TableSet {
        match &self.node {
            PlanNode::Scan(s) => crate::bitset::TableSet::single(s.table),
            PlanNode::NestedLoop { outer, inner } => outer.tables().union(inner.tables()),
            PlanNode::Merge { outer, inner, .. } => outer.tables().union(inner.tables()),
            PlanNode::Sort { input, .. } => input.tables(),
        }
    }

    /// Number of scan/join/sort nodes (reporting).
    pub fn node_count(&self) -> usize {
        1 + match &self.node {
            PlanNode::Scan(_) => 0,
            PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
                outer.node_count() + inner.node_count()
            }
            PlanNode::Sort { input, .. } => input.node_count(),
        }
    }

    /// Count of join nodes.
    pub fn join_count(&self) -> usize {
        match &self.node {
            PlanNode::Scan(_) => 0,
            PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
                1 + outer.join_count() + inner.join_count()
            }
            PlanNode::Sort { input, .. } => input.join_count(),
        }
    }

    /// The order of FROM-list tables as they appear left-to-right in the
    /// join sequence (outer first).
    pub fn join_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        self.collect_join_order(&mut order);
        order
    }

    fn collect_join_order(&self, out: &mut Vec<usize>) {
        match &self.node {
            PlanNode::Scan(s) => out.push(s.table),
            PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
                outer.collect_join_order(out);
                inner.collect_join_order(out);
            }
            PlanNode::Sort { input, .. } => input.collect_join_order(out),
        }
    }
}

/// A complete plan for one query block, plus plans for its nested blocks.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The bound query this plan answers (the executor needs the SELECT
    /// list, factors, grouping, and subquery definitions).
    pub query: BoundQuery,
    /// The access plan for the block's FROM tables.
    pub root: PlanExpr,
    /// Plans for `query.subqueries`, index-aligned.
    pub subplans: Vec<QueryPlan>,
    /// Factors that reference no table of this block (outer references /
    /// constants); the executor checks them once per correlation binding.
    pub block_filters: Vec<usize>,
    /// Total predicted cost (root plus predicted subquery evaluations).
    pub predicted: Cost,
    /// Predicted result cardinality (QCARD).
    pub qcard: f64,
    /// Search statistics from the enumerator.
    pub stats: EnumerationStats,
}

impl QueryPlan {
    /// Render an EXPLAIN tree.
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.render(catalog, &mut out, 0);
        out
    }

    fn render(&self, catalog: &Catalog, out: &mut String, depth: usize) {
        render_node(&self.root, &self.query, catalog, out, depth);
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
            sub.render(catalog, out, depth + 2);
        }
    }
}

pub(crate) fn table_name(query: &BoundQuery, table: usize) -> &str {
    query.tables.get(table).map(|t| t.name.as_str()).unwrap_or("?")
}

/// The head line of one plan node (no padding, no cost annotation) —
/// shared between `EXPLAIN` and `EXPLAIN ANALYZE` rendering.
pub(crate) fn node_head(plan: &PlanExpr, query: &BoundQuery, catalog: &Catalog) -> String {
    match &plan.node {
        PlanNode::Scan(s) => {
            let tname = table_name(query, s.table);
            match &s.access {
                Access::Segment => format!("SEGMENT SCAN {tname}"),
                Access::Index { index, eq_prefix, range, matching } => {
                    let iname = catalog
                        .index(*index)
                        .map(|i| i.name.clone())
                        .unwrap_or_else(|| format!("#{index}"));
                    let mut probe = String::new();
                    if !eq_prefix.is_empty() {
                        let _ = write!(
                            probe,
                            " eq[{}]",
                            eq_prefix.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
                        );
                    }
                    if let Some(r) = range {
                        if let Some((op, incl)) = &r.lower {
                            let _ = write!(probe, " from{}{}", if *incl { "=" } else { ">" }, op);
                        }
                        if let Some((op, incl)) = &r.upper {
                            let _ = write!(probe, " to{}{}", if *incl { "=" } else { "<" }, op);
                        }
                    }
                    format!("INDEX SCAN {tname} via {iname}{probe} matching={matching:?}")
                }
            }
        }
        PlanNode::NestedLoop { .. } => "NESTED LOOP JOIN".to_string(),
        PlanNode::Merge { outer_key, inner_key, residual, .. } => {
            format!("MERGE JOIN on {outer_key}={inner_key} residual={residual:?}")
        }
        PlanNode::Sort { keys, sorted_prefix, .. } => {
            let keys: Vec<String> = keys
                .iter()
                .map(|&(k, desc)| if desc { format!("{k} DESC") } else { k.to_string() })
                .collect();
            let prefix = if *sorted_prefix > 0 {
                format!(" (prefix={sorted_prefix})")
            } else {
                String::new()
            };
            format!("SORT{prefix} by [{}]", keys.join(", "))
        }
    }
}

fn render_node(
    plan: &PlanExpr,
    query: &BoundQuery,
    catalog: &Catalog,
    out: &mut String,
    depth: usize,
) {
    let pad = "  ".repeat(depth);
    let annot = format!("(cost={}, rows={:.1})", plan.cost, plan.rows);
    let _ = writeln!(out, "{pad}{} {annot}", node_head(plan, query, catalog));
    match &plan.node {
        PlanNode::Scan(s) => {
            if !s.sargs.is_empty() {
                let ids: Vec<usize> = s.sargs.iter().map(|sf| sf.factor).collect();
                let _ = writeln!(out, "{pad}  sargs: factors {ids:?}");
            }
            if !s.residual.is_empty() {
                let _ = writeln!(out, "{pad}  residual: factors {:?}", s.residual);
            }
        }
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            render_node(outer, query, catalog, out, depth + 1);
            render_node(inner, query, catalog, out, depth + 1);
        }
        PlanNode::Sort { input, .. } => {
            render_node(input, query, catalog, out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tables_and_join_order() {
        let join = PlanExpr {
            node: PlanNode::NestedLoop { outer: Box::new(scan(2)), inner: Box::new(scan(0)) },
            cost: Cost::new(50.0, 500.0),
            rows: 42.0,
            order: vec![],
        };
        assert_eq!(join.tables().iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(join.join_order(), vec![2, 0]);
        assert_eq!(join.join_count(), 1);
        assert_eq!(join.node_count(), 3);
    }

    #[test]
    fn sort_preserves_tables() {
        let s = PlanExpr {
            node: PlanNode::Sort {
                input: Box::new(scan(1)),
                keys: vec![(ColId::new(1, 0), true)],
                sorted_prefix: 0,
            },
            cost: Cost::ZERO,
            rows: 1.0,
            order: vec![(ColId::new(1, 0), true)],
        };
        assert_eq!(s.tables().iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.join_count(), 0);
    }
}
