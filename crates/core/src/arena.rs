//! Indexed plan arena for the join-order search.
//!
//! The DP memo used to store one deep-cloned [`PlanExpr`] tree per
//! solution slot, and every candidate join cloned its outer subtree
//! again. The arena replaces those trees with flat nodes referencing
//! their children by [`NodeId`]: a candidate join is one node push, memo
//! entries are node ids, and shared outers are shared nodes. Trees are
//! only materialized back into [`PlanExpr`] form for the plans that
//! actually leave the search (the winner, trace entries, oracle dumps).
//!
//! A scan node names its access candidate by [`CandId`], an index into
//! the search-wide candidate table the enumerator's access-path cache
//! owns, and a merge node shares its residual list. Building a candidate
//! copies no [`ScanPlan`](crate::plan::ScanPlan) and no order or factor
//! vector; [`PlanArena::materialize`] clones them only for plans that
//! leave the search.
//!
//! One arena serves a whole search: every candidate of every subset is
//! pushed into it, and the memo's slots hold the ids of the winners.
//! Pruned candidates are not reclaimed; they stay until the search
//! returns and drops the arena with them.

#![expect(
    clippy::indexing_slicing,
    reason = "solution arena: handles are indices the arena issued"
)]

use crate::access::AccessCandidate;
use crate::cost::Cost;
use crate::intern::KeyId;
use crate::num::dense_id;
use crate::plan::{PlanExpr, PlanNode};
use crate::query::ColId;
use std::rc::Rc;

/// Index of a node in a [`PlanArena`].
pub type NodeId = u32;

/// Index of an access candidate in the search's candidate table.
pub type CandId = u32;

/// One plan node, children by id. `cost`/`rows`/`key` mirror the
/// [`PlanExpr`] annotations; `count` is the subtree's node count with
/// repetition (shared children counted per reference), matching what
/// `PlanExpr::node_count` reports for the materialized tree.
#[derive(Debug, Clone)]
pub struct ArenaNode {
    pub kind: NodeKind,
    pub cost: Cost,
    pub rows: f64,
    /// Interned order key of the produced tuple order.
    pub key: KeyId,
    pub count: u32,
}

/// The node shapes, mirroring [`PlanNode`]. Only leaves (through their
/// candidate) and sorts carry their produced column order; joins inherit
/// the outer's order, which materialization resolves recursively.
#[derive(Debug, Clone)]
pub enum NodeKind {
    Scan(CandId),
    NestedLoop {
        outer: NodeId,
        inner: NodeId,
    },
    Merge {
        outer: NodeId,
        inner: NodeId,
        outer_key: ColId,
        inner_key: ColId,
        residual: Rc<[usize]>,
    },
    Sort {
        input: NodeId,
        keys: Vec<(ColId, bool)>,
        sorted_prefix: usize,
    },
}

/// The search's nodes: every candidate generated, pruned or not.
#[derive(Debug, Default)]
pub struct PlanArena {
    pub nodes: Vec<ArenaNode>,
}

impl PlanArena {
    pub fn node(&self, id: NodeId) -> &ArenaNode {
        &self.nodes[id as usize]
    }

    pub fn push(&mut self, node: ArenaNode) -> NodeId {
        let id = dense_id(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Rebuild the full [`PlanExpr`] tree for a node; `cands` is the
    /// candidate table its scan nodes name. Joins take the outer's order.
    pub fn materialize(&self, id: NodeId, cands: &[AccessCandidate]) -> PlanExpr {
        let n = self.node(id);
        let child = |c: &NodeId| Box::new(self.materialize(*c, cands));
        let (node, order) = match &n.kind {
            NodeKind::Scan(c) => {
                let cand = &cands[*c as usize];
                (PlanNode::Scan(cand.scan.clone()), cand.order.clone())
            }
            NodeKind::NestedLoop { outer, inner } => {
                let outer = child(outer);
                let order = outer.order.clone();
                (PlanNode::NestedLoop { outer, inner: child(inner) }, order)
            }
            NodeKind::Merge { outer, inner, outer_key, inner_key, residual } => {
                let outer = child(outer);
                let order = outer.order.clone();
                let (outer_key, inner_key, residual) = (*outer_key, *inner_key, residual.to_vec());
                (
                    PlanNode::Merge { outer, inner: child(inner), outer_key, inner_key, residual },
                    order,
                )
            }
            NodeKind::Sort { input, keys, sorted_prefix } => {
                let sorted_prefix = *sorted_prefix;
                (
                    PlanNode::Sort { input: child(input), keys: keys.clone(), sorted_prefix },
                    keys.clone(),
                )
            }
        };
        PlanExpr { node, cost: n.cost, rows: n.rows, order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Access, ScanPlan};

    /// A segment-scan candidate per table; scan nodes name them by table.
    fn cands(n: usize) -> Vec<AccessCandidate> {
        (0..n)
            .map(|table| AccessCandidate {
                scan: ScanPlan { table, access: Access::Segment, sargs: vec![], residual: vec![] },
                cost: Cost::new(1.0, 0.0),
                order: vec![],
                out_rows: 1.0,
                rsicard: 1.0,
                applied: vec![],
            })
            .collect()
    }

    fn scan_node(table: usize, pages: f64) -> ArenaNode {
        ArenaNode {
            kind: NodeKind::Scan(dense_id(table)),
            cost: Cost::new(pages, 0.0),
            rows: 1.0,
            key: 0,
            count: 1,
        }
    }

    #[test]
    fn materialize_rebuilds_nested_tree() {
        let mut arena = PlanArena::default();
        let outer = arena.push(scan_node(0, 10.0));
        let inner = arena.push(scan_node(1, 3.0));
        let join = arena.push(ArenaNode {
            kind: NodeKind::NestedLoop { outer, inner },
            cost: Cost::new(13.0, 0.0),
            rows: 5.0,
            key: 0,
            count: 3,
        });
        let p = arena.materialize(join, &cands(2));
        assert_eq!(p.cost, Cost::new(13.0, 0.0));
        assert_eq!(p.rows, 5.0);
        assert_eq!(p.node_count(), 3);
        let PlanNode::NestedLoop { outer, inner } = &p.node else { panic!() };
        assert_eq!(outer.cost.pages, 10.0);
        assert_eq!(inner.cost.pages, 3.0);
        let PlanNode::Scan(s) = &inner.node else { panic!() };
        assert_eq!(s.table, 1, "the scan node's candidate handle resolves to its table");
    }

    #[test]
    fn joins_take_the_outer_order() {
        let mut table = cands(2);
        let ordered = vec![(ColId::new(0, 0), false)];
        table[0].order = ordered.clone();
        let mut arena = PlanArena::default();
        let outer = arena.push(scan_node(0, 10.0));
        let inner = arena.push(scan_node(1, 3.0));
        let join = |kind| ArenaNode { kind, cost: Cost::ZERO, rows: 1.0, key: 0, count: 3 };
        let nl = arena.push(join(NodeKind::NestedLoop { outer, inner }));
        let merge = arena.push(join(NodeKind::Merge {
            outer,
            inner,
            outer_key: ColId::new(0, 0),
            inner_key: ColId::new(1, 0),
            residual: Rc::from(vec![7]),
        }));
        assert_eq!(arena.materialize(nl, &table).order, ordered);
        let m = arena.materialize(merge, &table);
        assert_eq!(m.order, ordered);
        let PlanNode::Merge { residual, .. } = &m.node else { panic!() };
        assert_eq!(residual, &vec![7]);
    }
}
