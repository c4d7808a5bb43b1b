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
//! Two-tier addressing keeps pruning cheap: each DP level freezes the
//! main arena and every work item pushes candidates into its own
//! *scratch* tail whose ids start at the frozen length (`base`). Ids
//! below `base` always mean main-arena nodes; ids at or above `base` are
//! scratch-local. After the level's items are merged, only the surviving
//! slots' subtrees are copied into the main arena ([`PlanArena::commit`])
//! — pruned candidates are dropped wholesale with their scratch vectors,
//! which is where the allocation savings come from.

#![expect(
    clippy::indexing_slicing,
    reason = "solution arena: handles are indices the arena issued; commit remaps within the bounds it just reserved"
)]

use crate::access::AccessCandidate;
use crate::cost::Cost;
use crate::intern::KeyId;
use crate::num::dense_id;
use crate::plan::{PlanExpr, PlanNode};
use crate::query::ColId;
use std::collections::HashMap;
use std::rc::Rc;

/// Index of a node in a [`PlanArena`] (or a scratch tail above `base`).
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
        keys: Vec<ColId>,
        sorted_prefix: usize,
    },
}

/// The committed arena: nodes the DP memo references between levels.
#[derive(Debug, Default)]
pub struct PlanArena {
    pub nodes: Vec<ArenaNode>,
}

impl PlanArena {
    pub fn node(&self, id: NodeId) -> &ArenaNode {
        &self.nodes[id as usize]
    }

    /// Rebuild the full [`PlanExpr`] tree for a committed node; `cands`
    /// is the candidate table its scan nodes name. Joins take the outer's
    /// order.
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

    /// Copy a surviving scratch subtree into the main arena, returning
    /// its committed id. Ids below `base` already live in the main arena
    /// and are returned as-is (memoized outers); scratch-internal edges
    /// are remapped through `remap`, keyed by `(item, scratch id)` so
    /// slots of one subset that alias the same scratch node commit to the
    /// same main node while distinct items' id spaces stay separate.
    pub fn commit(
        &mut self,
        scratch: &[ArenaNode],
        base: NodeId,
        item: usize,
        id: NodeId,
        remap: &mut HashMap<(usize, NodeId), NodeId>,
    ) -> NodeId {
        if id < base {
            return id;
        }
        if let Some(&mapped) = remap.get(&(item, id)) {
            return mapped;
        }
        let mut node = scratch[(id - base) as usize].clone();
        match &mut node.kind {
            NodeKind::Scan(_) => {}
            NodeKind::NestedLoop { outer, inner } | NodeKind::Merge { outer, inner, .. } => {
                *outer = self.commit(scratch, base, item, *outer, remap);
                *inner = self.commit(scratch, base, item, *inner, remap);
            }
            NodeKind::Sort { input, .. } => {
                *input = self.commit(scratch, base, item, *input, remap);
            }
        }
        let committed = dense_id(self.nodes.len());
        self.nodes.push(node);
        remap.insert((item, id), committed);
        committed
    }
}

/// A view of the frozen main arena plus a private scratch tail, used
/// while generating candidates for one work item (or, with an empty
/// main, for the oracle paths that append wholesale).
pub struct WorkArena<'a> {
    main: &'a [ArenaNode],
    base: NodeId,
    pub local: Vec<ArenaNode>,
}

impl<'a> WorkArena<'a> {
    pub fn new(main: &'a [ArenaNode]) -> Self {
        let base = dense_id(main.len());
        WorkArena { main, base, local: Vec::new() }
    }

    pub fn node(&self, id: NodeId) -> &ArenaNode {
        if id < self.base {
            &self.main[id as usize]
        } else {
            &self.local[(id - self.base) as usize]
        }
    }

    pub fn push(&mut self, node: ArenaNode) -> NodeId {
        let id = self.base + dense_id(self.local.len());
        self.local.push(node);
        id
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
        arena.nodes.push(scan_node(0, 10.0));
        arena.nodes.push(scan_node(1, 3.0));
        arena.nodes.push(ArenaNode {
            kind: NodeKind::NestedLoop { outer: 0, inner: 1 },
            cost: Cost::new(13.0, 0.0),
            rows: 5.0,
            key: 0,
            count: 3,
        });
        let p = arena.materialize(2, &cands(2));
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
    fn commit_remaps_scratch_and_preserves_aliasing() {
        let mut arena = PlanArena::default();
        arena.nodes.push(scan_node(0, 10.0)); // committed outer, id 0
        let base = 1;
        // Scratch: a scan (id 1) and a join over (main 0, scratch 1) at id 2.
        let scratch = vec![
            scan_node(1, 3.0),
            ArenaNode {
                kind: NodeKind::NestedLoop { outer: 0, inner: 1 },
                cost: Cost::new(13.0, 0.0),
                rows: 5.0,
                key: 0,
                count: 3,
            },
        ];
        let mut remap = HashMap::new();
        let a = arena.commit(&scratch, base, 0, 2, &mut remap);
        let b = arena.commit(&scratch, base, 0, 2, &mut remap);
        assert_eq!(a, b, "same scratch id commits once");
        assert_eq!(arena.nodes.len(), 3);
        let NodeKind::NestedLoop { outer, inner } = &arena.node(a).kind else { panic!() };
        assert_eq!(*outer, 0, "main-arena child kept as-is");
        assert!(*inner >= base, "scratch child copied into main");
        // A different item's identical scratch id commits separately.
        let c = arena.commit(&scratch, base, 1, 2, &mut remap);
        assert_ne!(a, c);
    }

    #[test]
    fn work_arena_two_tier_addressing() {
        let main = vec![scan_node(0, 1.0)];
        let mut wa = WorkArena::new(&main);
        let id = wa.push(scan_node(1, 2.0));
        assert_eq!(id, 1);
        assert_eq!(wa.node(0).cost.pages, 1.0);
        assert_eq!(wa.node(1).cost.pages, 2.0);
    }
}
