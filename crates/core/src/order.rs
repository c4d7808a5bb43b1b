//! Interesting orders and order equivalence classes.
//!
//! "We say that a tuple order is an *interesting order* if that order is
//! one specified by the query block's GROUP BY or ORDER BY clauses" (§4);
//! "also every join column defines an interesting order" (§5). "To
//! minimize the number of different interesting orders and hence the
//! number of solutions in the tree, equivalence classes for interesting
//! orders are computed and only the best solution for each equivalence
//! class is saved" — e.g. with join predicates `E.DNO = D.DNO` and
//! `D.DNO = F.DNO`, all three columns belong to one class.
//!
//! An order is represented canonically as an [`OrderKey`]: the sequence of
//! equivalence-class ids of its leading columns, truncated at the first
//! column that participates in no interesting order. Plans whose keys are
//! equal are interchangeable for every later use of ordering, so the DP
//! keeps only the cheapest of them.
//!
//! Direction is part of the order: a descending column enters the key as
//! its class id tagged with [`DESC`]. Scans, indexes and merge joins only
//! ever produce ascending orders, so a DESC entry of an ORDER BY is met by
//! a priced Sort alone — partial when an ascending prefix of the
//! requirement is already produced.

#![expect(
    clippy::indexing_slicing,
    reason = "order-class union-find: parent entries are ids the structure itself issued, and required-prefix slices are length-guarded"
)]

use crate::query::{BoundQuery, ColId};
use std::collections::HashMap;

/// Canonical order descriptor: equivalence-class ids of the leading sort
/// columns, a descending one tagged with [`DESC`]. Empty = "unordered"
/// (or ordered in a way nothing can use).
pub type OrderKey = Vec<usize>;

/// The tag of a descending entry in an [`OrderKey`]: `class | DESC`.
/// Dense class ids never reach this bit, so no ascending entry equals it.
pub const DESC: usize = 1 << (usize::BITS - 1);

/// Order equivalence classes for one query block.
#[derive(Debug)]
pub struct OrderInfo {
    class_of: HashMap<ColId, usize>,
    /// The key of the block's required order (GROUP BY, or ORDER BY with
    /// its directions).
    pub required: OrderKey,
    n_classes: usize,
}

impl OrderInfo {
    pub fn build(query: &BoundQuery) -> OrderInfo {
        // Union-find over the columns that appear in equi-join predicates.
        let mut uf = UnionFind::default();
        for f in &query.factors {
            if let Some((a, b)) = f.equijoin {
                uf.union(a, b);
            }
        }
        // Required-order columns are interesting even if never joined.
        let required = query.required_order();
        for &(c, _) in &required {
            uf.find(c);
        }
        let (class_of, n_classes) = uf.into_classes();
        let mut info = OrderInfo { class_of, required: OrderKey::new(), n_classes };
        info.required = info.order_key(&required);
        info
    }

    /// Number of distinct interesting-order equivalence classes.
    pub fn class_count(&self) -> usize {
        self.n_classes
    }

    /// The equivalence class of a column, if the column participates in any
    /// interesting order.
    pub fn class_of(&self, col: ColId) -> Option<usize> {
        self.class_of.get(&col).copied()
    }

    /// Canonicalize a produced column order (`(column, descending)`
    /// pairs): take the longest prefix of interesting columns and map to
    /// class ids, tagging descending ones with [`DESC`].
    pub fn order_key(&self, cols: &[(ColId, bool)]) -> OrderKey {
        let mut key = Vec::new();
        for &(c, desc) in cols {
            match self.class_of(c) {
                Some(cls) => key.push(if desc { cls | DESC } else { cls }),
                None => break,
            }
        }
        key
    }

    /// Whether rows ordered by `key` satisfy the block's required order
    /// (the required classes must be a prefix of the produced classes).
    pub fn satisfies_required(&self, key: &OrderKey) -> bool {
        key.len() >= self.required.len() && key[..self.required.len()] == self.required[..]
    }

    /// Length of the longest prefix of the block's required order that
    /// rows ordered by `key` already deliver — the prefix-coverage rule
    /// for partial sorts. Rows with `key` arrive grouped into runs of the
    /// first `common_prefix_with_required(key)` required classes, so a
    /// sort only has to order tuples *within* each run. `0` means no
    /// usable prefix (a sort must process the whole input).
    pub fn common_prefix_with_required(&self, key: &OrderKey) -> usize {
        key.iter().zip(self.required.iter()).take_while(|(a, b)| a == b).count()
    }

    /// Whether an order with this key begins with the class of `col`,
    /// ascending — the condition for using it as the sorted side of a
    /// merge join on `col`.
    pub fn leads_with(&self, key: &OrderKey, col: ColId) -> bool {
        match (key.first(), self.class_of(col)) {
            (Some(&k), Some(c)) => k == c,
            _ => false,
        }
    }
}

/// Minimal union-find over `ColId`s, assigning dense ids on first contact.
#[derive(Default)]
struct UnionFind {
    ids: HashMap<ColId, usize>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn find(&mut self, col: ColId) -> usize {
        let id = match self.ids.get(&col) {
            Some(&id) => id,
            None => {
                let id = self.parent.len();
                self.ids.insert(col, id);
                self.parent.push(id);
                id
            }
        };
        self.root(id)
    }

    fn root(&mut self, mut id: usize) -> usize {
        while self.parent[id] != id {
            self.parent[id] = self.parent[self.parent[id]];
            id = self.parent[id];
        }
        id
    }

    fn union(&mut self, a: ColId, b: ColId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Collapse to a map `ColId → dense class id`. Columns are visited in
    /// sorted order so the dense numbering is a pure function of the query
    /// — two builds over the same block always agree, which the relaxed
    /// fallback (a second enumerator over the same block) relies on.
    fn into_classes(mut self) -> (HashMap<ColId, usize>, usize) {
        let mut cols: Vec<ColId> = self.ids.keys().copied().collect();
        cols.sort_unstable();
        let mut dense = HashMap::new();
        let mut out = HashMap::new();
        for col in cols {
            let root = self.find(col);
            let next = dense.len();
            let id = *dense.entry(root).or_insert(next);
            out.insert(col, id);
        }
        let n = dense.len();
        (out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{BExpr, BoundQuery, Factor, SExpr};
    use sysr_rss::CompareOp;

    fn col(t: usize, c: usize) -> ColId {
        ColId::new(t, c)
    }

    fn asc(cols: &[ColId]) -> Vec<(ColId, bool)> {
        cols.iter().map(|&c| (c, false)).collect()
    }

    fn equijoin_factor(a: ColId, b: ColId) -> Factor {
        let expr = BExpr::Cmp { op: CompareOp::Eq, left: SExpr::Col(a), right: SExpr::Col(b) };
        let tables = expr.local_tables();
        Factor { expr, tables, equijoin: Some((a, b)) }
    }

    fn query_with(factors: Vec<Factor>, order_by: Vec<ColId>) -> BoundQuery {
        BoundQuery {
            tables: vec![],
            factors,
            select: vec![],
            distinct: false,
            group_by: vec![],
            order_by: order_by.into_iter().map(|c| (c, false)).collect(),
            subqueries: vec![],
            aggregated: false,
        }
    }

    #[test]
    fn transitive_equivalence_from_paper() {
        // E.DNO = D.DNO and D.DNO = F.DNO → one class of three columns.
        let q = query_with(
            vec![equijoin_factor(col(0, 1), col(1, 0)), equijoin_factor(col(1, 0), col(2, 0))],
            vec![],
        );
        let info = OrderInfo::build(&q);
        assert_eq!(info.class_count(), 1);
        let a = info.class_of(col(0, 1)).unwrap();
        assert_eq!(info.class_of(col(1, 0)), Some(a));
        assert_eq!(info.class_of(col(2, 0)), Some(a));
    }

    #[test]
    fn separate_join_columns_get_separate_classes() {
        let q = query_with(
            vec![equijoin_factor(col(0, 1), col(1, 0)), equijoin_factor(col(0, 2), col(2, 0))],
            vec![],
        );
        let info = OrderInfo::build(&q);
        assert_eq!(info.class_count(), 2);
        assert_ne!(info.class_of(col(1, 0)), info.class_of(col(2, 0)));
    }

    #[test]
    fn order_key_truncates_at_uninteresting() {
        let q = query_with(vec![equijoin_factor(col(0, 1), col(1, 0))], vec![]);
        let info = OrderInfo::build(&q);
        // col(0,5) is not interesting → key stops before it.
        let key = info.order_key(&asc(&[col(0, 1), col(0, 5), col(1, 0)]));
        assert_eq!(key.len(), 1);
        assert!(info.order_key(&asc(&[col(0, 9)])).is_empty());
    }

    #[test]
    fn common_prefix_counts_leading_required_classes() {
        let q = query_with(vec![equijoin_factor(col(0, 1), col(1, 0))], vec![col(0, 1), col(0, 3)]);
        let info = OrderInfo::build(&q);
        // The equivalent column from the other class counts as the prefix.
        assert_eq!(info.common_prefix_with_required(&info.order_key(&asc(&[col(1, 0)]))), 1);
        // Full coverage reports the whole requirement.
        assert_eq!(
            info.common_prefix_with_required(&info.order_key(&asc(&[col(0, 1), col(0, 3)]))),
            2
        );
        // A non-leading required column covers nothing.
        assert_eq!(info.common_prefix_with_required(&info.order_key(&asc(&[col(0, 3)]))), 0);
        assert_eq!(info.common_prefix_with_required(&OrderKey::new()), 0);
    }

    #[test]
    fn required_order_satisfaction() {
        let q = query_with(vec![equijoin_factor(col(0, 1), col(1, 0))], vec![col(0, 1), col(0, 3)]);
        let info = OrderInfo::build(&q);
        assert_eq!(info.required.len(), 2);
        // A plan ordered on D.DNO (same class as E.DNO) then E.c3 works.
        let key = info.order_key(&asc(&[col(1, 0), col(0, 3)]));
        assert!(info.satisfies_required(&key));
        // Order on only the first column is not enough.
        let key = info.order_key(&asc(&[col(1, 0)]));
        assert!(!info.satisfies_required(&key));
        // Wrong leading column fails.
        let key = info.order_key(&asc(&[col(0, 3)]));
        assert!(!info.satisfies_required(&key));
    }

    #[test]
    fn empty_required_is_always_satisfied() {
        let q = query_with(vec![], vec![]);
        let info = OrderInfo::build(&q);
        assert!(info.satisfies_required(&vec![]));
        assert_eq!(info.class_count(), 0);
    }

    #[test]
    fn class_numbering_is_deterministic_across_builds() {
        // Dense class ids must be a pure function of the query, not of
        // HashMap iteration order: trace keys and repeatable plans depend
        // on it.
        let q = query_with(
            vec![
                equijoin_factor(col(0, 1), col(1, 0)),
                equijoin_factor(col(0, 2), col(2, 0)),
                equijoin_factor(col(2, 1), col(3, 0)),
            ],
            vec![col(1, 0)],
        );
        let a = OrderInfo::build(&q);
        let b = OrderInfo::build(&q);
        assert_eq!(a.required, b.required);
        for t in 0..4 {
            for c in 0..3 {
                assert_eq!(a.class_of(col(t, c)), b.class_of(col(t, c)), "col ({t},{c})");
            }
        }
    }

    #[test]
    fn leads_with_checks_head_class() {
        let q = query_with(vec![equijoin_factor(col(0, 1), col(1, 0))], vec![]);
        let info = OrderInfo::build(&q);
        let key = info.order_key(&asc(&[col(0, 1)]));
        assert!(info.leads_with(&key, col(1, 0)), "equivalent column leads");
        assert!(!info.leads_with(&key, col(0, 9)));
        assert!(!info.leads_with(&Vec::new(), col(0, 1)));
    }

    #[test]
    fn desc_requirement_is_met_only_by_a_desc_key() {
        let (a, b) = (col(0, 1), col(0, 3));
        let mut q = query_with(vec![equijoin_factor(a, col(1, 0))], vec![a, b]);
        q.order_by[1].1 = true;
        let info = OrderInfo::build(&q);
        // An ascending order on both columns delivers only the ascending
        // prefix: a partial sort remains.
        let ascending = info.order_key(&asc(&[a, b]));
        assert!(!info.satisfies_required(&ascending));
        assert_eq!(info.common_prefix_with_required(&ascending), 1);
        // A sort on the directed keys delivers it.
        assert!(info.satisfies_required(&info.order_key(&[(a, false), (b, true)])));
        // A descending order never leads a merge join.
        assert!(!info.leads_with(&info.order_key(&[(a, true)]), a));
    }
}
