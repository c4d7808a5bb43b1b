//! Order-key interning for the join-order search.
//!
//! The DP's solution slots are keyed by [`OrderKey`] — a small `Vec` of
//! equivalence-class ids. Hashing and cloning those vectors in the hot
//! loop is pure churn: the universe of keys a search can ever produce is
//! finite and known up front (the empty key, each index's key-column
//! order and each join-column class as a one-element key — joins inherit
//! the outer's order verbatim and the search's own sorts are merge inputs
//! ordered on one class, so the set is closed under plan composition).
//! [`KeyInterner`] assigns each key a dense integer id at enumerator
//! construction, and the search then works exclusively with ids: solution
//! stores become flat arrays indexed by [`KeyId`], and the per-candidate
//! "which slot does this plan compete for" question is an integer copy
//! instead of a `Vec` clone.
//!
//! Every interned key is ascending. The block's required order is not a
//! slot: its Sort is appended after the search, and
//! [`KeyInterner::freeze`] only records which keys satisfy it or cover a
//! prefix of it. A required DESC column is therefore satisfied by no
//! slot, and met by a priced Sort alone.
//!
//! The interner is frozen before the search starts: the search only
//! reads it.

use crate::num::dense_id;
use crate::order::{OrderInfo, OrderKey};
use std::collections::HashMap;

/// Dense id of an interned [`OrderKey`].
pub type KeyId = u32;

/// The id of the empty key ("unordered / cheapest overall") — always 0.
pub const EMPTY_KEY: KeyId = 0;

/// Frozen bidirectional map `OrderKey ↔ KeyId`, plus per-key lookup
/// tables the search consults per candidate.
#[derive(Debug)]
pub struct KeyInterner {
    keys: Vec<OrderKey>,
    ids: HashMap<OrderKey, KeyId>,
    /// Per key id: does the key satisfy the block's required order?
    satisfies_required: Vec<bool>,
    /// Per key id: how many leading required-order classes the key
    /// already delivers (the partial-sort prefix).
    required_prefix: Vec<usize>,
    /// Per key id: the leading equivalence class, if any.
    head: Vec<Option<usize>>,
}

impl KeyInterner {
    /// Start an interner with the empty key pre-interned at id 0.
    pub fn new() -> Self {
        let empty = OrderKey::new();
        let mut ids = HashMap::new();
        ids.insert(empty.clone(), EMPTY_KEY);
        KeyInterner {
            keys: vec![empty],
            ids,
            satisfies_required: Vec::new(),
            required_prefix: Vec::new(),
            head: Vec::new(),
        }
    }

    /// Intern a key, returning its dense id.
    pub fn intern(&mut self, key: OrderKey) -> KeyId {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = dense_id(self.keys.len());
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        id
    }

    /// Precompute the per-key lookup tables against the block's order
    /// info. Must be called once, after the last `intern`.
    pub fn freeze(&mut self, orders: &OrderInfo) {
        self.satisfies_required = self.keys.iter().map(|k| orders.satisfies_required(k)).collect();
        self.required_prefix =
            self.keys.iter().map(|k| orders.common_prefix_with_required(k)).collect();
        self.head = self.keys.iter().map(|k| k.first().copied()).collect();
    }

    /// The key for an id. Ids are dense integers this interner issued, so
    /// a lookup can only miss on a foreign id; that decodes to the empty
    /// key (= "no usable order") rather than panicking.
    pub fn get(&self, id: KeyId) -> &OrderKey {
        static EMPTY: OrderKey = OrderKey::new();
        self.keys.get(id as usize).unwrap_or(&EMPTY)
    }

    /// Number of interned keys (= solution slots per subset).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// An interner always holds at least the empty key.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the key satisfies the block's required order (frozen).
    /// A foreign id — or a query before [`KeyInterner::freeze`] — answers
    /// `false`: the conservative direction, which at worst makes the
    /// search add a redundant sort, never claim an order it cannot prove.
    pub fn satisfies_required(&self, id: KeyId) -> bool {
        self.satisfies_required.get(id as usize).copied().unwrap_or(false)
    }

    /// How many leading classes of the block's required order the key
    /// delivers (frozen) — the partial-sort prefix. A foreign id, or a
    /// query before [`KeyInterner::freeze`], answers `0`: the
    /// conservative direction (a full sort is always correct).
    pub fn required_prefix(&self, id: KeyId) -> usize {
        self.required_prefix.get(id as usize).copied().unwrap_or(0)
    }

    /// Whether the key's leading class is the class of `col` — the merge
    /// join "already ordered on the join column" test (frozen). As with
    /// [`KeyInterner::satisfies_required`], an unknown id answers `false`.
    pub fn leads_with(&self, id: KeyId, class_of_col: Option<usize>) -> bool {
        match (self.head.get(id as usize).copied().flatten(), class_of_col) {
            (Some(k), Some(c)) => k == c,
            _ => false,
        }
    }
}

impl Default for KeyInterner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{BExpr, BoundQuery, ColId, Factor, SExpr};
    use sysr_rss::CompareOp;

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

    fn equijoin_factor(a: ColId, b: ColId) -> Factor {
        let expr = BExpr::Cmp { op: CompareOp::Eq, left: SExpr::Col(a), right: SExpr::Col(b) };
        let tables = expr.local_tables();
        Factor { expr, tables, equijoin: Some((a, b)) }
    }

    #[test]
    fn empty_key_is_id_zero_and_dedup_works() {
        let mut i = KeyInterner::new();
        assert_eq!(i.intern(OrderKey::new()), EMPTY_KEY);
        let a = i.intern(vec![1]);
        let b = i.intern(vec![1, 2]);
        assert_eq!(i.intern(vec![1]), a);
        assert_ne!(a, b);
        assert_eq!(i.get(b), &vec![1, 2]);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn frozen_tables_match_order_info() {
        let a = ColId::new(0, 1);
        let b = ColId::new(1, 0);
        let q = query_with(vec![equijoin_factor(a, b)], vec![a]);
        let orders = OrderInfo::build(&q);
        let cls = orders.class_of(a).expect("join column has a class");
        let mut i = KeyInterner::new();
        let one = i.intern(vec![cls]);
        i.freeze(&orders);
        assert!(i.satisfies_required(one));
        assert!(!i.satisfies_required(EMPTY_KEY));
        assert!(i.leads_with(one, Some(cls)));
        assert!(!i.leads_with(one, Some(cls + 1)));
        assert!(!i.leads_with(EMPTY_KEY, Some(cls)));
        assert!(!i.leads_with(one, None));
    }
}
