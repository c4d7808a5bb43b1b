//! The bound query model: query blocks after catalog lookup and semantic
//! checking.
//!
//! "A query block is represented by a SELECT list, a FROM list, and a WHERE
//! tree" (paper §2). After binding, the WHERE tree is normalized into
//! **boolean factors** — the conjuncts of its conjunctive normal form —
//! because "every tuple returned to the user must satisfy every boolean
//! factor" (§4). Each factor carries the set of FROM-list tables it
//! references, which drives where the factor can be applied during join
//! enumeration.

use crate::bitset::TableSet;
use std::fmt;
use sysr_catalog::RelId;
use sysr_rss::{CompareOp, SegmentId, Value};
use sysr_sql::{AggFunc, ArithOp};

/// A column of one FROM-list table instance: `(table position, column
/// position)`. Two FROM entries over the same relation are distinct
/// tables here (self-joins work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColId {
    pub table: usize,
    pub col: usize,
}

impl ColId {
    pub fn new(table: usize, col: usize) -> Self {
        ColId { table, col }
    }
}

impl fmt::Display for ColId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.c{}", self.table, self.col)
    }
}

/// One FROM-list entry after binding.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Position in the FROM list.
    pub table_no: usize,
    /// The catalog relation.
    pub rel: RelId,
    /// Segment holding the relation.
    pub segment: SegmentId,
    /// Binding name (alias or table name), for display.
    pub name: String,
}

/// A scalar operand as seen by scans and probes: something that resolves to
/// a [`Value`] at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A constant known at access path selection time.
    Lit(Value),
    /// A column of another table in this block — a join probe value,
    /// resolved from the composite row during execution.
    Col(ColId),
    /// A column of an enclosing query block (correlation); `level` is how
    /// many blocks up the referenced block sits (1 = immediate parent).
    Outer { level: usize, col: ColId },
    /// The (single) value of a scalar subquery of this block.
    Subquery(usize),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Lit(v) => write!(f, "{v}"),
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Outer { level, col } => write!(f, "outer^{level}:{col}"),
            Operand::Subquery(i) => write!(f, "subquery#{i}"),
        }
    }
}

/// An aggregate call in the SELECT list. `arg = None` is `COUNT(*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<Box<SExpr>>,
}

/// Bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    Col(ColId),
    Outer {
        level: usize,
        col: ColId,
    },
    Lit(Value),
    Arith {
        op: ArithOp,
        left: Box<SExpr>,
        right: Box<SExpr>,
    },
    Neg(Box<SExpr>),
    /// Scalar subquery (index into [`BoundQuery::subqueries`]).
    Subquery(usize),
    /// Aggregate — only valid in SELECT lists.
    Agg(AggCall),
}

impl SExpr {
    /// Tables of **this block** referenced by the expression.
    pub fn local_tables(&self) -> TableSet {
        let mut set = TableSet::EMPTY;
        self.visit_cols(&mut |c| set.insert(c.table));
        set
    }

    pub fn visit_cols(&self, f: &mut impl FnMut(ColId)) {
        match self {
            SExpr::Col(c) => f(*c),
            SExpr::Arith { left, right, .. } => {
                left.visit_cols(f);
                right.visit_cols(f);
            }
            SExpr::Neg(e) => e.visit_cols(f),
            SExpr::Agg(AggCall { arg, .. }) => {
                if let Some(a) = arg {
                    a.visit_cols(f);
                }
            }
            SExpr::Outer { .. } | SExpr::Lit(_) | SExpr::Subquery(_) => {}
        }
    }

    /// Whether the expression is a bare column of this block.
    pub fn as_col(&self) -> Option<ColId> {
        match self {
            SExpr::Col(c) => Some(*c),
            _ => None,
        }
    }

    /// Convert to a probe operand if it is simple enough to be evaluated
    /// without the current table's tuple: a literal, an outer reference, a
    /// scalar subquery, or a column of another table.
    pub fn as_operand_excluding(&self, table: usize) -> Option<Operand> {
        match self {
            SExpr::Lit(v) => Some(Operand::Lit(v.clone())),
            SExpr::Col(c) if c.table != table => Some(Operand::Col(*c)),
            SExpr::Outer { level, col } => Some(Operand::Outer { level: *level, col: *col }),
            SExpr::Subquery(i) => Some(Operand::Subquery(*i)),
            _ => None,
        }
    }

    pub fn contains_aggregate(&self) -> bool {
        match self {
            SExpr::Agg(_) => true,
            SExpr::Arith { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            SExpr::Neg(e) => e.contains_aggregate(),
            _ => false,
        }
    }

    /// Subquery indexes referenced by this expression.
    pub fn visit_subqueries(&self, f: &mut impl FnMut(usize)) {
        match self {
            SExpr::Subquery(i) => f(*i),
            SExpr::Arith { left, right, .. } => {
                left.visit_subqueries(f);
                right.visit_subqueries(f);
            }
            SExpr::Neg(e) => e.visit_subqueries(f),
            SExpr::Agg(AggCall { arg: Some(a), .. }) => a.visit_subqueries(f),
            _ => {}
        }
    }
}

/// Bound boolean expression — the WHERE tree.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    Cmp {
        op: CompareOp,
        left: SExpr,
        right: SExpr,
    },
    Between {
        expr: SExpr,
        low: SExpr,
        high: SExpr,
        negated: bool,
    },
    InList {
        expr: SExpr,
        list: Vec<SExpr>,
        negated: bool,
    },
    /// `expr IN (subquery)`; the subquery returns a set.
    InSubquery {
        expr: SExpr,
        subquery: usize,
        negated: bool,
    },
    And(Vec<BExpr>),
    Or(Vec<BExpr>),
    Not(Box<BExpr>),
    /// Constant truth value (from degenerate rewrites).
    Const(bool),
}

impl BExpr {
    pub fn local_tables(&self) -> TableSet {
        let mut set = TableSet::EMPTY;
        self.visit_scalar(&mut |e| {
            set = set.union(e.local_tables());
        });
        set
    }

    /// Visit the scalar leaves of the boolean tree.
    pub fn visit_scalar(&self, f: &mut impl FnMut(&SExpr)) {
        match self {
            BExpr::Cmp { left, right, .. } => {
                f(left);
                f(right);
            }
            BExpr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            BExpr::InList { expr, list, .. } => {
                f(expr);
                for e in list {
                    f(e);
                }
            }
            BExpr::InSubquery { expr, .. } => f(expr),
            BExpr::And(children) | BExpr::Or(children) => {
                for c in children {
                    c.visit_scalar(f);
                }
            }
            BExpr::Not(inner) => inner.visit_scalar(f),
            BExpr::Const(_) => {}
        }
    }

    /// Subquery indexes referenced anywhere in this boolean expression.
    pub fn visit_subqueries(&self, f: &mut impl FnMut(usize)) {
        if let BExpr::InSubquery { subquery, .. } = self {
            f(*subquery);
        }
        match self {
            BExpr::And(children) | BExpr::Or(children) => {
                for c in children {
                    c.visit_subqueries(f);
                }
            }
            BExpr::Not(inner) => inner.visit_subqueries(f),
            _ => {}
        }
        self.visit_scalar(&mut |e| e.visit_subqueries(f));
    }
}

/// One boolean factor: a conjunct of the WHERE tree's CNF, annotated for
/// the optimizer.
#[derive(Debug, Clone)]
pub struct Factor {
    pub expr: BExpr,
    /// Tables of this block the factor references. Empty for factors over
    /// only constants / outer references / subqueries.
    pub tables: TableSet,
    /// If the factor is an equi-join predicate `T1.c1 = T2.c2`, the two
    /// columns (in either order). Used by merge-join candidates and order
    /// equivalence classes.
    pub equijoin: Option<(ColId, ColId)>,
}

/// A nested query block appearing in a predicate of the parent block.
#[derive(Debug, Clone)]
pub struct SubqueryDef {
    pub query: BoundQuery,
    /// Whether the subquery (or anything nested inside it) references
    /// columns of enclosing blocks — a *correlation subquery* (§6).
    pub correlated: bool,
    /// Whether it is used as a single value (scalar comparison) rather
    /// than a set (IN).
    pub scalar: bool,
}

/// A fully bound query block.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    pub tables: Vec<BoundTable>,
    /// Boolean factors of the WHERE tree (CNF conjuncts).
    pub factors: Vec<Factor>,
    /// Output expressions with display names.
    pub select: Vec<(String, SExpr)>,
    pub distinct: bool,
    pub group_by: Vec<ColId>,
    pub order_by: Vec<(ColId, bool)>,
    /// Nested query blocks, indexed by `Operand::Subquery` /
    /// `BExpr::InSubquery`.
    pub subqueries: Vec<SubqueryDef>,
    /// True if the SELECT list aggregates (with or without GROUP BY).
    pub aggregated: bool,
}

impl BoundQuery {
    /// Set of all tables in the block.
    pub fn all_tables(&self) -> TableSet {
        TableSet::full(self.tables.len())
    }

    /// The free outer references of this block: `(level, col)` pairs where
    /// `level` counts enclosing blocks from this one (1 = immediate
    /// parent), deduplicated. A correlated subquery's result is a function
    /// of exactly these values — the executor memoizes on them, which
    /// implements §6's "if they are the same, the previous evaluation
    /// result can be used again" without requiring sorted candidates.
    pub fn free_outer_refs(&self) -> Vec<(usize, ColId)> {
        let mut out = Vec::new();
        collect_free_refs(self, 0, &mut out);
        out.sort_unstable_by_key(|&(l, c)| (l, c.table, c.col));
        out.dedup();
        out
    }

    /// The order the *plan* must deliver rows in (§4's interesting order
    /// of the block): the GROUP BY keys ascending, since grouping streams
    /// over sorted rows, or else the ORDER BY keys with their directions
    /// (`true` = DESC). Empty when the block has neither clause.
    pub fn required_order(&self) -> Vec<(ColId, bool)> {
        if !self.group_by.is_empty() {
            return self.group_by.iter().map(|&c| (c, false)).collect();
        }
        self.order_by.clone()
    }
}

/// Walk a block tree at `depth` below the block of interest, collecting
/// outer references that escape past that block (reported relative to it).
fn collect_free_refs(q: &BoundQuery, depth: usize, out: &mut Vec<(usize, ColId)>) {
    fn scan_sexpr(e: &SExpr, depth: usize, out: &mut Vec<(usize, ColId)>) {
        match e {
            SExpr::Outer { level, col } if *level > depth => out.push((*level - depth, *col)),
            SExpr::Arith { left, right, .. } => {
                scan_sexpr(left, depth, out);
                scan_sexpr(right, depth, out);
            }
            SExpr::Neg(inner) => scan_sexpr(inner, depth, out),
            SExpr::Agg(AggCall { arg: Some(a), .. }) => scan_sexpr(a, depth, out),
            _ => {}
        }
    }
    for f in &q.factors {
        f.expr.visit_scalar(&mut |s| scan_sexpr(s, depth, out));
    }
    for (_, e) in &q.select {
        scan_sexpr(e, depth, out);
    }
    for sub in &q.subqueries {
        collect_free_refs(&sub.query, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: usize, c: usize) -> SExpr {
        SExpr::Col(ColId::new(t, c))
    }

    #[test]
    fn local_tables_of_expressions() {
        let e = SExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(col(0, 1)),
            right: Box::new(col(2, 0)),
        };
        assert_eq!(e.local_tables().iter().collect::<Vec<_>>(), vec![0, 2]);
        let outer = SExpr::Outer { level: 1, col: ColId::new(0, 0) };
        assert!(outer.local_tables().is_empty());
    }

    #[test]
    fn operand_conversion() {
        assert_eq!(col(1, 2).as_operand_excluding(0), Some(Operand::Col(ColId::new(1, 2))));
        assert_eq!(col(0, 2).as_operand_excluding(0), None);
        assert_eq!(
            SExpr::Lit(Value::Int(5)).as_operand_excluding(0),
            Some(Operand::Lit(Value::Int(5)))
        );
    }

    #[test]
    fn bexpr_tables_union() {
        let e = BExpr::And(vec![
            BExpr::Cmp { op: CompareOp::Eq, left: col(0, 0), right: SExpr::Lit(Value::Int(1)) },
            BExpr::Cmp { op: CompareOp::Eq, left: col(1, 0), right: col(2, 0) },
        ]);
        assert_eq!(e.local_tables().iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn required_order_rules() {
        let mut q = BoundQuery {
            tables: vec![],
            factors: vec![],
            select: vec![],
            distinct: false,
            group_by: vec![],
            order_by: vec![(ColId::new(0, 1), false)],
            subqueries: vec![],
            aggregated: false,
        };
        assert_eq!(q.required_order(), vec![(ColId::new(0, 1), false)]);
        q.order_by[0].1 = true; // DESC is required too, with its direction
        assert_eq!(q.required_order(), vec![(ColId::new(0, 1), true)]);
        q.group_by = vec![ColId::new(0, 0)];
        assert_eq!(q.required_order(), vec![(ColId::new(0, 0), false)]);
    }
}
