//! Single-relation access path selection (§4).
//!
//! For one relation, "the cheapest access path is obtained by evaluating
//! the cost for each available access path (each index on the relation,
//! plus a segment scan)". An index *matches* a set of predicates when they
//! are sargable and their columns form an initial substring of the index
//! key (§4): consecutive equal predicates on the leading key columns plus
//! at most one range predicate on the next column become the probe's
//! start/stop keys; their combined selectivity is the `F(preds)` of the
//! Table 2 formulas.
//!
//! The same enumeration serves two roles in the join search: standalone
//! scans (no outer tuples available) and *inner* scans of a join, where
//! join predicates connecting the relation to the already-joined set
//! become additional sargable predicates whose probe operands are outer
//! columns — this is how `C-inner(path)` gets cheap when the inner
//! relation has an index on its join column.

#![expect(
    clippy::indexing_slicing,
    reason = "access-path generation: table and factor ids come from the bound query the candidate arrays were built from"
)]

use crate::bitset::TableSet;
use crate::cost::{Cost, CostModel};
use crate::num::card_f64;
use crate::order::OrderInfo;
use crate::plan::{Access, IndexRange, PlanExpr, PlanNode, SargAtom, SargFactor, ScanPlan};
use crate::query::{BExpr, BoundQuery, ColId, Factor, Operand, SExpr};
use crate::selectivity::Selectivity;
use crate::OptimizerConfig;
use sysr_catalog::{Catalog, IndexMeta, RelationMeta};
use sysr_rss::CompareOp;

/// Shared planning context for one query block.
pub struct PlanCtx<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a BoundQuery,
    pub model: CostModel,
    pub config: OptimizerConfig,
    /// Selectivity factor per boolean factor (Table 1), precomputed.
    pub fsel: Vec<f64>,
    pub orders: OrderInfo,
}

impl<'a> PlanCtx<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a BoundQuery, config: OptimizerConfig) -> Self {
        let sel = Selectivity::new(catalog, query);
        let fsel = query.factors.iter().map(|f| sel.factor(f)).collect();
        let orders = OrderInfo::build(query);
        PlanCtx {
            catalog,
            query,
            model: CostModel::new(config.w, config.buffer_pages),
            config,
            fsel,
            orders,
        }
    }

    #[expect(clippy::expect_used, reason = "binder resolved every table id against this catalog")]
    pub fn relation(&self, table: usize) -> &RelationMeta {
        self.catalog.relation(self.query.tables[table].rel).expect("bound table exists in catalog")
    }

    /// NCARD of a FROM-list table.
    pub fn ncard(&self, table: usize) -> f64 {
        card_f64(self.relation(table).stats.ncard)
    }

    /// Mean tuple width of a FROM-list table.
    pub fn width(&self, table: usize) -> f64 {
        self.relation(table).stats.avg_width
    }

    /// Composite tuple width for a set of joined tables.
    pub fn composite_width(&self, tables: TableSet) -> f64 {
        tables.iter().map(|t| self.width(t)).sum()
    }

    /// Estimated number of runs when `rows` tuples arrive grouped on
    /// `keys` (the satisfied prefix of a partial sort's keys; direction
    /// does not change the count): the product of
    /// per-column distinct-value estimates — a leading index's ICARD when
    /// one exists ("this assumes an even distribution of tuples among the
    /// index key values", Table 1), else the Table 1 equal-predicate
    /// default of 10 distinct values — capped at `rows`.
    pub fn run_count(&self, keys: &[(ColId, bool)], rows: f64) -> f64 {
        let runs: f64 = keys
            .iter()
            .map(|(c, _)| {
                self.catalog
                    .leading_index_on(self.query.tables[c.table].rel, c.col)
                    .map(|i| card_f64(i.stats.icard))
                    .filter(|&v| v >= 1.0)
                    .unwrap_or(1.0 / crate::selectivity::DEFAULT_EQ)
            })
            .product();
        runs.clamp(1.0, rows.max(1.0))
    }

    /// Estimated rows of the join of `tables`: product of cardinalities
    /// times the selectivities of every factor local to the set
    /// ("N = (product of the cardinalities of all relations T of the join
    /// so far) * (product of the selectivity factors of all applicable
    /// predicates)", §5).
    pub fn subset_rows(&self, tables: TableSet) -> f64 {
        let cards: f64 = tables.iter().map(|t| self.ncard(t)).product();
        let sels: f64 = self
            .query
            .factors
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.tables.is_empty() && f.tables.is_subset_of(tables))
            .map(|(i, _)| self.fsel[i])
            .product();
        cards * sels
    }
}

/// One costed access path for a single relation.
#[derive(Debug, Clone)]
pub struct AccessCandidate {
    pub scan: ScanPlan,
    /// Cost of one full execution of the scan (standalone) or one probe
    /// (as a join inner).
    pub cost: Cost,
    /// Produced tuple order (an index's key columns, ascending).
    pub order: Vec<(ColId, bool)>,
    /// Rows emitted per execution: `NCARD × Π F(applied factors)`.
    pub out_rows: f64,
    /// Predicted RSI calls per execution (sargable factors only filter
    /// below the interface).
    pub rsicard: f64,
    /// All factor indexes applied by this scan (sarg + residual).
    pub applied: Vec<usize>,
}

impl AccessCandidate {
    /// Wrap into an annotated plan node.
    pub fn into_plan(self) -> PlanExpr {
        PlanExpr {
            node: PlanNode::Scan(self.scan),
            cost: self.cost,
            rows: self.out_rows,
            order: self.order,
        }
    }
}

/// Whether an operand can be resolved given outer tables `available`.
fn operand_available(op: &Operand, available: TableSet, query: &BoundQuery) -> bool {
    match op {
        Operand::Lit(_) | Operand::Outer { .. } => true,
        Operand::Col(c) => available.contains(c.table),
        // A correlated scalar subquery may depend on this block's own
        // tables; its value is not fixed per scan, so it cannot be a probe
        // or SARG operand.
        Operand::Subquery(i) => query.subqueries.get(*i).map(|s| !s.correlated).unwrap_or(false),
    }
}

/// Try to compile a boolean factor into SARG form (DNF of atoms) for a
/// scan of `table` with probe values from `available`.
fn sargify(
    expr: &BExpr,
    table: usize,
    available: TableSet,
    query: &BoundQuery,
) -> Option<Vec<Vec<SargAtom>>> {
    match expr {
        BExpr::Cmp { op, left, right } => {
            let (col, operand, op) = split_cmp(*op, left, right, table)?;
            if !operand_available(&operand, available, query) {
                return None;
            }
            Some(vec![vec![SargAtom { col, op, operand }]])
        }
        BExpr::Between { expr, low, high, negated } => {
            let col = local_col(expr, table)?;
            let lo = low.as_operand_excluding(table)?;
            let hi = high.as_operand_excluding(table)?;
            if !operand_available(&lo, available, query)
                || !operand_available(&hi, available, query)
            {
                return None;
            }
            if *negated {
                // NOT BETWEEN → col < lo OR col > hi.
                Some(vec![
                    vec![SargAtom { col, op: CompareOp::Lt, operand: lo }],
                    vec![SargAtom { col, op: CompareOp::Gt, operand: hi }],
                ])
            } else {
                Some(vec![vec![
                    SargAtom { col, op: CompareOp::Ge, operand: lo },
                    SargAtom { col, op: CompareOp::Le, operand: hi },
                ]])
            }
        }
        BExpr::InList { expr, list, negated } => {
            let col = local_col(expr, table)?;
            let mut operands = Vec::with_capacity(list.len());
            for e in list {
                let op = e.as_operand_excluding(table)?;
                if !operand_available(&op, available, query) {
                    return None;
                }
                operands.push(op);
            }
            if *negated {
                // NOT IN (a, b) → col <> a AND col <> b: one conjunct.
                Some(vec![operands
                    .into_iter()
                    .map(|operand| SargAtom { col, op: CompareOp::Ne, operand })
                    .collect()])
            } else {
                // IN (a, b) → col = a OR col = b: DNF disjuncts.
                Some(
                    operands
                        .into_iter()
                        .map(|operand| vec![SargAtom { col, op: CompareOp::Eq, operand }])
                        .collect(),
                )
            }
        }
        // OR trees whose every leaf sargifies onto this table also become
        // SARGs ("SARGS are expressed as a boolean expression of such
        // predicates in disjunctive normal form", §3).
        BExpr::Or(children) => {
            let mut dnf = Vec::new();
            for c in children {
                let child = sargify(c, table, available, query)?;
                dnf.extend(child);
            }
            Some(dnf)
        }
        // AND inside a factor (can appear under OR rewrites): conjoin by
        // cross-product of the children's DNFs — only if small.
        BExpr::And(children) => {
            let mut dnf: Vec<Vec<SargAtom>> = vec![vec![]];
            for c in children {
                let child = sargify(c, table, available, query)?;
                let mut next = Vec::new();
                for base in &dnf {
                    for disj in &child {
                        let mut merged = base.clone();
                        merged.extend(disj.iter().cloned());
                        next.push(merged);
                    }
                }
                if next.len() > 64 {
                    return None; // avoid DNF blowup; fall back to residual
                }
                dnf = next;
            }
            Some(dnf)
        }
        _ => None,
    }
}

/// Extract `(local column, operand, op)` from a comparison, flipping so the
/// local column is on the left.
fn split_cmp(
    op: CompareOp,
    left: &SExpr,
    right: &SExpr,
    table: usize,
) -> Option<(usize, Operand, CompareOp)> {
    if let Some(col) = local_col(left, table) {
        let operand = right.as_operand_excluding(table)?;
        return Some((col, operand, op));
    }
    if let Some(col) = local_col(right, table) {
        let operand = left.as_operand_excluding(table)?;
        return Some((col, operand, op.flipped()));
    }
    None
}

fn local_col(e: &SExpr, table: usize) -> Option<usize> {
    match e.as_col() {
        Some(c) if c.table == table => Some(c.col),
        _ => None,
    }
}

/// A factor classified for one scan.
enum FactorUse {
    Sarg(Vec<Vec<SargAtom>>),
    Residual,
}

/// Enumerate every access path for `table`, applying all factors whose
/// other referenced tables are in `available` (empty for standalone
/// scans). Returns one candidate per index plus the segment scan.
pub fn access_paths(ctx: &PlanCtx<'_>, table: usize, available: TableSet) -> Vec<AccessCandidate> {
    let rel = ctx.relation(table);
    let stats = &rel.stats;
    let ncard = card_f64(stats.ncard);
    let me = TableSet::single(table);

    // Applicable factors: reference this table, everything else available.
    let applicable: Vec<(usize, &Factor)> = ctx
        .query
        .factors
        .iter()
        .enumerate()
        .filter(|(_, f)| f.tables.contains(table) && f.tables.minus(me).is_subset_of(available))
        .collect();

    // Classify each factor once.
    let uses: Vec<(usize, FactorUse)> = applicable
        .iter()
        .map(|&(i, f)| match sargify(&f.expr, table, available, ctx.query) {
            Some(dnf) => (i, FactorUse::Sarg(dnf)),
            None => (i, FactorUse::Residual),
        })
        .collect();

    let applied: Vec<usize> = uses.iter().map(|&(i, _)| i).collect();
    let sel_all: f64 = applied.iter().map(|&i| ctx.fsel[i]).product();
    let sel_sargable: f64 = uses
        .iter()
        .filter(|(_, u)| matches!(u, FactorUse::Sarg(_)))
        .map(|&(i, _)| ctx.fsel[i])
        .product();
    let out_rows = ncard * sel_all;
    let rsicard = ncard * sel_sargable;

    let sargs: Vec<SargFactor> = uses
        .iter()
        .filter_map(|(i, u)| match u {
            FactorUse::Sarg(dnf) => Some(SargFactor { factor: *i, dnf: dnf.clone() }),
            FactorUse::Residual => None,
        })
        .collect();
    let residual: Vec<usize> =
        uses.iter().filter_map(|(i, u)| matches!(u, FactorUse::Residual).then_some(*i)).collect();

    let mut candidates = Vec::new();

    // ---- the segment scan ---------------------------------------------
    candidates.push(AccessCandidate {
        scan: ScanPlan {
            table,
            access: Access::Segment,
            sargs: sargs.clone(),
            residual: residual.clone(),
        },
        cost: ctx.model.segment_scan(card_f64(stats.tcard), stats.pfrac, rsicard),
        order: Vec::new(),
        out_rows,
        rsicard,
        applied: applied.clone(),
    });

    // ---- one candidate per index ----------------------------------------
    for idx in ctx.catalog.indexes_on(rel.id) {
        candidates.push(index_candidate(
            ctx,
            table,
            idx,
            &uses,
            &sargs,
            &residual,
            &applied,
            ncard,
            card_f64(stats.tcard),
            out_rows,
            rsicard,
        ));
    }
    candidates
}

#[expect(
    clippy::too_many_arguments,
    reason = "the factor partitions and cardinalities are computed once by the caller and \
              shared by every index of the table"
)]
fn index_candidate(
    ctx: &PlanCtx<'_>,
    table: usize,
    idx: &IndexMeta,
    uses: &[(usize, FactorUse)],
    sargs: &[SargFactor],
    residual: &[usize],
    applied: &[usize],
    ncard: f64,
    tcard: f64,
    out_rows: f64,
    rsicard: f64,
) -> AccessCandidate {
    // Find matching predicates: equality atoms on consecutive leading key
    // columns, then at most one range on the next column. Only simple
    // single-atom SARG factors participate (an OR tree cannot be a probe).
    let mut eq_prefix: Vec<Operand> = Vec::new();
    let mut matching: Vec<usize> = Vec::new();
    let mut range: Option<IndexRange> = None;

    let single_atom = |u: &FactorUse| -> Option<SargAtom> {
        match u {
            FactorUse::Sarg(dnf) if dnf.len() == 1 && dnf[0].len() == 1 => Some(dnf[0][0].clone()),
            _ => None,
        }
    };
    // BETWEEN compiles to one conjunct of two atoms on the same column.
    let between_atoms = |u: &FactorUse| -> Option<(SargAtom, SargAtom)> {
        match u {
            FactorUse::Sarg(dnf) if dnf.len() == 1 && dnf[0].len() == 2 => {
                Some((dnf[0][0].clone(), dnf[0][1].clone()))
            }
            _ => None,
        }
    };

    for (pos, &key_col) in idx.key_cols.iter().enumerate() {
        // Equal predicate on this key column?
        let eq = uses.iter().find(|(i, u)| {
            !matching.contains(i)
                && single_atom(u)
                    .map(|a| a.col == key_col && a.op == CompareOp::Eq)
                    .unwrap_or(false)
        });
        if let Some(&(i, ref u)) = eq {
            #[expect(
                clippy::expect_used,
                reason = "the find() above only yields factors with a single atom"
            )]
            let atom = single_atom(u).expect("checked");
            eq_prefix.push(atom.operand);
            matching.push(i);
            continue;
        }
        // No equality: try range predicates on this column, then stop.
        let mut r = IndexRange::default();
        for (i, u) in uses {
            if matching.contains(i) {
                continue;
            }
            if let Some(atom) = single_atom(u) {
                if atom.col != key_col {
                    continue;
                }
                match atom.op {
                    CompareOp::Gt if r.lower.is_none() => {
                        r.lower = Some((atom.operand, false));
                        matching.push(*i);
                    }
                    CompareOp::Ge if r.lower.is_none() => {
                        r.lower = Some((atom.operand, true));
                        matching.push(*i);
                    }
                    CompareOp::Lt if r.upper.is_none() => {
                        r.upper = Some((atom.operand, false));
                        matching.push(*i);
                    }
                    CompareOp::Le if r.upper.is_none() => {
                        r.upper = Some((atom.operand, true));
                        matching.push(*i);
                    }
                    _ => {}
                }
            } else if let Some((lo, hi)) = between_atoms(u) {
                if lo.col == key_col
                    && hi.col == key_col
                    && lo.op == CompareOp::Ge
                    && hi.op == CompareOp::Le
                    && r.lower.is_none()
                    && r.upper.is_none()
                {
                    r.lower = Some((lo.operand, true));
                    r.upper = Some((hi.operand, true));
                    matching.push(*i);
                }
            }
        }
        if r.lower.is_some() || r.upper.is_some() {
            range = Some(r);
        }
        let _ = pos;
        break;
    }

    let istats = &idx.stats;
    let nindx = card_f64(istats.nindx);
    let f_matching: f64 = matching.iter().map(|&i| ctx.fsel[i]).product();
    let unique_full_eq = idx.unique && eq_prefix.len() == idx.key_cols.len();

    let cost = if unique_full_eq {
        // Table 2 situation 1: 1 + 1 + W.
        ctx.model.unique_index_eq()
    } else if !matching.is_empty() {
        if idx.clustered {
            ctx.model.clustered_matching(f_matching, nindx, tcard, rsicard)
        } else {
            ctx.model.nonclustered_matching(f_matching, nindx, ncard, tcard, rsicard)
        }
    } else if idx.clustered {
        ctx.model.clustered_nonmatching(nindx, tcard, rsicard)
    } else {
        ctx.model.nonclustered_nonmatching(nindx, ncard, tcard, rsicard)
    };

    let order = idx.key_cols.iter().map(|&c| (ColId::new(table, c), false)).collect();
    AccessCandidate {
        scan: ScanPlan {
            table,
            access: Access::Index { index: idx.id, eq_prefix, range, matching: matching.clone() },
            sargs: sargs.to_vec(),
            residual: residual.to_vec(),
        },
        cost,
        order,
        out_rows: if unique_full_eq { out_rows.min(1.0) } else { out_rows },
        rsicard: if unique_full_eq { rsicard.min(1.0) } else { rsicard },
        applied: applied.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind_select;
    use sysr_catalog::{ColumnMeta, IndexStats, RelStats};
    use sysr_rss::{ColType, Value};
    use sysr_sql::{parse_statement, Statement};

    /// EMP(EMPNO, NAME, DNO, JOB, SAL): unique clustered index on EMPNO,
    /// non-clustered on DNO, non-clustered on (DNO, JOB).
    fn demo() -> Catalog {
        let mut cat = Catalog::new();
        let emp = cat
            .create_relation(
                "EMP",
                0,
                vec![
                    ColumnMeta::new("EMPNO", ColType::Int),
                    ColumnMeta::new("NAME", ColType::Str),
                    ColumnMeta::new("DNO", ColType::Int),
                    ColumnMeta::new("JOB", ColType::Int),
                    ColumnMeta::new("SAL", ColType::Float),
                ],
            )
            .unwrap();
        cat.set_relation_stats(
            emp,
            RelStats { ncard: 10_000, tcard: 500, pfrac: 1.0, avg_width: 40.0, valid: true },
        );
        cat.register_index(0, "EMP_EMPNO", emp, vec![0], true, true).unwrap();
        cat.register_index(1, "EMP_DNO", emp, vec![2], false, false).unwrap();
        cat.register_index(2, "EMP_DNO_JOB", emp, vec![2, 3], false, false).unwrap();
        for (id, icard, nindx) in [(0u32, 10_000u64, 60u64), (1, 50, 40), (2, 600, 55)] {
            cat.set_index_stats(
                id,
                IndexStats {
                    icard,
                    nindx,
                    leaf_pages: nindx - 2,
                    low_key: Some(Value::Int(0)),
                    high_key: Some(Value::Int(i64::try_from(icard).unwrap() - 1)),
                    valid: true,
                },
            );
        }
        cat
    }

    fn paths_for(cat: &Catalog, sql: &str) -> (Vec<AccessCandidate>, BoundQuery) {
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else { panic!() };
        let q = bind_select(cat, &stmt).unwrap();
        let ctx = PlanCtx::new(cat, &q, OptimizerConfig::default());
        (access_paths(&ctx, 0, TableSet::EMPTY), q)
    }

    fn index_path(cands: &[AccessCandidate], idx: u32) -> &AccessCandidate {
        cands
            .iter()
            .find(|c| matches!(&c.scan.access, Access::Index { index, .. } if *index == idx))
            .unwrap()
    }

    #[test]
    fn enumerates_segment_plus_each_index() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP");
        assert_eq!(cands.len(), 4); // segment + 3 indexes
        assert!(matches!(cands[0].scan.access, Access::Segment));
    }

    #[test]
    fn unique_eq_costs_two_pages_plus_w() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE EMPNO = 42");
        let c = index_path(&cands, 0);
        assert_eq!(c.cost, Cost::new(2.0, 1.0));
        assert!(c.out_rows <= 1.0);
        let Access::Index { eq_prefix, .. } = &c.scan.access else { panic!() };
        assert_eq!(eq_prefix, &vec![Operand::Lit(Value::Int(42))]);
    }

    #[test]
    fn matching_eq_on_nonunique_index() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO = 7");
        let c = index_path(&cands, 1);
        let Access::Index { eq_prefix, matching, .. } = &c.scan.access else { panic!() };
        assert_eq!(eq_prefix.len(), 1);
        assert_eq!(matching.len(), 1);
        // F = 1/50 retrieves 200 scattered tuples: the Cardenas estimate
        // (~166 distinct pages) exceeds the 64-page buffer, so the
        // per-tuple variant applies: F*(NINDX+NCARD) = 200.8.
        assert!((c.cost.pages - 200.8).abs() < 1e-9, "pages={}", c.cost.pages);
        assert!((c.rsicard - 200.0).abs() < 1e-9);
        // Segment scan costs TCARD/P = 500 pages: the index wins.
        assert!(c.cost.pages < cands[0].cost.pages);
    }

    #[test]
    fn multi_column_prefix_match() {
        let cat = demo();
        let (cands, _) =
            paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO = 7 AND JOB = 3 AND SAL > 10");
        let c = index_path(&cands, 2);
        let Access::Index { eq_prefix, matching, range, .. } = &c.scan.access else { panic!() };
        assert_eq!(eq_prefix.len(), 2, "DNO and JOB both match the (DNO,JOB) index");
        assert_eq!(matching.len(), 2);
        assert!(range.is_none(), "SAL is not the next key column");
        // SAL > 10 is still a SARG.
        assert_eq!(c.scan.sargs.len(), 3);
        // The single-column DNO index matches only DNO.
        let c1 = index_path(&cands, 1);
        let Access::Index { matching, .. } = &c1.scan.access else { panic!() };
        assert_eq!(matching.len(), 1);
    }

    #[test]
    fn range_bounds_on_leading_column() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO > 10 AND DNO <= 20");
        let c = index_path(&cands, 1);
        let Access::Index { eq_prefix, range, matching, .. } = &c.scan.access else { panic!() };
        assert!(eq_prefix.is_empty());
        let r = range.as_ref().unwrap();
        assert_eq!(r.lower, Some((Operand::Lit(Value::Int(10)), false)));
        assert_eq!(r.upper, Some((Operand::Lit(Value::Int(20)), true)));
        assert_eq!(matching.len(), 2);
    }

    #[test]
    fn between_becomes_range_probe() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO BETWEEN 5 AND 9");
        let c = index_path(&cands, 1);
        let Access::Index { range, matching, .. } = &c.scan.access else { panic!() };
        let r = range.as_ref().unwrap();
        assert_eq!(r.lower, Some((Operand::Lit(Value::Int(5)), true)));
        assert_eq!(r.upper, Some((Operand::Lit(Value::Int(9)), true)));
        assert_eq!(matching.len(), 1);
    }

    #[test]
    fn eq_prefix_stops_at_gap() {
        let cat = demo();
        // JOB = 3 alone does not match (DNO,JOB): JOB is not the leading
        // column.
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE JOB = 3");
        let c = index_path(&cands, 2);
        let Access::Index { eq_prefix, matching, .. } = &c.scan.access else { panic!() };
        assert!(eq_prefix.is_empty());
        assert!(matching.is_empty());
        // But it is still applied as a SARG.
        assert_eq!(c.scan.sargs.len(), 1);
    }

    #[test]
    fn or_tree_becomes_dnf_sarg() {
        let cat = demo();
        let (cands, _) =
            paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO = 1 OR (JOB = 2 AND SAL > 5)");
        let seg = &cands[0];
        assert_eq!(seg.scan.sargs.len(), 1);
        assert_eq!(seg.scan.sargs[0].dnf.len(), 2);
        assert_eq!(seg.scan.sargs[0].dnf[1].len(), 2);
        assert!(seg.scan.residual.is_empty());
    }

    #[test]
    fn in_list_is_dnf_not_probe() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP WHERE DNO IN (1, 2, 3)");
        let c = index_path(&cands, 1);
        let Access::Index { matching, eq_prefix, .. } = &c.scan.access else { panic!() };
        assert!(matching.is_empty() && eq_prefix.is_empty());
        assert_eq!(c.scan.sargs[0].dnf.len(), 3);
    }

    #[test]
    fn join_predicate_probes_when_outer_available() {
        let mut cat = demo();
        let dept = cat
            .create_relation(
                "DEPT",
                1,
                vec![ColumnMeta::new("DNO", ColType::Int), ColumnMeta::new("LOC", ColType::Str)],
            )
            .unwrap();
        cat.set_relation_stats(
            dept,
            RelStats { ncard: 50, tcard: 2, pfrac: 1.0, avg_width: 24.0, valid: true },
        );
        let Statement::Select(stmt) =
            parse_statement("SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO").unwrap()
        else {
            panic!()
        };
        let q = bind_select(&cat, &stmt).unwrap();
        let ctx = PlanCtx::new(&cat, &q, OptimizerConfig::default());
        // With DEPT (table 1) available, EMP's DNO index matches the join
        // predicate; the probe operand is DEPT.DNO.
        let cands = access_paths(&ctx, 0, TableSet::single(1));
        let c = index_path(&cands, 1);
        let Access::Index { eq_prefix, matching, .. } = &c.scan.access else { panic!() };
        assert_eq!(eq_prefix, &vec![Operand::Col(ColId::new(1, 0))]);
        assert_eq!(matching.len(), 1);
        // Standalone, the join predicate cannot be applied at all.
        let cands = access_paths(&ctx, 0, TableSet::EMPTY);
        let c = index_path(&cands, 1);
        let Access::Index { matching, .. } = &c.scan.access else { panic!() };
        assert!(matching.is_empty());
        assert!(cands[0].applied.is_empty());
    }

    #[test]
    fn clustered_index_cheaper_than_nonclustered_when_unselective() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP");
        let clustered = index_path(&cands, 0); // clustered, non-matching
        let nonclustered = index_path(&cands, 1); // non-clustered, non-matching
                                                  // clustered: NINDX + TCARD = 60+500 = 560
        assert!((clustered.cost.pages - 560.0).abs() < 1e-9);
        // non-clustered: small = 40+500 = 540 > buffer 64 → NINDX + NCARD.
        assert!((nonclustered.cost.pages - 10_040.0).abs() < 1e-9);
    }

    #[test]
    fn index_order_is_key_columns() {
        let cat = demo();
        let (cands, _) = paths_for(&cat, "SELECT NAME FROM EMP");
        let c = index_path(&cands, 2);
        assert_eq!(c.order, vec![(ColId::new(0, 2), false), (ColId::new(0, 3), false)]);
        assert!(cands[0].order.is_empty(), "segment scan is unordered");
    }

    #[test]
    fn subset_rows_multiplies_cards_and_sels() {
        let cat = demo();
        let Statement::Select(stmt) =
            parse_statement("SELECT NAME FROM EMP WHERE DNO = 7 AND SAL > 0").unwrap()
        else {
            panic!()
        };
        let q = bind_select(&cat, &stmt).unwrap();
        let ctx = PlanCtx::new(&cat, &q, OptimizerConfig::default());
        let rows = ctx.subset_rows(TableSet::single(0));
        // 10000 * (1/50) * (1/3 via default range — SAL has no index) …
        let expect = 10_000.0 * (1.0 / 50.0) * (1.0 / 3.0);
        assert!((rows - expect).abs() < 1e-6, "rows={rows}");
    }
}
