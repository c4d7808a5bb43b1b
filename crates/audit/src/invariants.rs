//! The plan auditor: paper-derived invariants checked on optimized plans.
//!
//! Every rule here has a paper anchor (see DESIGN.md §8):
//!
//! | rule | invariant | paper |
//! |---|---|---|
//! | `plan-wellformed` | column/index/factor references bound, rows finite | §2 |
//! | `join-disjoint` | join inputs cover disjoint relation sets | §5 |
//! | `order-produced` | claimed orders actually produced by the access path / sort | §4/§5 |
//! | `sarg-pushdown` | SARG operands resolvable below the RSI; every factor applied | §3/§4 |
//! | `selectivity-range` | Table 1 factors finite and in `[0, 1]` | §4, Table 1 |
//! | `cost-admissible` | costs finite, non-negative, monotone over inputs | §4, Table 2 |
//! | `trace-accounting` | `pruned + surviving == generated` per subset | §5 |
//! | `exec-accounting` | per-node measured I/O sums to the whole-query delta | §7 |

use crate::{AuditReport, Violation};
use std::collections::HashMap;
use system_r::catalog::Catalog;
use system_r::core::{
    estimate_qcard, Access, BoundQuery, ColId, CostModel, NodeMeasurement, Operand,
    OptimizerConfig, OrderInfo, PlanExpr, PlanNode, QueryPlan, SearchTrace, Selectivity, TableSet,
};
use system_r::rss::IoStats;

/// Absolute slack for cost comparisons (f64 noise, not model error).
const EPS: f64 = 1e-6;

/// Audit one optimized [`QueryPlan`] (root block plus every nested block)
/// against the full invariant catalogue. `label` names the plan in
/// violation locations (e.g. the corpus case).
pub fn audit_query_plan(
    catalog: &Catalog,
    plan: &QueryPlan,
    config: &OptimizerConfig,
    label: &str,
) -> AuditReport {
    let mut report = AuditReport::default();
    audit_block(catalog, plan, config, label, &mut report);
    report
}

fn audit_block(
    catalog: &Catalog,
    plan: &QueryPlan,
    config: &OptimizerConfig,
    label: &str,
    report: &mut AuditReport,
) {
    let cx = BlockCx {
        catalog,
        query: &plan.query,
        orders: OrderInfo::build(&plan.query),
        model: CostModel::new(config.w, config.buffer_pages),
    };
    let mut enforced = vec![false; plan.query.factors.len()];

    // ---- tree walk: per-node structure, orders, SARGs, costs ------------
    walk(&cx, &plan.root, TableSet::EMPTY, &format!("{label}/root"), &mut enforced, report);

    // ---- root coverage: all tables joined, required order delivered -----
    report.checks += 2;
    if plan.root.tables() != plan.query.all_tables() {
        report.push(Violation::new(
            "join-disjoint",
            format!("{label}/root"),
            format!(
                "plan covers tables {:?} but the FROM list has {} tables",
                plan.root.tables().iter().collect::<Vec<_>>(),
                plan.query.tables.len()
            ),
        ));
    }
    if !plan.query.required_order().is_empty() {
        let key = cx.orders.order_key(&plan.root.order);
        if !cx.orders.satisfies_required(&key) {
            report.push(Violation::new(
                "order-produced",
                format!("{label}/root"),
                format!(
                    "required order {:?} not satisfied by produced order {:?}",
                    plan.query.required_order(),
                    plan.root.order
                ),
            ));
        }
    }

    // ---- factor coverage: every boolean factor enforced somewhere -------
    for (i, f) in plan.query.factors.iter().enumerate() {
        report.checks += 1;
        if f.tables.is_empty() {
            if !plan.block_filters.contains(&i) {
                report.push(Violation::new(
                    "sarg-pushdown",
                    format!("{label}/root"),
                    format!("table-free factor #{i} missing from block_filters"),
                ));
            }
        } else if !enforced[i] {
            report.push(Violation::new(
                "sarg-pushdown",
                format!("{label}/root"),
                format!(
                    "factor #{i} (tables {:?}) is never applied by any plan node",
                    f.tables.iter().collect::<Vec<_>>()
                ),
            ));
        }
    }
    for &i in &plan.block_filters {
        report.checks += 1;
        match plan.query.factors.get(i) {
            None => report.push(Violation::new(
                "plan-wellformed",
                format!("{label}/root"),
                format!("block_filters references factor #{i} out of bounds"),
            )),
            Some(f) if !f.tables.is_empty() => report.push(Violation::new(
                "sarg-pushdown",
                format!("{label}/root"),
                format!("block_filters holds factor #{i} that references local tables"),
            )),
            _ => {}
        }
    }

    // ---- Table 1: selectivities finite and in [0, 1] --------------------
    let sel = Selectivity::new(catalog, &plan.query);
    for (i, f) in plan.query.factors.iter().enumerate() {
        report.checks += 1;
        let s = sel.factor(f);
        if !s.is_finite() || !(0.0..=1.0).contains(&s) {
            report.push(Violation::new(
                "selectivity-range",
                format!("{label}/factor#{i}"),
                format!("selectivity factor F = {s} outside [0, 1]"),
            ));
        }
    }
    report.checks += 2;
    let qcard = estimate_qcard(catalog, &plan.query);
    if !qcard.is_finite() || qcard < 0.0 {
        report.push(Violation::new(
            "selectivity-range",
            format!("{label}/root"),
            format!("QCARD estimate {qcard} is not a finite non-negative number"),
        ));
    }
    if !plan.predicted.pages.is_finite() || !plan.predicted.rsi.is_finite() {
        report.push(Violation::new(
            "cost-admissible",
            format!("{label}/root"),
            format!("predicted block cost {} is not finite", plan.predicted),
        ));
    }

    // ---- nested blocks --------------------------------------------------
    report.checks += 1;
    if plan.subplans.len() != plan.query.subqueries.len() {
        report.push(Violation::new(
            "plan-wellformed",
            format!("{label}/root"),
            format!(
                "{} subplans for {} subqueries",
                plan.subplans.len(),
                plan.query.subqueries.len()
            ),
        ));
    }
    for (i, sub) in plan.subplans.iter().enumerate() {
        audit_block(catalog, sub, config, &format!("{label}/sub#{i}"), report);
    }
}

/// Per-block audit context.
struct BlockCx<'a> {
    catalog: &'a Catalog,
    query: &'a BoundQuery,
    orders: OrderInfo,
    model: CostModel,
}

impl BlockCx<'_> {
    fn total(&self, p: &PlanExpr) -> f64 {
        self.model.total(p.cost)
    }

    /// Does `col` name a real column of a real FROM-list table?
    fn colid_ok(&self, col: ColId) -> bool {
        self.query
            .tables
            .get(col.table)
            .and_then(|t| self.catalog.relation(t.rel))
            .map(|r| col.col < r.arity())
            .unwrap_or(false)
    }
}

/// Recursive node audit. `available` is the set of tables whose current
/// tuple values an inner scan may reference as probe/SARG operands — the
/// outer sides of every enclosing nested loop.
fn walk(
    cx: &BlockCx<'_>,
    p: &PlanExpr,
    available: TableSet,
    path: &str,
    enforced: &mut [bool],
    report: &mut AuditReport,
) {
    // Cost and cardinality sanity at every node.
    report.checks += 2;
    if !p.cost.pages.is_finite()
        || !p.cost.rsi.is_finite()
        || p.cost.pages < 0.0
        || p.cost.rsi < 0.0
    {
        report.push(Violation::new(
            "cost-admissible",
            path.to_string(),
            format!("cost {} has non-finite or negative components", p.cost),
        ));
    }
    if !p.rows.is_finite() || p.rows < 0.0 {
        report.push(Violation::new(
            "plan-wellformed",
            path.to_string(),
            format!("predicted rows {} is not a finite non-negative number", p.rows),
        ));
    }
    for &(c, _) in &p.order {
        report.checks += 1;
        if !cx.colid_ok(c) {
            report.push(Violation::new(
                "plan-wellformed",
                path.to_string(),
                format!("claimed order column {c} is not bound"),
            ));
        }
    }

    match &p.node {
        PlanNode::Scan(s) => audit_scan(cx, p, s, available, path, enforced, report),
        PlanNode::NestedLoop { outer, inner } => {
            audit_disjoint(outer, inner, path, report);
            report.checks += 2;
            if cx.total(p) + EPS < cx.total(outer) {
                report.push(Violation::new(
                    "cost-admissible",
                    path.to_string(),
                    format!(
                        "nested loop total {} cheaper than its outer input {}",
                        cx.total(p),
                        cx.total(outer)
                    ),
                ));
            }
            if p.order != outer.order {
                report.push(Violation::new(
                    "order-produced",
                    path.to_string(),
                    format!(
                        "nested loop claims order {:?} but its outer produces {:?}",
                        p.order, outer.order
                    ),
                ));
            }
            walk(cx, outer, available, &format!("{path}.outer"), enforced, report);
            walk(
                cx,
                inner,
                available.union(outer.tables()),
                &format!("{path}.inner"),
                enforced,
                report,
            );
        }
        PlanNode::Merge { outer, inner, outer_key, inner_key, residual } => {
            audit_disjoint(outer, inner, path, report);
            report.checks += 2;
            if cx.total(p) + EPS < cx.total(outer) || cx.total(p) + EPS < cx.total(inner) {
                report.push(Violation::new(
                    "cost-admissible",
                    path.to_string(),
                    format!(
                        "merge total {} cheaper than an input ({} / {})",
                        cx.total(p),
                        cx.total(outer),
                        cx.total(inner)
                    ),
                ));
            }
            if p.order != outer.order {
                report.push(Violation::new(
                    "order-produced",
                    path.to_string(),
                    format!(
                        "merge claims order {:?} but its outer produces {:?}",
                        p.order, outer.order
                    ),
                ));
            }
            audit_merge_keys(cx, outer, inner, *outer_key, *inner_key, path, enforced, report);
            for &i in residual {
                report.checks += 1;
                match cx.query.factors.get(i) {
                    None => report.push(Violation::new(
                        "plan-wellformed",
                        path.to_string(),
                        format!("merge residual references factor #{i} out of bounds"),
                    )),
                    Some(f) => {
                        enforced[i] = true;
                        let in_scope = outer.tables().union(inner.tables()).union(available);
                        if !f.tables.is_subset_of(in_scope) {
                            report.push(Violation::new(
                                "sarg-pushdown",
                                path.to_string(),
                                format!(
                                    "merge residual factor #{i} references tables outside the join"
                                ),
                            ));
                        }
                    }
                }
            }
            walk(cx, outer, available, &format!("{path}.outer"), enforced, report);
            walk(cx, inner, available, &format!("{path}.inner"), enforced, report);
        }
        PlanNode::Sort { input, keys, sorted_prefix } => {
            report.checks += 4;
            // §4/§5 partial sort: a claimed sorted prefix must actually be
            // *produced* by the input — the first `sorted_prefix` sort keys
            // must match the input's produced order class-by-class, or the
            // executor's run detection would segment an ungrouped stream
            // and emit misordered rows.
            let sp = *sorted_prefix;
            if sp > 0 {
                let ik = cx.orders.order_key(&input.order);
                let kk = cx.orders.order_key(keys);
                if sp > keys.len() || kk.len() < sp || ik.len() < sp || ik[..sp] != kk[..sp] {
                    report.push(Violation::new(
                        "order-produced",
                        path.to_string(),
                        format!(
                            "sort claims sorted prefix {sp} of {keys:?} but its input produces {:?}",
                            input.order
                        ),
                    ));
                }
            }
            if cx.total(p) + EPS < cx.total(input) {
                report.push(Violation::new(
                    "cost-admissible",
                    path.to_string(),
                    format!(
                        "sort total {} cheaper than its input {}",
                        cx.total(p),
                        cx.total(input)
                    ),
                ));
            }
            if p.order != *keys {
                report.push(Violation::new(
                    "order-produced",
                    path.to_string(),
                    format!("sort by {keys:?} claims order {:?}", p.order),
                ));
            }
            if (p.rows - input.rows).abs() > EPS * (1.0 + input.rows.abs()) {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!("sort changes cardinality: {} in, {} out", input.rows, p.rows),
                ));
            }
            for &(k, _) in keys {
                report.checks += 1;
                if !cx.colid_ok(k) {
                    report.push(Violation::new(
                        "plan-wellformed",
                        path.to_string(),
                        format!("sort key {k} is not bound"),
                    ));
                }
            }
            walk(cx, input, available, &format!("{path}.input"), enforced, report);
        }
    }
}

fn audit_disjoint(outer: &PlanExpr, inner: &PlanExpr, path: &str, report: &mut AuditReport) {
    report.checks += 1;
    let overlap = outer.tables().intersect(inner.tables());
    if !overlap.is_empty() {
        report.push(Violation::new(
            "join-disjoint",
            path.to_string(),
            format!("join inputs share tables {:?}", overlap.iter().collect::<Vec<_>>()),
        ));
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the join node's parts are destructured by the caller's match"
)]
fn audit_merge_keys(
    cx: &BlockCx<'_>,
    outer: &PlanExpr,
    inner: &PlanExpr,
    outer_key: ColId,
    inner_key: ColId,
    path: &str,
    enforced: &mut [bool],
    report: &mut AuditReport,
) {
    report.checks += 4;
    if !cx.colid_ok(outer_key) || !cx.colid_ok(inner_key) {
        report.push(Violation::new(
            "plan-wellformed",
            path.to_string(),
            format!("merge keys {outer_key}={inner_key} are not bound columns"),
        ));
        return;
    }
    if !outer.tables().contains(outer_key.table) || !inner.tables().contains(inner_key.table) {
        report.push(Violation::new(
            "join-disjoint",
            path.to_string(),
            format!("merge keys {outer_key}={inner_key} do not come from their respective sides"),
        ));
    }
    // The merge key must be one of the query's equi-join factors (§5:
    // merging scans apply to equal-join predicates).
    let key_factor = cx.query.factors.iter().position(|f| {
        matches!(f.equijoin, Some((a, b))
            if (a, b) == (outer_key, inner_key) || (b, a) == (outer_key, inner_key))
    });
    match key_factor {
        Some(i) => enforced[i] = true,
        None => report.push(Violation::new(
            "plan-wellformed",
            path.to_string(),
            format!("merge key {outer_key}={inner_key} matches no equi-join factor"),
        )),
    }
    // §4/§5 interesting orders: both inputs must actually arrive in
    // join-column order (same equivalence class counts).
    let outer_ok = cx.orders.leads_with(&cx.orders.order_key(&outer.order), outer_key);
    let inner_ok = cx.orders.leads_with(&cx.orders.order_key(&inner.order), inner_key);
    if !outer_ok || !inner_ok {
        report.push(Violation::new(
            "order-produced",
            path.to_string(),
            format!(
                "merge inputs not ordered on the join key: outer {:?} vs {outer_key}, inner {:?} vs {inner_key}",
                outer.order, inner.order
            ),
        ));
    }
}

fn audit_scan(
    cx: &BlockCx<'_>,
    p: &PlanExpr,
    s: &system_r::core::ScanPlan,
    available: TableSet,
    path: &str,
    enforced: &mut [bool],
    report: &mut AuditReport,
) {
    report.checks += 1;
    let Some(bound) = cx.query.tables.get(s.table) else {
        report.push(Violation::new(
            "plan-wellformed",
            path.to_string(),
            format!("scan references FROM-list table #{} out of bounds", s.table),
        ));
        return;
    };
    let Some(rel) = cx.catalog.relation(bound.rel) else {
        report.push(Violation::new(
            "plan-wellformed",
            path.to_string(),
            format!("scan table {} is not in the catalog", bound.name),
        ));
        return;
    };

    // ---- access path ----------------------------------------------------
    match &s.access {
        Access::Segment => {
            report.checks += 1;
            if !p.order.is_empty() {
                report.push(Violation::new(
                    "order-produced",
                    path.to_string(),
                    format!("segment scan claims order {:?} but produces none", p.order),
                ));
            }
        }
        Access::Index { index, eq_prefix, range, matching } => {
            report.checks += 1;
            let Some(idx) = cx.catalog.index(*index) else {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!("scan references index #{index} not in the catalog"),
                ));
                return;
            };
            report.checks += 4;
            if idx.rel != bound.rel {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!("index {} is on another relation than {}", idx.name, bound.name),
                ));
            }
            let probed = eq_prefix.len() + usize::from(range.is_some());
            if probed > idx.key_cols.len() {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!(
                        "index {} probed on {probed} columns but has only {} key columns",
                        idx.name,
                        idx.key_cols.len()
                    ),
                ));
            }
            // §4: an index scan produces its key-column order, ascending (a
            // prefix of the full key is acceptable; anything else is a
            // fabricated order).
            let key_order_ok = p.order.len() <= idx.key_cols.len()
                && p.order
                    .iter()
                    .zip(&idx.key_cols)
                    .all(|(&(c, desc), &k)| c.table == s.table && c.col == k && !desc);
            if !key_order_ok {
                report.push(Violation::new(
                    "order-produced",
                    path.to_string(),
                    format!(
                        "index scan via {} claims order {:?}, key columns are {:?}",
                        idx.name, p.order, idx.key_cols
                    ),
                ));
            }
            for &m in matching {
                report.checks += 1;
                if m >= cx.query.factors.len() {
                    report.push(Violation::new(
                        "plan-wellformed",
                        path.to_string(),
                        format!("index matching list references factor #{m} out of bounds"),
                    ));
                }
            }
            for op in eq_prefix.iter().chain(range_operands(range)) {
                audit_operand(cx, op, s.table, available, path, report);
            }
        }
    }

    // ---- SARGs: below-RSI placement (§3) --------------------------------
    for sf in &s.sargs {
        report.checks += 1;
        match cx.query.factors.get(sf.factor) {
            None => {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!("sarg references factor #{} out of bounds", sf.factor),
                ));
                continue;
            }
            Some(f) => {
                enforced[sf.factor] = true;
                if !f.tables.is_subset_of(available.union(TableSet::single(s.table))) {
                    report.push(Violation::new(
                        "sarg-pushdown",
                        path.to_string(),
                        format!(
                            "sarg factor #{} references tables not available at this scan",
                            sf.factor
                        ),
                    ));
                }
            }
        }
        for disjunct in &sf.dnf {
            for atom in disjunct {
                report.checks += 1;
                if atom.col >= rel.arity() {
                    report.push(Violation::new(
                        "plan-wellformed",
                        path.to_string(),
                        format!("sarg atom column #{} exceeds {}'s arity", atom.col, bound.name),
                    ));
                }
                audit_operand(cx, &atom.operand, s.table, available, path, report);
            }
        }
    }

    // ---- residual factors (above the RSI at this scan) ------------------
    for &i in &s.residual {
        report.checks += 1;
        match cx.query.factors.get(i) {
            None => report.push(Violation::new(
                "plan-wellformed",
                path.to_string(),
                format!("scan residual references factor #{i} out of bounds"),
            )),
            Some(f) => {
                enforced[i] = true;
                if !f.tables.is_subset_of(available.union(TableSet::single(s.table))) {
                    report.push(Violation::new(
                        "sarg-pushdown",
                        path.to_string(),
                        format!(
                            "residual factor #{i} references tables not available at this scan"
                        ),
                    ));
                }
            }
        }
    }
}

fn range_operands(range: &Option<system_r::core::IndexRange>) -> impl Iterator<Item = &Operand> {
    range
        .iter()
        .flat_map(|r| [r.lower.as_ref().map(|(o, _)| o), r.upper.as_ref().map(|(o, _)| o)])
        .flatten()
}

/// A probe/SARG operand is resolvable below the RSI only if its value is
/// fixed per scan invocation: a literal, an outer-block reference, a
/// non-correlated scalar subquery, or a column of an *available* table.
fn audit_operand(
    cx: &BlockCx<'_>,
    op: &Operand,
    table: usize,
    available: TableSet,
    path: &str,
    report: &mut AuditReport,
) {
    report.checks += 1;
    match op {
        Operand::Lit(_) | Operand::Outer { .. } => {}
        Operand::Col(c) => {
            if c.table == table || !available.contains(c.table) {
                report.push(Violation::new(
                    "sarg-pushdown",
                    path.to_string(),
                    format!("probe operand {c} is not available below this scan's RSI boundary"),
                ));
            } else if !cx.colid_ok(*c) {
                report.push(Violation::new(
                    "plan-wellformed",
                    path.to_string(),
                    format!("probe operand column {c} is not bound"),
                ));
            }
        }
        Operand::Subquery(i) => match cx.query.subqueries.get(*i) {
            None => report.push(Violation::new(
                "plan-wellformed",
                path.to_string(),
                format!("probe operand references subquery #{i} out of bounds"),
            )),
            Some(def) if def.correlated => report.push(Violation::new(
                "sarg-pushdown",
                path.to_string(),
                format!("correlated subquery #{i} used as a SARG operand (not fixed per scan)"),
            )),
            _ => {}
        },
    }
}

/// Audit the enumerator's search traces: the §5 accounting identity
/// `pruned + surviving == generated` per subset, plus totals and entry
/// sanity.
pub fn audit_traces(traces: &[(String, SearchTrace)], label: &str) -> AuditReport {
    let mut report = AuditReport::default();
    for (block, trace) in traces {
        let loc = format!("{label}/{block}");
        for s in &trace.subsets {
            report.checks += 2;
            if s.pruned + s.surviving != s.generated {
                report.push(Violation::new(
                    "trace-accounting",
                    loc.clone(),
                    format!(
                        "subset {{{}}}: pruned {} + surviving {} != generated {}",
                        s.tables.join(", "),
                        s.pruned,
                        s.surviving,
                        s.generated
                    ),
                ));
            }
            if s.surviving as usize > s.entries.len() || (!s.entries.is_empty() && s.surviving == 0)
            {
                report.push(Violation::new(
                    "trace-accounting",
                    loc.clone(),
                    format!(
                        "subset {{{}}}: {} surviving plans vs {} solution slots",
                        s.tables.join(", "),
                        s.surviving,
                        s.entries.len()
                    ),
                ));
            }
            for e in &s.entries {
                report.checks += 1;
                if !e.total.is_finite() || e.total < 0.0 || !e.rows.is_finite() || e.rows < 0.0 {
                    report.push(Violation::new(
                        "trace-accounting",
                        loc.clone(),
                        format!(
                            "entry {} has non-finite cost {} or rows {}",
                            e.shape, e.total, e.rows
                        ),
                    ));
                }
            }
        }
        report.checks += 2;
        if trace.generated() != trace.stats.plans_considered {
            report.push(Violation::new(
                "trace-accounting",
                loc.clone(),
                format!(
                    "per-subset generated sum {} != plans_considered {}",
                    trace.generated(),
                    trace.stats.plans_considered
                ),
            ));
        }
        let slots: u64 = trace.subsets.iter().map(|s| s.entries.len() as u64).sum();
        if slots != trace.stats.plans_kept {
            report.push(Violation::new(
                "trace-accounting",
                loc.clone(),
                format!("solution slots {} != plans_kept {}", slots, trace.stats.plans_kept),
            ));
        }
    }
    report
}

/// Audit executor trace handoff: per-node measurements must use valid
/// pre-order node ids and their disjoint I/O windows must sum exactly to
/// the whole-query [`IoStats`] delta (the `EXPLAIN ANALYZE` identity).
///
/// The identity assumes single-session execution: the tracer windows
/// are deltas of database-global counters, so only call this on a trace
/// captured without concurrent sessions (as [`crate::audit`] does — it
/// runs its own traced execution on the caller's thread and is only
/// exact when nothing else is being served meanwhile).
pub fn audit_measurements(
    measurements: &HashMap<usize, NodeMeasurement>,
    total_nodes: usize,
    delta: &IoStats,
    label: &str,
) -> AuditReport {
    let mut report = AuditReport::default();
    for (&id, m) in measurements {
        report.checks += 1;
        if id >= total_nodes {
            report.push(Violation::new(
                "exec-accounting",
                format!("{label}/node#{id}"),
                format!("measurement for node id {id} but the plan has {total_nodes} nodes"),
            ));
        }
        if m.invocations == 0 {
            report.push(Violation::new(
                "exec-accounting",
                format!("{label}/node#{id}"),
                "measured node with zero invocations".to_string(),
            ));
        }
    }
    report.checks += 1;
    let summed = system_r::executor::sum_node_io(measurements.values());
    if summed != *delta {
        report.push(Violation::new(
            "exec-accounting",
            label.to_string(),
            format!("per-node I/O sums to {summed} but the whole-query delta is {delta}"),
        ));
    }
    report
}

/// Pre-order node ids of the scan leaves in `expr`, using the same
/// numbering as the tracer (node, then outer subtree, then inner).
fn scan_node_ids(expr: &PlanExpr, next: &mut usize, out: &mut Vec<usize>) {
    let id = *next;
    *next += 1;
    match &expr.node {
        PlanNode::Scan(_) => out.push(id),
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            scan_node_ids(outer, next, out);
            scan_node_ids(inner, next, out);
        }
        PlanNode::Sort { input, .. } => scan_node_ids(input, next, out),
    }
}

/// Audit the batched executor's row/fetch identities on a traced run —
/// the properties `next_batch` must preserve versus tuple-at-a-time
/// execution (`exec-accounting` rule, see DESIGN.md §13):
///
/// * **row count** — the root node's measured rows equal the delivered
///   result rows (checked only when no aggregation/DISTINCT collapses
///   rows above the plan tree);
/// * **fetch sum** — per-node RSI calls and page fetches each sum to the
///   whole-query delta (the component form of the `EXPLAIN ANALYZE`
///   identity: a batch must charge per *returned tuple*, never per
///   batch);
/// * **scan discipline** — no scan leaf of the main block emits more
///   rows than RSI calls charged to its own window (residual predicates
///   can only narrow a batch).
pub fn audit_exec_identities(
    measurements: &HashMap<usize, NodeMeasurement>,
    plan: &QueryPlan,
    result_rows: u64,
    delta: &IoStats,
    label: &str,
) -> AuditReport {
    let mut report = AuditReport::default();
    let q = &plan.query;
    if !q.aggregated && !q.distinct {
        report.checks += 1;
        let root_rows = measurements.get(&0).map_or(0, |m| m.rows);
        if root_rows != result_rows {
            report.push(Violation::new(
                "exec-accounting",
                label.to_string(),
                format!("root node produced {root_rows} rows but {result_rows} were delivered"),
            ));
        }
    }
    report.checks += 2;
    let rsi_sum: u64 = measurements.values().map(|m| m.io.rsi_calls).sum();
    if rsi_sum != delta.rsi_calls {
        report.push(Violation::new(
            "exec-accounting",
            label.to_string(),
            format!("per-node RSI calls sum to {rsi_sum}, whole-query delta {}", delta.rsi_calls),
        ));
    }
    let fetch_sum: u64 = measurements.values().map(|m| m.io.page_fetches()).sum();
    if fetch_sum != delta.page_fetches() {
        report.push(Violation::new(
            "exec-accounting",
            label.to_string(),
            format!(
                "per-node page fetches sum to {fetch_sum}, whole-query delta {}",
                delta.page_fetches()
            ),
        ));
    }
    let mut scans = Vec::new();
    scan_node_ids(&plan.root, &mut 0, &mut scans);
    for id in scans {
        report.checks += 1;
        if let Some(m) = measurements.get(&id) {
            if m.rows > m.io.rsi_calls {
                report.push(Violation::new(
                    "exec-accounting",
                    format!("{label}/node#{id}"),
                    format!(
                        "scan emitted {} rows but charged only {} RSI calls",
                        m.rows, m.io.rsi_calls
                    ),
                ));
            }
        }
    }
    report
}
