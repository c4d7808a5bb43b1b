//! Block-level execution: run a [`QueryPlan`], then apply projection,
//! aggregation, DISTINCT, and ORDER BY; manage subquery evaluation with
//! §6's once/memoized discipline.

#![expect(
    clippy::indexing_slicing,
    reason = "block runtime: subquery ids and outer-row depths index parallel arrays sized from the same analyzed plan"
)]

use crate::error::{ExecError, ExecResult};
use crate::eval::{eval_bexpr, eval_grouped_sexpr};
use crate::exec::{exec_node, scan_into};
use crate::result::ResultSet;
use crate::row::{cmp_rows, empty_row, row_value, rows_sorted, Row};
use crate::tracer::ExecTracer;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use sysr_catalog::Catalog;
use sysr_core::{ColId, NodeMeasurement, PlanNode, QueryPlan};
use sysr_rss::codec::encode_value;
use sysr_rss::{Rid, Storage, Tuple, Value};

/// Execution environment: the storage engine and catalogs, plus an
/// optional per-node measurement tracer (`EXPLAIN ANALYZE`).
///
/// One `ExecEnv` belongs to one session's statement execution: the
/// tracer is single-owner state (a plain `RefCell`, no sharing), while
/// `storage` and `catalog` are the shared, `Sync` serving structures
/// many environments may borrow concurrently.
///
/// The tracer's measurement windows are deltas of the database-global
/// I/O counters, so per-node attribution (and the per-node-sums-equal-
/// query-delta identity) is exact only when no other session executes
/// concurrently — see the `tracer` module docs. Run `EXPLAIN ANALYZE`
/// without concurrent load when the numbers must be exact.
pub struct ExecEnv<'a> {
    pub storage: &'a Storage,
    pub catalog: &'a Catalog,
    pub tracer: Option<RefCell<ExecTracer>>,
}

impl<'a> ExecEnv<'a> {
    pub fn new(storage: &'a Storage, catalog: &'a Catalog) -> Self {
        ExecEnv { storage, catalog, tracer: None }
    }

    /// Attach a fresh tracer; harvest it with [`ExecEnv::take_measurements`].
    pub fn with_tracer(storage: &'a Storage, catalog: &'a Catalog) -> Self {
        ExecEnv { storage, catalog, tracer: Some(RefCell::new(ExecTracer::new())) }
    }

    /// Detach the tracer and return what it measured (empty if untraced).
    pub fn take_measurements(&mut self) -> HashMap<usize, NodeMeasurement> {
        match self.tracer.take() {
            Some(cell) => cell.into_inner().into_measurements(),
            None => HashMap::new(),
        }
    }
}

/// A memoized subquery result.
#[derive(Debug, Clone)]
pub enum SubValue {
    /// Single value (NULL when the subquery produced no rows).
    Scalar(Value),
    /// Set of values, "returned in a temporary list … which can only be
    /// accessed sequentially" — here the materialized list's contents.
    Set(std::rc::Rc<Vec<Value>>),
}

/// Per-subquery execution state within one block instance.
#[derive(Debug, Default)]
struct SubState {
    /// Result of an uncorrelated subquery, computed at most once.
    once: Option<SubValue>,
    /// Correlated results memoized by the referenced outer values'
    /// encoded bytes: `Value`'s `Eq` equates `Float(2^53)` with
    /// `Int(2^53 + 1)`, which select different rows.
    memo: HashMap<Vec<u8>, SubValue>,
}

/// Runtime state for executing one query block instance.
pub struct BlockRt<'a> {
    pub env: &'a ExecEnv<'a>,
    pub plan: &'a QueryPlan,
    /// Current rows of enclosing blocks, outermost first (the correlation
    /// context: `Outer { level: 1, .. }` reads the last entry).
    pub outer_stack: Vec<Row>,
    /// Pre-order id of this block's root node (0 for the top block; see
    /// `sysr_core::analyze` for the numbering of nested blocks).
    pub base_id: usize,
    substates: Vec<SubState>,
    /// Free outer references per subquery, precomputed for memo keys.
    free_refs: Vec<Vec<(usize, ColId)>>,
}

impl<'a> BlockRt<'a> {
    fn new(
        env: &'a ExecEnv<'a>,
        plan: &'a QueryPlan,
        outer_stack: Vec<Row>,
        base_id: usize,
    ) -> Self {
        let n = plan.query.subqueries.len();
        let free_refs = plan.query.subqueries.iter().map(|s| s.query.free_outer_refs()).collect();
        BlockRt {
            env,
            plan,
            outer_stack,
            base_id,
            substates: (0..n).map(|_| SubState::default()).collect(),
            free_refs,
        }
    }

    /// Factors referencing no local table are decided once per block
    /// instance: `false` means the block produces no rows at all.
    fn passes_block_filters(&mut self) -> ExecResult<bool> {
        let plan = self.plan;
        let probe = empty_row(plan.query.tables.len());
        for &f in &plan.block_filters {
            if !eval_bexpr(self, &probe, &plan.query.factors[f].expr)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluate the block's select list against one base row.
    fn project(&mut self, row: &Row) -> ExecResult<Tuple> {
        let plan = self.plan;
        let mut values = Vec::with_capacity(plan.query.select.len());
        for (_, e) in &plan.query.select {
            values.push(crate::eval::eval_sexpr(self, row, e)?);
        }
        Ok(Tuple::new(values))
    }

    /// Open a measurement window for plan node `id` (no-op if untraced).
    pub fn trace_enter(&self, id: usize) {
        if let Some(t) = &self.env.tracer {
            t.borrow_mut().enter(id, self.env.storage.io_stats());
        }
    }

    /// Close the window for node `id`, crediting `rows` produced. An
    /// unpaired exit surfaces as an execution error.
    pub fn trace_exit(&self, id: usize, rows: usize) -> ExecResult<()> {
        if let Some(t) = &self.env.tracer {
            t.borrow_mut().exit(id, rows as u64, self.env.storage.io_stats())?;
        }
        Ok(())
    }

    /// Resolve an outer reference from the correlation context. `level` is
    /// relative to *this* block (1 = immediate parent).
    pub fn outer_value(&self, level: usize, col: ColId) -> ExecResult<Value> {
        let idx =
            self.outer_stack.len().checked_sub(level).ok_or_else(|| {
                ExecError::Internal(format!("outer level {level} underflows stack"))
            })?;
        Ok(row_value(&self.outer_stack[idx], col).cloned().unwrap_or(Value::Null))
    }

    /// Evaluate subquery `i` in the context of `current_row`, observing the
    /// §6 discipline: uncorrelated blocks run once; correlated blocks are
    /// memoized per referenced-outer-value combination.
    pub fn eval_subquery(&mut self, i: usize, current_row: &Row) -> ExecResult<SubValue> {
        let def = &self.plan.query.subqueries[i];
        let subplan = &self.plan.subplans[i];
        let sub_base = self.plan.subplan_base(self.base_id, i);
        if !def.correlated {
            if let Some(v) = &self.substates[i].once {
                return Ok(v.clone());
            }
            // The stack extension is irrelevant to an uncorrelated block
            // but keeps deeper nesting uniform.
            let mut stack = self.outer_stack.clone();
            stack.push(current_row.clone());
            let rows = execute_block_at(self.env, subplan, stack, sub_base)?;
            let v = convert_sub_result(rows, def.scalar)?;
            self.substates[i].once = Some(v.clone());
            return Ok(v);
        }
        // Correlated: key on the free outer values as seen from the
        // subquery (level 1 = this block's current row), read from the
        // borrowed rows; the stack is cloned only on a memo miss.
        let mut key = Vec::new();
        for &(level, col) in &self.free_refs[i] {
            let idx = (self.outer_stack.len() + 1).checked_sub(level).ok_or_else(|| {
                ExecError::Internal(format!("correlation level {level} underflows"))
            })?;
            let row =
                if idx == self.outer_stack.len() { current_row } else { &self.outer_stack[idx] };
            encode_value(row_value(row, col).unwrap_or(&Value::Null), &mut key);
        }
        if let Some(v) = self.substates[i].memo.get(&key) {
            return Ok(v.clone());
        }
        let mut stack = self.outer_stack.clone();
        stack.push(current_row.clone());
        let rows = execute_block_at(self.env, subplan, stack, sub_base)?;
        let v = convert_sub_result(rows, def.scalar)?;
        self.substates[i].memo.insert(key, v.clone());
        Ok(v)
    }
}

fn convert_sub_result(rows: Vec<Tuple>, scalar: bool) -> ExecResult<SubValue> {
    if scalar {
        match rows.len() {
            0 => Ok(SubValue::Scalar(Value::Null)),
            1 => Ok(SubValue::Scalar(rows[0][0].clone())),
            n => Err(ExecError::ScalarSubqueryCardinality(n)),
        }
    } else {
        Ok(SubValue::Set(std::rc::Rc::new(rows.into_iter().map(|t| t[0].clone()).collect())))
    }
}

/// Execute a complete statement plan against the environment.
pub fn execute(env: &ExecEnv<'_>, plan: &QueryPlan) -> ExecResult<ResultSet> {
    let rows = execute_block(env, plan, Vec::new())?;
    let columns = plan.query.select.iter().map(|(n, _)| n.clone()).collect();
    Ok(ResultSet::new(columns, rows))
}

/// Execute one query block instance under a correlation context.
pub fn execute_block(
    env: &ExecEnv<'_>,
    plan: &QueryPlan,
    outer_stack: Vec<Row>,
) -> ExecResult<Vec<Tuple>> {
    execute_block_at(env, plan, outer_stack, 0)
}

/// [`execute_block`] with an explicit base node id for tracing (nested
/// blocks occupy id ranges after their parent's tree).
pub fn execute_block_at(
    env: &ExecEnv<'_>,
    plan: &QueryPlan,
    outer_stack: Vec<Row>,
    base_id: usize,
) -> ExecResult<Vec<Tuple>> {
    let mut rt = BlockRt::new(env, plan, outer_stack, base_id);
    let q = &plan.query;

    if !rt.passes_block_filters()? {
        return Ok(Vec::new());
    }

    let mut rows = exec_node(&mut rt, &plan.root, base_id)?;

    if q.aggregated {
        return aggregate_output(&mut rt, rows);
    }

    // ---- ORDER BY (on base rows, before projection) ------------------------
    if !q.order_by.is_empty() && !rows_sorted(&rows, &q.order_by) {
        // Normally the plan already delivers the required order; this is
        // the DESC / defensive path (in-memory, no I/O charged — the
        // optimizer charged no sort either when it believed the order was
        // free).
        rows.sort_by(|a, b| cmp_rows(a, b, &q.order_by));
    }

    // ---- projection ---------------------------------------------------------
    let mut out = Vec::with_capacity(rows.len());
    for row in &rows {
        out.push(rt.project(row)?);
    }

    if q.distinct {
        out = dedup_preserving_order(out);
    }
    Ok(out)
}

/// Execute the victim scan of an UPDATE or DELETE: a single-relation
/// block — block filters, subqueries, residual factors and projection
/// exactly as [`execute_block_at`] runs them — returning each surviving
/// row's RID beside its projected tuple, in access-path order. The whole
/// list is materialized before the caller mutates anything, so the
/// statement sees the pre-statement state throughout.
///
/// "Retrieval for data manipulation is treated similarly" (§1): the root
/// of a DML plan is one scan of the target relation; a plan that sorts,
/// joins, groups or deduplicates has no row-to-RID correspondence and is
/// an internal error.
pub fn execute_victims(env: &ExecEnv<'_>, plan: &QueryPlan) -> ExecResult<Vec<(Rid, Tuple)>> {
    let q = &plan.query;
    let PlanNode::Scan(scan) = &plan.root.node else {
        return Err(ExecError::Internal("DML victim plan must be a single scan".into()));
    };
    if q.aggregated || q.distinct || !q.order_by.is_empty() {
        return Err(ExecError::Internal(
            "DML victim plan cannot aggregate, deduplicate or order".into(),
        ));
    }
    let mut rt = BlockRt::new(env, plan, Vec::new(), 0);
    if !rt.passes_block_filters()? {
        return Ok(Vec::new());
    }
    let mut rows: Vec<(Rid, Row)> = Vec::new();
    scan_into(&mut rt, scan, &mut rows)?;
    rows.iter().map(|(rid, row)| Ok((*rid, rt.project(row)?))).collect()
}

/// Grouped / aggregated output path.
fn aggregate_output(rt: &mut BlockRt<'_>, mut rows: Vec<Row>) -> ExecResult<Vec<Tuple>> {
    // Copy the plan reference out of `rt` so select expressions can be
    // borrowed while `rt` is mutably lent to evaluation.
    let plan = rt.plan;
    let q = &plan.query;
    let group_keys: Vec<(ColId, bool)> = q.group_by.iter().map(|&c| (c, false)).collect();
    if !group_keys.is_empty() && !rows_sorted(&rows, &group_keys) {
        // The plan normally delivers GROUP BY order (interesting order or
        // explicit sort); defensive fallback.
        rows.sort_by(|a, b| cmp_rows(a, b, &group_keys));
    }

    // Partition into groups of equal GROUP BY values. With no GROUP BY the
    // whole input is one group — including the empty input, which still
    // yields one row (COUNT(*) = 0).
    let mut groups: Vec<&[Row]> = Vec::new();
    if group_keys.is_empty() {
        groups.push(&rows[..]);
    } else {
        let mut start = 0;
        for i in 1..=rows.len() {
            if i == rows.len()
                || cmp_rows(&rows[i - 1], &rows[i], &group_keys) != std::cmp::Ordering::Equal
            {
                groups.push(&rows[start..i]);
                start = i;
            }
        }
    }

    // ORDER BY over groups: the validated grammar restricts ORDER BY
    // columns of an aggregated query to GROUP BY columns, so each group's
    // first row carries the key.
    let mut group_list: Vec<&[Row]> = groups;
    if !q.order_by.is_empty() && !group_keys.is_empty() {
        group_list.sort_by(|a, b| cmp_rows(&a[0], &b[0], &q.order_by));
    }

    let mut out = Vec::with_capacity(group_list.len());
    for group in group_list {
        let mut values = Vec::with_capacity(q.select.len());
        for (_, e) in &q.select {
            values.push(eval_grouped_sexpr(rt, group, e)?);
        }
        out.push(Tuple::new(values));
    }
    if q.distinct {
        out = dedup_preserving_order(out);
    }
    Ok(out)
}

/// Execute only the root block's plan tree and report whether the rows
/// it produces arrive sorted on `keys`. This is the audit's
/// executor-side order check: it reads the rows *below* the block
/// layer, whose defensive ORDER BY re-sort above would mask a
/// misordering Sort node — exactly the bug being checked for.
pub fn root_rows_sorted(
    env: &ExecEnv<'_>,
    plan: &QueryPlan,
    keys: &[(ColId, bool)],
) -> ExecResult<bool> {
    let mut rt = BlockRt::new(env, plan, Vec::new(), 0);
    let rows = exec_node(&mut rt, &plan.root, 0)?;
    Ok(rows_sorted(&rows, keys))
}

fn dedup_preserving_order(rows: Vec<Tuple>) -> Vec<Tuple> {
    let mut seen = HashSet::new();
    rows.into_iter().filter(|t| seen.insert(t.clone())).collect()
}
