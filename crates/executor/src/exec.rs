//! Plan-tree interpretation: scans, joins, sorts.
//!
//! Scans drain the RSI in batches ([`sysr_rss::MAX_BATCH`] tuples per
//! `next_batch` call) rather than a tuple at a time. Accounting is
//! unaffected — the RSS charges one RSI call per *returned* tuple and
//! touches pages in the same order either way — so every `EXPLAIN
//! ANALYZE` identity holds unchanged; the batching only amortizes the
//! per-call overhead of crossing the RSI boundary.

#![expect(
    clippy::indexing_slicing,
    reason = "plan interpreter: table/factor ids index arrays sized from the same plan; group slices come from an in-bounds scan"
)]

use crate::block::BlockRt;
use crate::error::{ExecError, ExecResult};
use crate::eval::{eval_bexpr, resolve_operand};
use crate::row::{combine, empty_row, flatten, row_value, Row};
use sysr_core::{Access, BExpr, ColId, PlanExpr, PlanNode, ScanPlan};
use sysr_rss::{
    Batch, IndexScan, Rid, RsiScan, SargExpr, SargPred, SegmentScan, TempGuard, TempList, Tuple,
    Value, MAX_BATCH,
};

/// Where a scan's surviving rows go. A SELECT collects bare rows; a DML
/// victim scan keeps each row's RID beside it. The sink is a type
/// parameter, so the SELECT instantiation is the same code as a plain
/// `Vec::push` — `Row` itself never carries a RID.
pub trait RowSink {
    fn reserve(&mut self, additional: usize);
    fn accept(&mut self, rid: Rid, row: Row);
}

impl RowSink for Vec<Row> {
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
    fn accept(&mut self, _rid: Rid, row: Row) {
        self.push(row);
    }
}

impl RowSink for Vec<(Rid, Row)> {
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
    fn accept(&mut self, rid: Rid, row: Row) {
        self.push((rid, row));
    }
}

/// Execute a plan subtree, producing composite rows. `id` is the node's
/// pre-order id within the whole statement plan (see `sysr_core::analyze`);
/// it keys the `EXPLAIN ANALYZE` measurements.
pub fn exec_node(rt: &mut BlockRt<'_>, plan: &PlanExpr, id: usize) -> ExecResult<Vec<Row>> {
    rt.trace_enter(id);
    let result = exec_node_inner(rt, plan, id);
    // Errors abandon the measurement (the caller discards the tracer) and
    // take precedence over any unpaired-exit report.
    let traced = rt.trace_exit(id, result.as_ref().map_or(0, Vec::len));
    let rows = result?;
    traced?;
    Ok(rows)
}

fn exec_node_inner(rt: &mut BlockRt<'_>, plan: &PlanExpr, id: usize) -> ExecResult<Vec<Row>> {
    match &plan.node {
        PlanNode::Scan(scan) => exec_scan(rt, scan, None),
        PlanNode::NestedLoop { outer, inner } => {
            let (outer_id, inner_id) = join_child_ids(plan, id)?;
            let outer_rows = exec_node(rt, outer, outer_id)?;
            let PlanNode::Scan(inner_scan) = &inner.node else {
                return Err(ExecError::Internal("nested-loop inner must be a scan".into()));
            };
            let mut out = Vec::new();
            for orow in &outer_rows {
                // OPEN the inner scan per outer tuple, with probe operands
                // bound from the outer row. The probe itself drains its
                // scan in batches; the per-probe OPEN/CLOSE (and its
                // measurement window) is the paper's join semantics and
                // stays tuple-at-a-time.
                rt.trace_enter(inner_id);
                let matched = exec_scan(rt, inner_scan, Some(orow));
                let traced = rt.trace_exit(inner_id, matched.as_ref().map_or(0, Vec::len));
                out.extend(matched?);
                traced?;
            }
            Ok(out)
        }
        PlanNode::Merge { outer, inner, outer_key, inner_key, residual } => {
            let (outer_id, inner_id) = join_child_ids(plan, id)?;
            let outer_rows = exec_node(rt, outer, outer_id)?;
            let inner_rows = exec_node(rt, inner, inner_id)?;
            debug_assert!(
                crate::row::rows_sorted(&outer_rows, &[(*outer_key, false)]),
                "merge outer must arrive sorted"
            );
            debug_assert!(
                crate::row::rows_sorted(&inner_rows, &[(*inner_key, false)]),
                "merge inner must arrive sorted"
            );
            let plan_ref = rt.plan;
            let residual_exprs: Vec<&BExpr> =
                residual.iter().map(|&f| &plan_ref.query.factors[f].expr).collect();
            let mut out = Vec::new();
            // Synchronized group scan: the inner cursor only moves forward;
            // the current group [gstart, gend) is re-used for equal outer
            // values ("remembering where matching join groups are
            // located").
            let mut gstart = 0usize;
            let mut gend = 0usize;
            let mut gval: Option<Value> = None;
            for orow in &outer_rows {
                let Some(ov) = row_value(orow, *outer_key).cloned() else { continue };
                if ov.is_null() {
                    continue;
                }
                if gval.as_ref() != Some(&ov) {
                    // Advance to the start of the matching group.
                    let mut i = gend.max(gstart);
                    while i < inner_rows.len() {
                        match row_value(&inner_rows[i], *inner_key) {
                            Some(iv) if !iv.is_null() && *iv >= ov => break,
                            _ => i += 1,
                        }
                    }
                    gstart = i;
                    gend = i;
                    while gend < inner_rows.len()
                        && row_value(&inner_rows[gend], *inner_key) == Some(&ov)
                    {
                        gend += 1;
                    }
                    gval = Some(ov.clone());
                }
                for irow in &inner_rows[gstart..gend] {
                    let row = combine(orow, irow);
                    let mut keep = true;
                    for e in &residual_exprs {
                        if !eval_bexpr(rt, &row, e)? {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        PlanNode::Sort { input, keys, sorted_prefix } => {
            let input_id = plan.outer_child_id(id).ok_or_else(|| {
                ExecError::Internal(format!("sort node {id} carries no input child id"))
            })?;
            let rows = exec_node(rt, input, input_id)?;
            exec_sort(rt, rows, keys, *sorted_prefix)
        }
    }
}

/// Order `rows` on `keys`, exploiting the optimizer-proved fact that the
/// input already arrives ordered on the first `sorted_prefix` key columns
/// (the `order-produced` audit invariant re-checks the claim against the
/// input's produced order).
///
/// * `sorted_prefix == keys.len()`: the input order covers the whole key —
///   pass through with zero temp I/O.
/// * `sorted_prefix == 0`: whole-input sort, materialized into a temp list
///   and read back once so the I/O matches `C-sort` plus the consumption
///   of the list. The guard destroys the list on every exit: an error
///   from the read-back used to return before `destroy` and leak the
///   list's buffer frames.
/// * otherwise: **segmented sort** — the input is grouped into runs of
///   equal prefix values, so each run is sorted on the remaining key
///   columns and emitted independently. A run that fits one RSI batch
///   never touches storage; only an oversized run is spilled to its own
///   (run-sized) temp list and read back, so temp I/O is bounded by the
///   largest run instead of the whole input.
fn exec_sort(
    rt: &mut BlockRt<'_>,
    mut rows: Vec<Row>,
    keys: &[ColId],
    sorted_prefix: usize,
) -> ExecResult<Vec<Row>> {
    let prefix = sorted_prefix.min(keys.len());
    debug_assert!(
        {
            let pre: Vec<_> = keys[..prefix].iter().map(|&k| (k, false)).collect();
            crate::row::rows_sorted(&rows, &pre)
        },
        "sort input must arrive ordered on the claimed prefix"
    );
    if prefix == keys.len() {
        return Ok(rows);
    }
    if prefix == 0 {
        crate::row::sort_rows(&mut rows, keys);
        let flat: Vec<Tuple> = rows.iter().map(flatten).collect();
        let temp = TempGuard::new(TempList::materialize(rt.env.storage, flat)?, rt.env.storage);
        let mut scan = temp.list().scan(rt.env.storage);
        while !scan.next_batch(MAX_BATCH)?.is_empty() {}
        return Ok(rows);
    }
    let prefix_keys = &keys[..prefix];
    let rest_keys = &keys[prefix..];
    let mut start = 0usize;
    while start < rows.len() {
        let mut end = start + 1;
        while end < rows.len() && prefix_equal(&rows[start], &rows[end], prefix_keys) {
            end += 1;
        }
        let run = &mut rows[start..end];
        crate::row::sort_rows(run, rest_keys);
        if run.len() > MAX_BATCH {
            // This run alone exceeds sort memory: spill it to a temp
            // list of its own and read it back, same accounting shape
            // as the whole-input path but sized to the run.
            let flat: Vec<Tuple> = run.iter().map(flatten).collect();
            let temp = TempGuard::new(TempList::materialize(rt.env.storage, flat)?, rt.env.storage);
            let mut scan = temp.list().scan(rt.env.storage);
            while !scan.next_batch(MAX_BATCH)?.is_empty() {}
        }
        start = end;
    }
    Ok(rows)
}

/// Whether two rows agree on every listed column (the run-boundary test
/// of the segmented sort). NULL equals NULL here: the prefix columns come
/// from the input's produced order, where equal sort position is what
/// defines a run.
fn prefix_equal(a: &Row, b: &Row, cols: &[ColId]) -> bool {
    cols.iter().all(|&c| row_value(a, c) == row_value(b, c))
}

/// Pre-order child ids of a join node; their absence means the plan tree
/// and the id scheme disagree — an internal error, not a panic.
fn join_child_ids(plan: &PlanExpr, id: usize) -> ExecResult<(usize, usize)> {
    let outer = plan
        .outer_child_id(id)
        .ok_or_else(|| ExecError::Internal(format!("join node {id} carries no outer child id")))?;
    let inner = plan
        .inner_child_id(id)
        .ok_or_else(|| ExecError::Internal(format!("join node {id} carries no inner child id")))?;
    Ok((outer, inner))
}

/// Execute one relation scan. `probe` supplies the outer row for join
/// probe operands (nested-loop inners); standalone scans pass `None`.
pub fn exec_scan(
    rt: &mut BlockRt<'_>,
    scan: &ScanPlan,
    probe: Option<&Row>,
) -> ExecResult<Vec<Row>> {
    let mut out: Vec<Row> = Vec::new();
    scan_into(rt, scan, probe, &mut out)?;
    Ok(out)
}

/// [`exec_scan`] into a caller-supplied sink: every row that survives the
/// SARGs and the residual factors is handed over with its RID.
pub fn scan_into<S: RowSink>(
    rt: &mut BlockRt<'_>,
    scan: &ScanPlan,
    probe: Option<&Row>,
    out: &mut S,
) -> ExecResult<()> {
    let plan = rt.plan;
    let table = &plan.query.tables[scan.table];
    let ntables = plan.query.tables.len();

    // Resolve SARG factors to concrete DNF expressions.
    let mut sargs: Vec<SargExpr> = Vec::with_capacity(scan.sargs.len());
    for sf in &scan.sargs {
        let mut disjuncts = Vec::with_capacity(sf.dnf.len());
        for conj in &sf.dnf {
            let mut preds = Vec::with_capacity(conj.len());
            for atom in conj {
                let value = resolve_operand(rt, probe, &atom.operand)?;
                preds.push(SargPred { col: atom.col, op: atom.op, value });
            }
            disjuncts.push(preds);
        }
        sargs.push(SargExpr { disjuncts });
    }

    // Residual factors above the RSI, borrowed from the plan: a
    // nested-loop probe runs this function once per outer row, and
    // cloning the expressions each time was measurable.
    let residuals: Vec<&BExpr> =
        scan.residual.iter().map(|&f| &plan.query.factors[f].expr).collect();
    let base: Row = probe.cloned().unwrap_or_else(|| empty_row(ntables));

    match &scan.access {
        Access::Segment => {
            let mut s = SegmentScan::open(rt.env.storage, table.segment, table.rel, sargs);
            loop {
                let batch = s.next_batch(MAX_BATCH)?;
                if batch.is_empty() {
                    break;
                }
                attach_batch(rt, &base, scan.table, &residuals, batch, out)?;
            }
        }
        Access::Index { index, eq_prefix, range, index_only, .. } => {
            let mut start: Vec<Value> = Vec::with_capacity(eq_prefix.len() + 1);
            for op in eq_prefix {
                start.push(resolve_operand(rt, probe, op)?);
            }
            let mut stop = start.clone();
            let mut stop_incl = true;
            let mut have_range = false;
            if let Some(r) = range {
                if let Some((op, _incl)) = &r.lower {
                    // Exclusive lower bounds position at the bound and rely
                    // on the SARG to reject equal keys.
                    start.push(resolve_operand(rt, probe, op)?);
                }
                if let Some((op, incl)) = &r.upper {
                    stop.push(resolve_operand(rt, probe, op)?);
                    stop_incl = *incl;
                }
                have_range = true;
            }
            let start_bound = if start.is_empty() { None } else { Some(start) };
            let stop_bound = if stop.is_empty() {
                None
            } else if have_range
                && range.as_ref().is_some_and(|r| r.upper.is_none())
                && eq_prefix.is_empty()
            {
                // Pure lower-bounded range: no stop key.
                None
            } else {
                Some((stop, stop_incl))
            };
            if *index_only {
                // The scan returns bare key tuples: remap SARG column
                // positions onto key positions, then rebuild full-arity
                // tuples with the key columns placed and NULLs elsewhere
                // (the optimizer proved nothing else is referenced).
                let key_cols = rt.env.storage.index(*index)?.key_cols.clone();
                let keypos = |col: usize| -> ExecResult<usize> {
                    key_cols.iter().position(|&k| k == col).ok_or_else(|| {
                        ExecError::Internal(format!(
                            "index-only scan references non-key column {col}"
                        ))
                    })
                };
                let mut remapped = Vec::with_capacity(sargs.len());
                for expr in sargs {
                    let mut disjuncts = Vec::with_capacity(expr.disjuncts.len());
                    for conj in expr.disjuncts {
                        let mut preds = Vec::with_capacity(conj.len());
                        for p in conj {
                            preds.push(sysr_rss::SargPred {
                                col: keypos(p.col)?,
                                op: p.op,
                                value: p.value,
                            });
                        }
                        disjuncts.push(preds);
                    }
                    remapped.push(SargExpr { disjuncts });
                }
                // The relation's true arity, not the key width: guessing
                // `key_cols.len()` here would silently build short tuples
                // whose non-key columns vanish instead of reading NULL.
                let arity =
                    rt.env.catalog.relation(table.rel).map(|r| r.arity()).ok_or_else(|| {
                        ExecError::Internal(format!(
                            "index-only scan over unknown relation {}",
                            table.rel
                        ))
                    })?;
                let mut s =
                    IndexScan::open(rt.env.storage, *index, start_bound, stop_bound, remapped)
                        .index_only();
                loop {
                    let batch = s.next_batch(MAX_BATCH)?;
                    if batch.is_empty() {
                        break;
                    }
                    let widened: Batch = batch
                        .into_iter()
                        .map(|(rid, key_tuple)| {
                            let mut values = vec![Value::Null; arity];
                            for (i, &kc) in key_cols.iter().enumerate() {
                                values[kc] = key_tuple[i].clone();
                            }
                            (rid, Tuple::new(values))
                        })
                        .collect();
                    attach_batch(rt, &base, scan.table, &residuals, widened, out)?;
                }
            } else {
                let mut s = IndexScan::open(rt.env.storage, *index, start_bound, stop_bound, sargs);
                loop {
                    let batch = s.next_batch(MAX_BATCH)?;
                    if batch.is_empty() {
                        break;
                    }
                    attach_batch(rt, &base, scan.table, &residuals, batch, out)?;
                }
            }
        }
    }
    Ok(())
}

/// Attach one RSI batch to the composite row and apply the residual
/// factors above the RSI.
fn attach_batch<S: RowSink>(
    rt: &mut BlockRt<'_>,
    base: &Row,
    table: usize,
    residuals: &[&BExpr],
    batch: Batch,
    out: &mut S,
) -> ExecResult<()> {
    out.reserve(batch.len());
    'tuples: for (rid, tuple) in batch {
        let mut row = base.clone();
        row[table] = Some(tuple);
        for e in residuals {
            if !eval_bexpr(rt, &row, e)? {
                continue 'tuples;
            }
        }
        out.accept(rid, row);
    }
    Ok(())
}
