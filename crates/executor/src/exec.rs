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
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;
use sysr_core::{Access, BExpr, ColId, Operand, PlanExpr, PlanNode, QueryPlan, ScanPlan};
use sysr_rss::codec::encode_value;
use sysr_rss::{
    Batch, IndexId, IndexScan, Rid, RsiScan, SargExpr, SargList, SargPred, SegmentSargs,
    SegmentScan, StopKey, TempGuard, TempList, Tuple, Value, MAX_BATCH,
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
        PlanNode::Scan(scan) => {
            let mut out = Vec::new();
            scan_into(rt, scan, &mut out)?;
            Ok(out)
        }
        PlanNode::NestedLoop { outer, inner } => {
            let (outer_id, inner_id) = join_child_ids(plan, id)?;
            let outer_rows = exec_node(rt, outer, outer_id)?;
            let PlanNode::Scan(inner_scan) = &inner.node else {
                return Err(ExecError::Internal("nested-loop inner must be a scan".into()));
            };
            let mut out = Vec::new();
            if outer_rows.is_empty() {
                return Ok(out);
            }
            // The inner probe is built once per join; each outer row only
            // rebinds its probe operands and moves into the probe, which
            // attaches the inner tuples to it. The per-row OPEN/CLOSE (and
            // its measurement window) is the paper's join semantics and
            // stays tuple-at-a-time; each probe drains its scan in batches.
            // A segment-scan inner remembers each binding's answer.
            let mut probe = ScanProbe::new(rt.plan, inner_scan).remembering();
            for orow in outer_rows {
                rt.trace_enter(inner_id);
                let before = out.len();
                let matched = probe.run(rt, Some(orow), &mut out);
                let traced = rt.trace_exit(inner_id, out.len() - before);
                matched?;
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

/// Order `rows` on `keys` (`(column, descending)` pairs), exploiting the
/// optimizer-proved fact that the input already arrives ordered on the
/// first `sorted_prefix` keys (the `order-produced` audit invariant
/// re-checks the claim against the input's produced order).
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
    keys: &[(ColId, bool)],
    sorted_prefix: usize,
) -> ExecResult<Vec<Row>> {
    let prefix = sorted_prefix.min(keys.len());
    debug_assert!(
        crate::row::rows_sorted(&rows, &keys[..prefix]),
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
fn prefix_equal(a: &Row, b: &Row, keys: &[(ColId, bool)]) -> bool {
    keys.iter().all(|&(c, _)| row_value(a, c) == row_value(b, c))
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

/// Execute one standalone relation scan (no outer row) into a sink: every
/// row that survives the SARGs and the residual factors is handed over
/// with its RID.
pub fn scan_into<S: RowSink>(rt: &mut BlockRt<'_>, scan: &ScanPlan, out: &mut S) -> ExecResult<()> {
    ScanProbe::new(rt.plan, scan).run(rt, None, out)
}

/// One scan node's OPEN arguments, built once per nested-loop join (or
/// standalone scan): the residual factors, the SARG list with its literal
/// operands resolved, and an index scan's start/stop key vectors. Each
/// OPEN rewrites only the operands it binds — outer-row columns,
/// correlation values, subquery results — and the scan hands the SARG
/// list (with its compiled program) and key vectors back at CLOSE for the
/// next OPEN to reuse.
struct ScanProbe<'p> {
    scan: &'p ScanPlan,
    /// Residual factors above the RSI, borrowed from the plan.
    residuals: Vec<&'p BExpr>,
    sargs: SegmentSargs,
    /// Operands bound at OPEN, by (factor, disjunct, predicate) position
    /// in `sargs`.
    sarg_slots: Vec<(usize, usize, usize, &'p Operand)>,
    /// `None` for a segment scan.
    index: Option<IndexProbe<'p>>,
    /// Each binding's answer, for a nested-loop inner segment scan with
    /// an operand bound at OPEN ([`ScanProbe::remembering`]).
    memo: Option<ProbeMemo>,
}

/// The RIDs a segment-scan inner's walk returned, by binding: a repeated
/// binding replays them ([`SegmentScan::reopen`]) instead of running the
/// SARG program over every slot again. The answer depends only on the
/// SARG list, and within one join only the bound operands change, so the
/// key is their encoded bytes — not `Value` equality, which equates
/// `Float(2^53)` with `Int(2^53 + 1)` though they select different rows.
/// The data cannot change under it: a SELECT holds the database shared
/// and DML holds it exclusively. Keys and RIDs live end to end in two
/// arenas, so remembering a binding allocates only when an arena grows.
#[derive(Default)]
struct ProbeMemo {
    keys: Vec<u8>,
    rids: Vec<Rid>,
    entries: Vec<MemoEntry>,
    /// Key hash → the newest entry with that hash.
    heads: HashMap<u64, usize>,
}

struct MemoEntry {
    key: Range<usize>,
    rids: Range<usize>,
    /// The previous entry whose key has the same hash.
    next: Option<usize>,
}

impl ProbeMemo {
    /// Append the bound operands' key to the key arena and look it up:
    /// the remembered RIDs of an equal key, which is dropped again, or
    /// the new key's hash, for [`ProbeMemo::insert`] to index it.
    fn find(&mut self, sargs: &SargList, slots: &[(usize, usize, usize, &Operand)]) -> Found {
        let start = self.keys.len();
        for &(f, d, p, _) in slots {
            encode_value(&sargs.factors[f].disjuncts[d][p].value, &mut self.keys);
        }
        let key = &self.keys[start..];
        let hash = self.heads.hasher().hash_one(key);
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            let entry = &self.entries[i];
            if self.keys[entry.key.clone()] == *key {
                let rids = entry.rids.clone();
                self.keys.truncate(start);
                return Found::Hit(rids);
            }
            at = entry.next;
        }
        Found::Miss { hash, key_start: start, rids_start: self.rids.len() }
    }

    /// Remember the newest key (see [`ProbeMemo::find`]) with the RIDs
    /// recorded after `rids_start`.
    fn insert(&mut self, hash: u64, key_start: usize, rids_start: usize) {
        let next = self.heads.insert(hash, self.entries.len());
        let (key, rids) = (key_start..self.keys.len(), rids_start..self.rids.len());
        self.entries.push(MemoEntry { key, rids, next });
    }
}

enum Found {
    Hit(Range<usize>),
    Miss { hash: u64, key_start: usize, rids_start: usize },
}

/// The index-scan part of a [`ScanProbe`].
struct IndexProbe<'p> {
    id: IndexId,
    start: Option<Vec<Value>>,
    stop: Option<StopKey>,
    /// Key operands bound at OPEN, with their positions in the start
    /// and/or stop key.
    key_slots: Vec<(Option<usize>, Option<usize>, &'p Operand)>,
}

/// A plan-time literal's value; an operand bound at OPEN gets a NULL
/// placeholder until then.
fn literal_value(op: &Operand) -> Value {
    match op {
        Operand::Lit(v) => v.clone(),
        _ => Value::Null,
    }
}

fn bound_at_open(op: &Operand) -> bool {
    !matches!(op, Operand::Lit(_))
}

impl<'p> ScanProbe<'p> {
    fn new(plan: &'p QueryPlan, scan: &'p ScanPlan) -> Self {
        let mut sarg_slots = Vec::new();
        let mut factors = Vec::with_capacity(scan.sargs.len());
        for (f, sf) in scan.sargs.iter().enumerate() {
            let mut disjuncts = Vec::with_capacity(sf.dnf.len());
            for (d, conj) in sf.dnf.iter().enumerate() {
                let mut preds = Vec::with_capacity(conj.len());
                for (p, atom) in conj.iter().enumerate() {
                    if bound_at_open(&atom.operand) {
                        sarg_slots.push((f, d, p, &atom.operand));
                    }
                    preds.push(SargPred {
                        col: atom.col,
                        op: atom.op,
                        value: literal_value(&atom.operand),
                    });
                }
                disjuncts.push(preds);
            }
            factors.push(SargExpr { disjuncts });
        }
        let sargs = SegmentSargs::from(SargList { factors });
        let index = match &scan.access {
            Access::Segment => None,
            Access::Index { index, eq_prefix, range, .. } => {
                let mut key_slots = Vec::new();
                let mut start: Vec<Value> = Vec::with_capacity(eq_prefix.len() + 1);
                for (i, op) in eq_prefix.iter().enumerate() {
                    if bound_at_open(op) {
                        key_slots.push((Some(i), Some(i), op));
                    }
                    start.push(literal_value(op));
                }
                let mut stop = start.clone();
                let mut stop_incl = true;
                let n = eq_prefix.len();
                if let Some(r) = range {
                    if let Some((op, _incl)) = &r.lower {
                        // Exclusive lower bounds position at the bound and
                        // rely on the SARG to reject equal keys.
                        if bound_at_open(op) {
                            key_slots.push((Some(n), None, op));
                        }
                        start.push(literal_value(op));
                    }
                    if let Some((op, incl)) = &r.upper {
                        if bound_at_open(op) {
                            key_slots.push((None, Some(n), op));
                        }
                        stop.push(literal_value(op));
                        stop_incl = *incl;
                    }
                }
                Some(IndexProbe {
                    id: *index,
                    start: (!start.is_empty()).then_some(start),
                    stop: (!stop.is_empty()).then_some((stop, stop_incl)),
                    key_slots,
                })
            }
        };
        let residuals = scan.residual.iter().map(|&f| &plan.query.factors[f].expr).collect();
        ScanProbe { scan, residuals, sargs, sarg_slots, index, memo: None }
    }

    /// Remember each binding's answer when the scan is a segment scan with
    /// an operand bound at OPEN (a nested-loop inner; see [`ProbeMemo`]).
    /// The memo lives as long as the probe, so it holds at most one entry
    /// per outer row and one RID per tuple the inner returned.
    fn remembering(mut self) -> Self {
        if self.index.is_none() && !self.sarg_slots.is_empty() {
            self.memo = Some(ProbeMemo::default());
        }
        self
    }

    /// OPEN the scan with its operands bound from `outer` (a nested-loop
    /// inner's outer row; `None` for a standalone scan), attach every
    /// tuple it returns to `outer`, and apply the residual factors.
    fn run<S: RowSink>(
        &mut self,
        rt: &mut BlockRt<'_>,
        outer: Option<Row>,
        out: &mut S,
    ) -> ExecResult<()> {
        for &(f, d, p, op) in &self.sarg_slots {
            self.sargs.list.factors[f].disjuncts[d][p].value =
                resolve_operand(rt, outer.as_ref(), op)?;
        }
        if let Some(ix) = &mut self.index {
            for &(start_at, stop_at, op) in &ix.key_slots {
                let value = resolve_operand(rt, outer.as_ref(), op)?;
                if let (Some(i), Some(start)) = (start_at, ix.start.as_mut()) {
                    start[i] = value.clone();
                }
                if let (Some(i), Some((stop, _))) = (stop_at, ix.stop.as_mut()) {
                    stop[i] = value;
                }
            }
        }
        let plan = rt.plan;
        let storage = rt.env.storage;
        let table = self.scan.table;
        let base = outer.unwrap_or_else(|| empty_row(plan.query.tables.len()));
        let Some(ix) = &mut self.index else {
            let (seg, rel) = (plan.query.tables[table].segment, plan.query.tables[table].rel);
            let sargs = std::mem::take(&mut self.sargs);
            let residuals = &self.residuals;
            let Some(memo) = &mut self.memo else {
                let mut s = SegmentScan::reopen(storage, seg, rel, sargs, None);
                drain(rt, &mut s, base, table, residuals, out, |_| {})?;
                self.sargs = s.into_sargs();
                return Ok(());
            };
            self.sargs = match memo.find(&sargs.list, &self.sarg_slots) {
                Found::Hit(rids) => {
                    let mut s =
                        SegmentScan::reopen(storage, seg, rel, sargs, Some(&memo.rids[rids]));
                    drain(rt, &mut s, base, table, residuals, out, |_| {})?;
                    s.into_sargs()
                }
                Found::Miss { hash, key_start, rids_start } => {
                    let mut s = SegmentScan::reopen(storage, seg, rel, sargs, None);
                    let record =
                        |batch: &Batch| memo.rids.extend(batch.iter().map(|&(rid, _)| rid));
                    drain(rt, &mut s, base, table, residuals, out, record)?;
                    memo.insert(hash, key_start, rids_start);
                    s.into_sargs()
                }
            };
            return Ok(());
        };
        let sargs = std::mem::take(&mut self.sargs.list);
        let mut s = IndexScan::open(storage, ix.id, ix.start.take(), ix.stop.take(), sargs);
        drain(rt, &mut s, base, table, &self.residuals, out, |_| {})?;
        (ix.start, ix.stop, self.sargs.list) = s.into_parts();
        Ok(())
    }
}

/// Drain an open scan, showing each batch to `tap` (the probe memo
/// records its RIDs there), attaching each tuple in slot `table` of the
/// base row and applying the residual factors above the RSI. A tuple is tested in place in `base`, so a rejected one costs no
/// row copy; the newest accepted one waits there until the next is
/// accepted or the scan ends. Every accepted tuple but the last gets a
/// copy of `base`, and the last takes `base` itself — a probe with one
/// match copies nothing.
fn drain<S: RowSink>(
    rt: &mut BlockRt<'_>,
    scan: &mut impl RsiScan,
    mut base: Row,
    table: usize,
    residuals: &[&BExpr],
    out: &mut S,
    mut tap: impl FnMut(&Batch),
) -> ExecResult<()> {
    let mut pending: Option<Rid> = None;
    loop {
        let batch = scan.next_batch(MAX_BATCH)?;
        if batch.is_empty() {
            break;
        }
        out.reserve(batch.len());
        tap(&batch);
        'tuples: for (rid, tuple) in batch {
            let held = base[table].replace(tuple);
            for e in residuals {
                if !eval_bexpr(rt, &base, e)? {
                    base[table] = held;
                    continue 'tuples;
                }
            }
            if let Some(prev) = pending.replace(rid) {
                let newest = base[table].take();
                let mut row = base.clone();
                row[table] = held;
                out.accept(prev, row);
                base[table] = newest;
            }
        }
    }
    if let Some(rid) = pending {
        out.accept(rid, base);
    }
    Ok(())
}
