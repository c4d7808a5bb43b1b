//! The traced run: every SELECT replayed stage by stage, from outside.
//!
//! Spans are recorded by this file around public calls into each layer —
//! nothing inside the program under test is instrumented. A statement's
//! *root* span covers `Session::plan` followed by `Database::execute_plan`,
//! which is exactly what `Session::query` does. Stages that the facade
//! runs inside those two calls (`parse_statement`, `bind_select`,
//! `Optimizer::optimize_bound`, the scan below the executor) are re-issued
//! in isolation as *probe* spans whose parent is the span they decompose.
//! A span's self time is its duration minus its children's, probes
//! included, so per statement the layers sum to the root span.
//!
//! The run executes a fixed number of cycles (never a time budget), so
//! every count it reports repeats exactly for a given seed.

use crate::json::escape;
use crate::measure::{self, Tally};
use crate::workloads::{Kind, Op, Probe, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use system_r::core::{bind_select, Optimizer, PlanExpr, PlanNode};
use system_r::rss::{
    FileId, IndexScan, IoStats, PageKey, RsiScan, SargExpr, SargList, SargPred, SegmentScan, Value,
    MAX_BATCH,
};
use system_r::sql::{parse_statement, Statement};
use system_r::{Database, DbError, DbResult};

// ---- counting allocator ------------------------------------------------------

/// Counts allocations (alloc + realloc) and bytes while armed; the
/// untraced run never arms it, so it costs one relaxed load there.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    // Statistics only: the counters publish no other data. Load + store
    // instead of a locked add keeps the armed allocator cheap; it is exact
    // because only the benchmark's main thread allocates while armed (the
    // shield thread never allocates in its loop).
    if ARMED.load(Relaxed) {
        ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
        BYTES.store(BYTES.load(Relaxed) + size as u64, Relaxed);
    }
}

// The only work added to the System allocator is relaxed atomic
// arithmetic, which neither allocates nor unwinds.
// SAFETY: every method forwards its arguments unchanged to System, which
// upholds the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's layout goes to System.alloc verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    // SAFETY: the caller's pointer and layout go to System.dealloc verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: pointer, layout and new size go to System.realloc verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

// ---- spans -------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Statement the span belongs to (spans of one statement share it).
    pub stmt: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The same work re-issued in isolation, not nested in wall time.
    pub probe: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of span `id`: its duration minus the durations of the
/// spans it caused, floored at zero. `spans[from..]` must hold every
/// child — a statement's spans are contiguous, so callers pass its root.
pub fn self_nanos(spans: &[Span], from: usize, id: usize) -> u64 {
    let Some(span) = spans.get(id) else { return 0 };
    let later = spans.get(from..).unwrap_or_default();
    let children: u64 = later.iter().filter(|s| s.parent == Some(id)).map(Span::nanos).sum();
    span.nanos().saturating_sub(children)
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span; returns its result and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<usize>,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let (allocs, bytes, start_ns) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed), self.now());
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            stmt,
            parent,
            probe,
            start_ns,
            end_ns,
            allocs: ALLOCS.load(Relaxed) - allocs,
            bytes: BYTES.load(Relaxed) - bytes,
        });
        (out, self.spans.len() - 1)
    }

    fn get(&self, id: usize) -> Option<&Span> {
        self.spans.get(id)
    }
}

// ---- direct rss access -------------------------------------------------------

fn unknown(what: &str) -> DbError {
    DbError::Unsupported(format!("benchmark: {what}"))
}

fn drain(scan: &mut impl RsiScan) -> DbResult<u64> {
    let mut tuples = 0u64;
    loop {
        let batch = scan.next_batch(MAX_BATCH)?;
        if batch.is_empty() {
            return Ok(tuples);
        }
        tuples += batch.len() as u64;
    }
}

/// Issue a template's scan directly against `sysr_rss`.
fn run_probe(db: &Database, probe: &Probe) -> DbResult<u64> {
    let storage = db.storage();
    match probe {
        Probe::IndexEq { index, key } => {
            let id = db.catalog().index_by_name(index)?.id;
            drain(&mut IndexScan::open_eq(storage, id, vec![Value::Int(*key)], SargList::none()))
        }
        Probe::IndexRange { index, lo, hi } => {
            let id = db.catalog().index_by_name(index)?.id;
            let (start, stop) = (vec![Value::Int(*lo)], (vec![Value::Int(*hi)], true));
            drain(&mut IndexScan::open(storage, id, Some(start), Some(stop), SargList::none()))
        }
        Probe::Segment { table, preds } => {
            let rel = db.catalog().relation_by_name(table)?;
            let sargs: Vec<SargExpr> = preds
                .iter()
                .map(|(col, op, value)| SargExpr::single(SargPred::new(*col, *op, value.clone())))
                .collect();
            drain(&mut SegmentScan::open(storage, rel.segment, rel.id, sargs))
        }
    }
}

/// Scan-node OPENs of one traced execution: the nested-loop probe count.
fn scan_opens(
    node: &PlanExpr,
    id: usize,
    measured: &std::collections::HashMap<usize, system_r::core::NodeMeasurement>,
) -> u64 {
    match &node.node {
        PlanNode::Scan(_) => measured.get(&id).map_or(0, |m| m.invocations),
        PlanNode::Sort { input, .. } => scan_opens(input, id + 1, measured),
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            scan_opens(outer, id + 1, measured)
                + scan_opens(inner, id + 1 + outer.node_count(), measured)
        }
    }
}

// ---- the traced run ----------------------------------------------------------

/// Cycles of the untraced and of the traced pass (each), sized so a
/// traced run takes a few seconds; `--smoke` runs one.
fn cycles_for(name: &str, smoke: bool) -> usize {
    if smoke {
        return 1;
    }
    match name {
        "point_hot" => 100,
        "join_hot" => 10,
        "scan_cold" => 3,
        "adhoc_plan" => 100,
        _ => 6,
    }
}

const WARM_CYCLES: usize = 2;
/// Pages touched for `rss.miss_us`, keys probed for `rss.probe_us`.
const DIRECT_SAMPLES: u32 = 256;

#[derive(Default)]
struct Sums {
    selects: u64,
    /// Statements executed, untraced cycles included.
    executed: u64,
    parse_ns: u64,
    parse_allocs: u64,
    hits: u64,
    hit_ns: u64,
    hit_allocs: u64,
    misses: u64,
    miss_ns: u64,
    bind_ns: u64,
    optimize_ns: u64,
    optimize_allocs: u64,
    plans_considered: u64,
    execute_ns: u64,
    execute_allocs: u64,
    /// Execute spans minus their direct-scan probes, where there is one.
    executor_self_ns: u64,
    rows: u64,
    io: IoStats,
    root_ns: u64,
    probes_texts: u64,
    probes: u64,
    inserts: u64,
    insert_ns: u64,
    rescans: u64,
    rescan_ns: u64,
    replans: u64,
    /// Per template, for the human-readable breakdown.
    templates: Vec<TemplateSums>,
}

#[derive(Default, Clone)]
struct TemplateSums {
    selects: u64,
    root_ns: u64,
    execute_ns: u64,
    io: IoStats,
}

pub struct TraceReport {
    pub tally: Tally,
    /// `(name, unit, value)` for every per-layer metric, in declared order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub spans: usize,
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// The two probes that need nothing from the statement's own run: the
/// parse, and the template's scan issued directly. Parents are patched in
/// once the spans they decompose exist.
struct Probes {
    select: system_r::sql::SelectStmt,
    parse_id: usize,
    /// Span and tuple count of the direct scan, for templates that have one.
    scan: Option<(usize, u64)>,
}

fn run_probes(db: &Database, op: &Op, stmt: u64, tr: &mut Tracer) -> DbResult<Probes> {
    let (parsed, parse_id) = tr.span("sql.parse", stmt, None, true, || parse_statement(&op.sql));
    let Statement::Select(select) = parsed? else { return Err(unknown("not a SELECT")) };
    let scan = match &op.probe {
        Some(probe) => {
            let (tuples, id) = tr.span("rss.scan", stmt, None, true, || run_probe(db, probe));
            Some((id, tuples?))
        }
        None => None,
    };
    Ok(Probes { select, parse_id, scan })
}

/// Replay one SELECT stage by stage, recording spans and sums.
///
/// A probe that runs before the statement meets cold CPU caches and
/// leaves them warm for the statement; one that runs after, the reverse.
/// `probes_first` alternates, so over a run neither side is favoured.
#[allow(clippy::too_many_arguments)]
fn replay(
    db: &Database,
    op: &Op,
    stmt: u64,
    probes_first: bool,
    first_cycle: bool,
    tr: &mut Tracer,
    sums: &mut Sums,
    tally: &mut Tally,
) -> DbResult<()> {
    tally.attempted += 1;
    sums.selects += 1;
    // The root span is opened by hand: its two children run back to back.
    let root = tr.spans.len();
    tr.spans.push(Span {
        name: "statement",
        stmt,
        parent: None,
        probe: false,
        start_ns: 0,
        end_ns: 0,
        allocs: 0,
        bytes: 0,
    });
    let before = if probes_first { Some(run_probes(db, op, stmt, tr)?) } else { None };

    let session = db.session();
    let (hits0, _) = db.plan_cache_stats();
    let (plan, plan_id) =
        tr.span("plancache.plan", stmt, Some(root), false, || session.plan(&op.sql));
    let plan = plan?;
    let hit = db.plan_cache_stats().0 > hits0;
    let io0 = db.io_stats();
    let (result, exec_id) =
        tr.span("executor.execute", stmt, Some(root), false, || db.execute_plan(&plan));
    let io = db.io_stats().since(&io0);
    let result = result?;
    if !op.expect.matches(&result) {
        tally.failed += 1;
    }
    let (start_ns, end_ns) = match (tr.get(plan_id), tr.get(exec_id)) {
        (Some(p), Some(e)) => (p.start_ns, e.end_ns),
        _ => (0, 0),
    };
    if let Some(root_span) = tr.spans.get_mut(root) {
        root_span.start_ns = start_ns;
        root_span.end_ns = end_ns;
    }

    let probes = match before {
        Some(probes) => probes,
        None => run_probes(db, op, stmt, tr)?,
    };
    if let Some(parse) = tr.spans.get_mut(probes.parse_id) {
        parse.parent = Some(plan_id);
    }
    if let Some((scan_id, tuples)) = probes.scan {
        if let Some(scan) = tr.spans.get_mut(scan_id) {
            scan.parent = Some(exec_id);
        }
        if tuples != io.rsi_calls {
            // The direct scan is not the scan the executor ran.
            tally.failed += 1;
        }
    }
    // What a miss ran inside `Session::plan`; always probed afterwards,
    // because only the plan call tells a miss from a hit.
    if !hit {
        let catalog = db.catalog();
        let (bound, bind_id) = tr
            .span("core.bind", stmt, Some(plan_id), true, || bind_select(catalog, &probes.select));
        let bound = bound?;
        let optimizer = Optimizer::with_config(catalog, db.config());
        let (replanned, opt_id) = tr
            .span("core.optimize", stmt, Some(plan_id), true, || optimizer.optimize_bound(&bound));
        sums.plans_considered += replanned.stats.plans_considered;
        sums.bind_ns += tr.get(bind_id).map_or(0, Span::nanos);
        sums.optimize_ns += tr.get(opt_id).map_or(0, Span::nanos);
        sums.optimize_allocs += tr.get(opt_id).map_or(0, |s| s.allocs);
    }
    if first_cycle {
        let (_, measured, _) = db.execute_plan_traced(&plan)?;
        sums.probes_texts += 1;
        sums.probes += scan_opens(&plan.root, 0, &measured);
    }

    let parse = tr.get(probes.parse_id).copied();
    let plan_span = tr.get(plan_id).copied();
    let exec = tr.get(exec_id).copied();
    let (Some(parse), Some(plan_span), Some(exec)) = (parse, plan_span, exec) else {
        return Err(unknown("span vanished"));
    };
    sums.parse_ns += parse.nanos();
    sums.parse_allocs += parse.allocs;
    let cache_ns = self_nanos(&tr.spans, root, plan_id);
    if hit {
        sums.hits += 1;
        sums.hit_ns += cache_ns;
        sums.hit_allocs += plan_span.allocs.saturating_sub(parse.allocs);
    } else {
        sums.misses += 1;
        sums.miss_ns += cache_ns;
    }
    sums.execute_ns += exec.nanos();
    sums.executor_self_ns += self_nanos(&tr.spans, root, exec_id);
    sums.execute_allocs += exec.allocs;
    sums.rows += result.len() as u64;
    sums.io += io;
    let root_ns = plan_span.nanos() + exec.nanos();
    sums.root_ns += root_ns;
    if let Some(t) = sums.templates.get_mut(op.template) {
        t.selects += 1;
        t.root_ns += root_ns;
        t.execute_ns += exec.nanos();
        t.io += io;
    }
    Ok(())
}

fn traced_dml(
    db: &mut Database,
    op: &Op,
    stmt: u64,
    tr: &mut Tracer,
    sums: &mut Sums,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let name = match op.kind {
        Kind::Insert => "rss.insert",
        Kind::Update => "rss.update",
        _ => "rss.delete",
    };
    let (result, id) = tr.span(name, stmt, None, false, || db.execute(&op.sql));
    if !result.is_ok_and(|rs| op.expect.matches(&rs)) {
        tally.failed += 1;
    }
    let nanos = tr.get(id).map_or(0, Span::nanos);
    if op.kind == Kind::Insert {
        sums.inserts += 1;
        sums.insert_ns += nanos;
    } else {
        sums.rescans += 1;
        sums.rescan_ns += nanos;
    }
}

/// `(rss.miss_us, rss.scan_ns_per_tuple, rss.probe_us)` from direct,
/// timed calls on the workload's own database.
fn direct_rss(w: &Workload) -> DbResult<(f64, f64, f64)> {
    let db = &w.db;
    let rel = db.catalog().relation_by_name(w.main_table)?;
    let (segment, rel_id) = (rel.segment, rel.id);
    let pages = u32::try_from(db.storage().segment(segment)?.page_count()).unwrap_or(u32::MAX);

    db.evict_buffers()?;
    let t0 = Instant::now();
    let mut missed = 0u32;
    for page in 0..pages.min(DIRECT_SAMPLES) {
        if db.storage().touch(PageKey::new(FileId::Segment(segment), page))? {
            missed += 1;
        }
    }
    let miss_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(missed.max(1));

    let t0 = Instant::now();
    let tuples = drain(&mut SegmentScan::open(db.storage(), segment, rel_id, SargList::none()))?;
    let scan_ns = t0.elapsed().as_secs_f64() * 1e9 / tuples.max(1) as f64;

    let index = db.catalog().index_by_name(w.main_index)?.id;
    let t0 = Instant::now();
    let mut found = 0u64;
    for i in 0..i64::from(DIRECT_SAMPLES) {
        // A fixed stride over the key domain: the same keys every run.
        let key = (i * 7919) % w.main_keys.max(1);
        found += drain(&mut IndexScan::open_eq(
            db.storage(),
            index,
            vec![Value::Int(key)],
            SargList::none(),
        ))?;
    }
    let probe_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(DIRECT_SAMPLES);
    if found == 0 {
        return Err(unknown("direct index probes found nothing"));
    }
    Ok((miss_us, scan_ns, probe_us))
}

/// Run the workload traced and fold the spans into the per-layer metrics.
pub fn run(w: &mut Workload, seed: u64, smoke: bool, trace_file: &Path) -> DbResult<TraceReport> {
    let mut tally = Tally::default();
    let cycles = cycles_for(w.name, smoke);
    for _ in 0..WARM_CYCLES {
        for op in w.next_cycle() {
            measure::timed(&mut w.db, &op, true, &mut tally);
        }
    }

    // Untraced and traced cycles alternate, so the two are compared within
    // one cycle's time of each other (not across this host's speed drifts)
    // and every statement follows the same predecessor in both.
    let mut tr = Tracer { t0: Instant::now(), spans: Vec::with_capacity(cycles * 1024) };
    let mut sums =
        Sums { templates: vec![TemplateSums::default(); w.templates.len()], ..Sums::default() };
    let (mut untraced_ns, mut untraced_selects, mut traced_ns) = (0u64, 0u64, 0u64);
    let io_start = w.db.io_stats();
    let (_, misses_start) = w.db.plan_cache_stats();
    let len_start = w.db.plan_cache_len();
    let mut update_stats_ms = w.setup.update_stats_ms;
    let mut sync_ms = 0.0;
    let mut stmt = 0u64;
    for cycle in 0..cycles {
        for op in w.next_cycle() {
            sums.executed += 1;
            if let Some(nanos) = measure::timed(&mut w.db, &op, true, &mut tally) {
                if op.kind == Kind::Select {
                    untraced_ns += nanos;
                    untraced_selects += 1;
                }
            }
        }
        if cycle == 0 && w.round_maintenance {
            let db = &mut w.db;
            let (result, id) = tr.span("catalog.update_stats", stmt, None, false, || {
                db.execute("UPDATE STATISTICS")
            });
            result?;
            update_stats_ms = tr.get(id).map_or(0.0, |s| s.nanos() as f64 / 1e6);
        }
        let misses_before = w.db.plan_cache_stats().1;
        for op in w.next_cycle() {
            stmt += 1;
            sums.executed += 1;
            ARMED.store(true, Relaxed);
            let t0 = Instant::now();
            if op.kind == Kind::Select {
                let probes_first = (stmt + cycle as u64).is_multiple_of(2);
                replay(&w.db, &op, stmt, probes_first, cycle == 0, &mut tr, &mut sums, &mut tally)?;
                traced_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            } else {
                traced_dml(&mut w.db, &op, stmt, &mut tr, &mut sums, &mut tally);
            }
            ARMED.store(false, Relaxed);
        }
        if cycle == 0 && w.round_maintenance {
            // Plans re-optimized because UPDATE STATISTICS bumped the
            // catalog version under them.
            sums.replans = w.db.plan_cache_stats().1 - misses_before;
        }
    }
    if w.round_maintenance {
        let db = &w.db;
        let (result, id) = tr.span("rss.sync", stmt + 1, None, false, || db.sync());
        result?;
        sync_ms = tr.get(id).map_or(0.0, |s| s.nanos() as f64 / 1e6);
    }
    let io_all = w.db.io_stats().since(&io_start);
    let inserted = w.db.plan_cache_stats().1 - misses_start;
    let grown = w.db.plan_cache_len().saturating_sub(len_start) as u64;
    let evictions = inserted.saturating_sub(grown);

    let (miss_us, scan_ns_per_tuple, probe_us) = direct_rss(w)?;
    write_trace_file(trace_file, w.name, seed, &tr.spans)
        .map_err(|e| unknown(&format!("write {}: {e}", trace_file.display())))?;

    let n = sums.selects;
    let layers_ns = sums.root_ns;
    let untraced_mean = per(untraced_ns, untraced_selects);
    let fetches =
        sums.io.data_page_fetches + sums.io.index_page_fetches + sums.io.temp_page_fetches;
    let us = |ns: u64, n: u64| per(ns, n) / 1e3;
    let metrics = vec![
        ("sql.parse_us", "us", us(sums.parse_ns, n)),
        ("sql.parse_allocs", "count", per(sums.parse_allocs, n)),
        ("plancache.hit_us", "us", us(sums.hit_ns, sums.hits)),
        ("plancache.hit_allocs", "count", per(sums.hit_allocs, sums.hits)),
        ("plancache.miss_us", "us", us(sums.miss_ns, sums.misses)),
        ("plancache.hit_ratio", "ratio", per(sums.hits, n)),
        ("plancache.evictions_per_kstmt", "1/kstmt", per(evictions * 1000, sums.executed)),
        ("plancache.replans", "count", sums.replans as f64),
        ("core.bind_us", "us", us(sums.bind_ns, sums.misses)),
        ("core.optimize_us", "us", us(sums.optimize_ns, sums.misses)),
        ("core.optimize_allocs", "count", per(sums.optimize_allocs, sums.misses)),
        ("core.plans_considered", "count", per(sums.plans_considered, sums.misses)),
        ("executor.execute_us", "us", us(sums.execute_ns, n)),
        ("executor.self_us", "us", us(sums.executor_self_ns, n)),
        ("executor.allocs_per_row", "count", per(sums.execute_allocs, sums.rows)),
        ("executor.rsi_per_row", "ratio", per(sums.io.rsi_calls, sums.rows)),
        ("executor.probes", "count", per(sums.probes, sums.probes_texts)),
        ("rss.fetch_data", "count", per(sums.io.data_page_fetches, n)),
        ("rss.fetch_index", "count", per(sums.io.index_page_fetches, n)),
        ("rss.fetch_temp", "count", per(sums.io.temp_page_fetches, n)),
        ("rss.temp_written", "count", per(sums.io.temp_pages_written, n)),
        ("rss.backend_reads", "count", per(sums.io.backend_reads, n)),
        ("rss.rsi_calls", "count", per(sums.io.rsi_calls, n)),
        ("rss.pool_hit_ratio", "ratio", per(sums.io.buffer_hits, sums.io.buffer_hits + fetches)),
        ("rss.cost_units", "count", sums.io.cost(w.db.config().w) / n.max(1) as f64),
        ("rss.miss_us", "us", miss_us),
        ("rss.scan_ns_per_tuple", "ns", scan_ns_per_tuple),
        ("rss.probe_us", "us", probe_us),
        ("rss.backend_writes", "count", per(io_all.backend_writes, sums.executed)),
        ("rss.insert_us", "us", us(sums.insert_ns, sums.inserts)),
        ("rss.dml_rescan_ms", "ms", us(sums.rescan_ns, sums.rescans) / 1e3),
        ("rss.sync_ms", "ms", sync_ms),
        ("catalog.update_stats_ms", "ms", update_stats_ms),
        ("catalog.open_ms", "ms", w.setup.open_ms),
        ("trace.select_us", "us", us(layers_ns, n)),
        ("trace.untraced_select_us", "us", untraced_mean / 1e3),
        (
            "trace.unattributed_pct",
            "%",
            (untraced_mean - per(layers_ns, n)) / untraced_mean.max(1.0) * 100.0,
        ),
        (
            "trace.overhead_pct",
            "%",
            (traced_ns as f64 / (untraced_ns as f64).max(1.0) - 1.0) * 100.0,
        ),
    ];
    for (name, t) in w.templates.iter().zip(&sums.templates).filter(|(_, t)| t.selects > 0) {
        let fetches = t.io.data_page_fetches + t.io.index_page_fetches + t.io.temp_page_fetches;
        println!(
            "tpl.{name}: {} selects, {:.1} us ({:.1} % in execute), {:.1} backend reads, \
             pool hit ratio {:.4}, {:.1} rsi calls",
            t.selects,
            us(t.root_ns, t.selects),
            per(t.execute_ns * 100, t.root_ns),
            per(t.io.backend_reads, t.selects),
            per(t.io.buffer_hits, t.io.buffer_hits + fetches),
            per(t.io.rsi_calls, t.selects),
        );
    }
    Ok(TraceReport { tally, metrics, spans: tr.spans.len() })
}

fn write_trace_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out =
        format!("{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [\n", escape(workload));
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if id + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"stmt\": {}, \"name\": \"{}\", \"probe\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"bytes\": {}}}{sep}",
            s.stmt, s.name, s.probe, s.start_ns, s.end_ns, s.allocs, s.bytes
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", stmt: 1, parent, probe: false, start_ns, end_ns, allocs: 0, bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_children_and_probes_and_floors_at_zero() {
        let spans = vec![
            span(None, 0, 100),      // 0: root
            span(Some(0), 0, 30),    // 1: plan
            span(Some(0), 30, 100),  // 2: execute
            span(Some(1), 200, 212), // 3: parse probe of plan, outside its interval
            span(Some(2), 300, 390), // 4: scan probe longer than execute
        ];
        assert_eq!(self_nanos(&spans, 0, 0), 0, "root is fully covered by plan + execute");
        assert_eq!(self_nanos(&spans, 0, 1), 18, "30 − 12 of the parse probe");
        assert_eq!(self_nanos(&spans, 0, 2), 0, "a probe longer than its parent floors at zero");
        assert_eq!(self_nanos(&spans, 0, 3), 12);
        assert_eq!(self_nanos(&spans, 0, 9), 0, "unknown span");
        assert_eq!(self_nanos(&spans, 4, 1), 30, "children before `from` are not seen");
        let layers: u64 = (1..4).map(|i| self_nanos(&spans, 0, i)).sum();
        assert_eq!(layers, 30, "plan's layers sum to the plan span");
    }
}
