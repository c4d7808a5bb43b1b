//! `EXPLAIN ANALYZE` and optimizer search-trace behavior: the executor's
//! per-node measurements must account for every page fetch and RSI call
//! the query performed, and the enumerator's trace must account for every
//! candidate plan it generated.

mod common;

use common::fig1_db;
use sysr_audit::workloads::{employee_db, FIG1_SQL};
use system_r::core::{Optimizer, PlanExpr, PlanNode};
use system_r::sql::{parse_statement, Statement};
use system_r::{tuple, Database};

/// Queries covering every operator: segment scan, index scan, nested
/// loops, merging scans with sort, uncorrelated and correlated subqueries.
fn coverage_queries() -> Vec<&'static str> {
    vec![
        "SELECT NAME FROM EMP",
        "SELECT NAME FROM EMP WHERE DNO = 3",
        "SELECT NAME FROM EMP ORDER BY DNO",
        FIG1_SQL,
        "SELECT EMP.NAME, DEPT.DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
        "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO",
    ]
}

/// Walk a plan tree with the pre-order id arithmetic, collecting
/// `(id, node)` pairs.
fn collect_nodes<'a>(plan: &'a PlanExpr, id: usize, out: &mut Vec<(usize, &'a PlanExpr)>) {
    out.push((id, plan));
    match &plan.node {
        PlanNode::Scan(_) => {}
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            collect_nodes(outer, plan.outer_child_id(id).unwrap(), out);
            collect_nodes(inner, plan.inner_child_id(id).unwrap(), out);
        }
        PlanNode::Sort { input, .. } => {
            collect_nodes(input, plan.outer_child_id(id).unwrap(), out);
        }
    }
}

#[test]
fn per_node_io_sums_to_whole_query_delta() {
    let db = fig1_db(2000, 50, 5);
    for sql in coverage_queries() {
        let plan = db.plan(sql).unwrap();
        let (_, measurements, delta) = db.execute_plan_traced(&plan).unwrap();
        let mut sum = system_r::rss::IoStats::default();
        for m in measurements.values() {
            sum += m.io;
        }
        assert_eq!(sum, delta, "per-node I/O must partition the delta: {sql}");
        assert!(delta.rsi_calls > 0, "query should have touched tuples: {sql}");
    }
}

#[test]
fn per_node_io_sums_to_delta_with_subqueries() {
    let db = employee_db(500, 7).unwrap();
    for sql in [
        "SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)",
        "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
           (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)",
        "SELECT NAME FROM EMPLOYEE WHERE DEPARTMENT_NUMBER IN
           (SELECT DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION = 'DENVER')",
    ] {
        let plan = db.plan(sql).unwrap();
        let (_, measurements, delta) = db.execute_plan_traced(&plan).unwrap();
        let mut sum = system_r::rss::IoStats::default();
        for m in measurements.values() {
            sum += m.io;
        }
        assert_eq!(sum, delta, "subquery I/O must land on subquery node ids: {sql}");
        // The subquery block's nodes occupy ids past the root tree and
        // must have been measured.
        let base = plan.subplan_base(0, 0);
        assert_eq!(base, plan.root.node_count());
        assert!(
            measurements.keys().any(|&id| id >= base),
            "no measurement on subquery nodes: {sql}"
        );
    }
}

#[test]
fn row_counts_internally_consistent() {
    let db = fig1_db(2000, 50, 5);
    for sql in coverage_queries() {
        let plan = db.plan(sql).unwrap();
        let (result, measurements, _) = db.execute_plan_traced(&plan).unwrap();
        let mut nodes = Vec::new();
        collect_nodes(&plan.root, 0, &mut nodes);
        for (id, p) in &nodes {
            let m = measurements.get(id).copied().unwrap_or_default();
            match &p.node {
                PlanNode::NestedLoop { inner, .. } => {
                    // The inner scan opens once per outer row.
                    let outer_id = p.outer_child_id(*id).unwrap();
                    let inner_id = p.inner_child_id(*id).unwrap();
                    let outer_m = measurements[&outer_id];
                    let inner_m = measurements.get(&inner_id).copied().unwrap_or_default();
                    assert_eq!(
                        inner_m.invocations, outer_m.rows,
                        "NL inner loops == outer rows: {sql}"
                    );
                    let _ = inner;
                }
                PlanNode::Sort { .. } => {
                    // Sort reorders, never filters.
                    let input_m = measurements[&p.outer_child_id(*id).unwrap()];
                    assert_eq!(m.rows, input_m.rows, "sort preserves rows: {sql}");
                }
                _ => {}
            }
        }
        // A non-aggregated block without DISTINCT emits the root's rows.
        if !plan.query.aggregated && !plan.query.distinct {
            assert_eq!(
                measurements[&0].rows as usize,
                result.rows.len(),
                "root rows must match the result: {sql}"
            );
        }
    }
}

#[test]
fn traced_execution_matches_untraced_results() {
    let db = fig1_db(1000, 20, 5);
    for sql in coverage_queries() {
        let plan = db.plan(sql).unwrap();
        let plain = db.execute_plan(&plan).unwrap();
        let (traced, _, _) = db.execute_plan_traced(&plan).unwrap();
        assert_eq!(plain.rows, traced.rows, "tracing must not change results: {sql}");
    }
}

#[test]
fn explain_analyze_renders_fig1_join() {
    let db = fig1_db(2000, 50, 5);
    let text = db.explain_analyze(FIG1_SQL).unwrap();
    assert!(text.contains("#0 "), "{text}");
    assert!(text.contains("NESTED LOOP JOIN") || text.contains("MERGE JOIN"), "{text}");
    assert!(text.contains("actual rows="), "{text}");
    assert!(text.contains("predicted:"), "{text}");
    assert!(text.contains("measured:"), "{text}");
    // All three relations appear as scans.
    for t in ["EMP", "DEPT", "JOB"] {
        assert!(text.contains(&format!("SCAN {t}")), "missing {t} scan:\n{text}");
    }
}

#[test]
fn explain_analyze_single_table_shapes() {
    let db = fig1_db(2000, 50, 5);
    // Segment scan: no usable predicate.
    let text = db.explain_analyze("SELECT NAME FROM EMP").unwrap();
    assert!(text.contains("SEGMENT SCAN EMP"), "{text}");
    // Matching index scan: equal predicate on the indexed column.
    let text = db.explain_analyze("SELECT NAME FROM EMP WHERE DNO = 3").unwrap();
    assert!(text.contains("INDEX SCAN EMP via EMP_DNO"), "{text}");
    assert!(text.contains("loops=1"), "{text}");
}

#[test]
fn explain_analyze_correlated_subquery_reports_loops() {
    let db = employee_db(500, 7).unwrap();
    let text = db
        .explain_analyze(
            "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
               (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)",
        )
        .unwrap();
    assert!(text.contains("subquery #0 (correlated scalar)"), "{text}");
    // Memoization caps evaluations at the number of distinct managers
    // (500/7 → 72 distinct values), but it must run more than once.
    let sub_line = text.lines().find(|l| l.contains("#1 ")).expect("subquery node line");
    let loops: u64 = sub_line
        .split("loops=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("loops count");
    assert!(loops > 1, "correlated subquery must re-evaluate: {sub_line}");
    assert!(loops <= 72, "memoization must cap re-evaluation: {sub_line}");
}

/// Pull `temp={fetched}+{written}w` off a rendered node line.
fn temp_io(line: &str) -> (u64, u64) {
    let tail = line.split("temp=").nth(1).expect("temp field");
    let (fetched, rest) = tail.split_once('+').expect("temp format");
    let written = rest.split('w').next().expect("temp format");
    (fetched.parse().unwrap(), written.parse().unwrap())
}

#[test]
fn explain_analyze_partial_sort_golden() {
    // EMP clustered on DNO: the DNO index scan produces the (DNO) prefix
    // of ORDER BY DNO, SAL, so the optimizer plans a partial sort whose
    // runs (≈80 rows each) all fit in memory — zero temp I/O. The
    // reversed key order gets no prefix and pays a full external sort.
    let db = common::fig1_clustered_db(4000, 50, 5);

    let prefix = db.explain_analyze("SELECT NAME FROM EMP ORDER BY DNO, SAL").unwrap();
    let sort_line = prefix.lines().find(|l| l.contains("SORT")).expect("sort node");
    assert!(sort_line.contains("SORT (prefix=1)"), "partial sort not planned:\n{prefix}");
    assert_eq!(temp_io(sort_line), (0, 0), "in-memory runs must not spill:\n{prefix}");

    let full = db.explain_analyze("SELECT NAME FROM EMP ORDER BY SAL, DNO").unwrap();
    let sort_line = full.lines().find(|l| l.contains("SORT")).expect("sort node");
    assert!(!sort_line.contains("prefix="), "no prefix exists for (SAL, DNO):\n{full}");
    let (fetched, written) = temp_io(sort_line);
    assert!(written > 0 && fetched == written, "full sort must spill and read back:\n{full}");
}

#[test]
fn order_by_desc_is_a_priced_sort() {
    // No ascending scan produces K DESC: the plan ends in a Sort by K DESC
    // whose cost is part of the prediction, and the sort's temp pages are
    // measured on its own node.
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..5000).map(|i| tuple![i, format!("p{i:038}")])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let sql = "SELECT K FROM T WHERE K < 5 ORDER BY K DESC";

    let plan = db.plan(sql).unwrap();
    let text = plan.explain(db.catalog());
    let PlanNode::Sort { input, sorted_prefix: 0, .. } = &plan.root.node else {
        panic!("DESC must be a full Sort at the root:\n{text}")
    };
    assert!(text.contains("SORT by [t0.c0 DESC]"), "{text}");
    assert!(plan.root.cost.pages > input.cost.pages, "the sort is priced:\n{text}");
    assert_eq!(plan.predicted, plan.root.cost, "the sort's cost is in the prediction");

    let (result, measurements, delta) = db.execute_plan_traced(&plan).unwrap();
    let keys: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(keys, vec![4, 3, 2, 1, 0]);
    let mut sum = system_r::rss::IoStats::default();
    for m in measurements.values() {
        sum += m.io;
    }
    assert_eq!(sum, delta, "per-node I/O, temp pages included, must partition the delta");
    let sort = measurements[&0].io;
    assert!(sort.temp_pages_written > 0, "the sort spills to its temp list: {sort:?}");
    assert_eq!(sort.temp_page_fetches, delta.temp_page_fetches, "temp I/O lands on the sort");

    let analyzed = db.explain_analyze(sql).unwrap();
    let sort_line = analyzed.lines().find(|l| l.contains("SORT")).expect("sort node");
    assert!(sort_line.contains("DESC"), "{analyzed}");
    let (fetched, written) = temp_io(sort_line);
    assert!(written > 0 && fetched == written, "temp I/O on the sort node:\n{analyzed}");
}

#[test]
fn explain_analyze_statement_flows_through_sql() {
    let mut db = fig1_db(1000, 20, 5);
    let r = db.execute("EXPLAIN ANALYZE SELECT NAME FROM EMP WHERE DNO = 3").unwrap();
    assert_eq!(r.columns, vec!["PLAN".to_string()]);
    let text = r.rows[0][0].as_str().unwrap();
    assert!(text.contains("actual rows="), "{text}");
    // Plain EXPLAIN still works and does not execute.
    let r = db.execute("EXPLAIN SELECT NAME FROM EMP WHERE DNO = 3").unwrap();
    assert!(!r.rows[0][0].as_str().unwrap().contains("actual"), "EXPLAIN must not measure");
}

// ---- search trace ----------------------------------------------------------

fn traces_for(db: &Database, sql: &str) -> Vec<(String, system_r::core::SearchTrace)> {
    let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!() };
    let optimizer = Optimizer::with_config(db.catalog(), db.config());
    let (_, traces) = optimizer.optimize_traced(&sel).unwrap();
    traces
}

#[test]
fn search_trace_accounts_for_every_candidate() {
    let db = fig1_db(2000, 50, 5);
    for sql in coverage_queries() {
        for (label, trace) in traces_for(&db, sql) {
            assert_eq!(
                trace.generated(),
                trace.stats.plans_considered,
                "{sql} block {label}: generated must equal plans_considered"
            );
            assert_eq!(
                trace.pruned() + trace.surviving(),
                trace.stats.plans_considered,
                "{sql} block {label}: pruned + surviving must equal considered"
            );
        }
    }
}

#[test]
fn search_trace_levels_cover_the_join() {
    let db = fig1_db(2000, 50, 5);
    let traces = traces_for(&db, FIG1_SQL);
    assert_eq!(traces.len(), 1);
    let trace = &traces[0].1;
    // Three singles and the full set are always present; pairs may be
    // stranded by the Cartesian-deferral heuristic but at least the two
    // connected ones appear.
    assert_eq!(trace.subsets.iter().filter(|s| s.level == 1).count(), 3);
    assert!(trace.subsets.iter().filter(|s| s.level == 2).count() >= 2);
    assert_eq!(trace.subsets.iter().filter(|s| s.level == 3).count(), 1);
    assert!(trace.stats.heuristic_skips > 0);
    let rendered = trace.render();
    assert!(rendered.contains("level 3"), "{rendered}");
    assert!(rendered.contains("{EMP, DEPT, JOB}"), "{rendered}");
    assert!(rendered.contains("\u{22c8}"), "shapes must show join structure: {rendered}");
}

#[test]
fn search_trace_covers_subquery_blocks() {
    let db = employee_db(500, 7).unwrap();
    let traces = traces_for(
        &db,
        "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
           (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)",
    );
    assert_eq!(traces.len(), 2);
    assert_eq!(traces[0].0, "root");
    assert_eq!(traces[1].0, "subquery #0");
    for (label, trace) in &traces {
        assert_eq!(
            trace.pruned() + trace.surviving(),
            trace.stats.plans_considered,
            "block {label}"
        );
    }
}

#[test]
fn facade_search_trace_renders_all_blocks() {
    let db = employee_db(500, 7).unwrap();
    let text = db
        .search_trace("SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)")
        .unwrap();
    assert!(text.contains("== block root =="), "{text}");
    assert!(text.contains("== block subquery #0 =="), "{text}");
    assert!(text.contains("candidates generated"), "{text}");
}

/// The cost model sees DML: a keyed DELETE or UPDATE does exactly the
/// retrieval its EXPLAINed victim scan predicts — one RSI call per
/// affected row, the index descent plus one data page — and nothing
/// proportional to the relation's size.
#[test]
fn keyed_dml_touches_what_its_victim_scan_touches() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER, PAD VARCHAR(30))").unwrap();
    db.insert_rows("T", (0..20_000).map(|i| system_r::tuple![i, i % 97, format!("pad-{i:026}")]))
        .unwrap();
    db.execute("CREATE UNIQUE INDEX TK ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let tcard = db.catalog().relation_by_name("T").unwrap().stats.tcard;
    let index = db.catalog().index_by_name("TK").unwrap().id;
    let height = db.storage().index(index).unwrap().tree.height().unwrap() as u64;
    assert!(tcard > 100, "the relation must dwarf an index probe (TCARD = {tcard})");

    let explain = |db: &mut Database, sql: &str| {
        db.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string()
    };
    // The read side of a cold statement's IoStats delta.
    let cold_reads = |db: &mut Database, sql: &str| {
        db.evict_buffers().unwrap();
        db.reset_io_stats();
        let result = db.execute(sql).unwrap();
        let io = db.io_stats();
        (result, system_r::rss::IoStats { backend_writes: 0, ..io })
    };
    for (dml, key) in
        [("DELETE FROM T WHERE K = 777", 777), ("UPDATE T SET V = V + 1 WHERE K = 4242", 4242)]
    {
        let select = format!("SELECT K, V, PAD FROM T WHERE K = {key}");
        let plan = explain(&mut db, dml);
        assert!(plan.contains("INDEX SCAN") && plan.contains("TK"), "{dml}\n{plan}");
        if dml.starts_with("DELETE") {
            assert_eq!(plan, explain(&mut db, &select));
        }

        let (_, as_select) = cold_reads(&mut db, &select);
        let (result, as_dml) = cold_reads(&mut db, dml);
        assert_eq!(result.rows[0][0].as_int(), Some(1), "{dml}");
        assert_eq!(as_dml.rsi_calls, 1, "one RSI call per affected row: {dml}");
        let touches = as_dml.page_fetches() + as_dml.buffer_hits;
        assert!(touches <= height + 1, "{dml}: {touches} page touches, index height {height}");
        assert_eq!(as_dml, as_select, "{dml} must read what its victim scan reads");
    }
}
