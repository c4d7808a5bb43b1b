//! Plan-choice behavior: the optimizer must reproduce the qualitative
//! decisions the paper's cost model implies.

mod common;

use common::fig1_db;
use sysr_audit::workloads::scatter;
use system_r::core::{Access, PlanExpr, PlanNode, QueryPlan};
use system_r::rss::RsiScan;
use system_r::{tuple, Config, Database};

fn scan_access(plan: &QueryPlan) -> &Access {
    let PlanNode::Scan(s) = &plan.root.node else {
        panic!("expected a scan root: {:?}", plan.root)
    };
    &s.access
}

fn find_join(plan: &PlanExpr) -> Option<&'static str> {
    match &plan.node {
        PlanNode::NestedLoop { .. } => Some("nested-loop"),
        PlanNode::Merge { .. } => Some("merge"),
        PlanNode::Sort { input, .. } => find_join(input),
        PlanNode::Scan(_) => None,
    }
}

#[test]
fn selective_predicate_uses_index_unselective_scans() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..20_000).map(|i| tuple![i, i % 4, format!("pad-{i:035}")])).unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("CREATE INDEX T_GRP ON T (GRP)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();

    // K = const matches a unique index: always the index.
    let plan = db.plan("SELECT PAD FROM T WHERE K = 17").unwrap();
    assert!(matches!(scan_access(&plan), Access::Index { .. }), "{}", plan.explain(db.catalog()));

    // GRP = const selects 1/4 of 20k rows through a non-clustered index:
    // the segment scan is cheaper than ~5000 scattered data-page fetches.
    let plan = db.plan("SELECT PAD FROM T WHERE GRP = 2").unwrap();
    assert!(matches!(scan_access(&plan), Access::Segment), "{}", plan.explain(db.catalog()));
}

#[test]
fn clustering_flips_the_choice() {
    // Same query, same statistics shape — but the index is clustered, so
    // F * (NINDX + TCARD) beats the full segment scan.
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..20_000).map(|i| tuple![i, i % 4, format!("pad-{i:035}")])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_GRP ON T (GRP)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let plan = db.plan("SELECT PAD FROM T WHERE GRP = 2").unwrap();
    assert!(
        matches!(scan_access(&plan), Access::Index { .. }),
        "clustered index must win: {}",
        plan.explain(db.catalog())
    );
}

#[test]
fn range_scan_uses_clustered_index_bounds() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..10_000).map(|i| tuple![i, format!("p{i:038}")])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let plan = db.plan("SELECT PAD FROM T WHERE K BETWEEN 100 AND 150").unwrap();
    let Access::Index { range, .. } = scan_access(&plan) else {
        panic!("{}", plan.explain(db.catalog()))
    };
    assert!(range.is_some(), "BETWEEN must become start/stop keys");
    // Execute and confirm the scan touched only a sliver of the relation.
    db.reset_io_stats();
    db.evict_buffers().unwrap();
    let r = db.query("SELECT PAD FROM T WHERE K BETWEEN 100 AND 150").unwrap();
    assert_eq!(r.len(), 51);
    let io = db.io_stats();
    let total_pages = db.catalog().relation_by_name("T").unwrap().stats.tcard;
    assert!(
        io.data_page_fetches < total_pages / 10,
        "range scan must touch a small fraction: {} of {total_pages}",
        io.data_page_fetches
    );
}

#[test]
fn interesting_order_avoids_sort_when_cheap() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..5000).map(|i| tuple![i, format!("p{i:038}")])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    // Clustered index delivers K order for free; no Sort node expected.
    let plan = db.plan("SELECT K FROM T ORDER BY K").unwrap();
    assert!(
        !matches!(plan.root.node, PlanNode::Sort { .. }),
        "clustered index order should be used: {}",
        plan.explain(db.catalog())
    );
    // DESC cannot come from our ascending scans; the executor sorts, and
    // results must still be correct.
    let r = db.query("SELECT K FROM T WHERE K < 5 ORDER BY K DESC").unwrap();
    assert_eq!(common::int_column(&r.rows, 0), vec![4, 3, 2, 1, 0]);
}

#[test]
fn join_method_crossover_with_outer_size() {
    // Inner relation with an index on the join column. A tiny restricted
    // outer probes it (nested loops); an unrestricted large outer makes
    // rescanning too expensive relative to merging.
    let build = |n_outer: i64, filter: &str| -> &'static str {
        let mut db = Database::new();
        db.execute("CREATE TABLE OUTR (K INTEGER, TAG INTEGER, PAD VARCHAR(30))").unwrap();
        db.execute("CREATE TABLE INNR (K INTEGER, PAD VARCHAR(30))").unwrap();
        db.insert_rows(
            "OUTR",
            (0..n_outer).map(|i| tuple![i % 1000, i % 100, format!("o{i:027}")]),
        )
        .unwrap();
        db.insert_rows("INNR", (0..20_000i64).map(|i| tuple![i % 1000, format!("i{i:027}")]))
            .unwrap();
        db.execute("CREATE INDEX INNR_K ON INNR (K)").unwrap();
        // The TAG index exists for its ICARD statistic: without it the
        // TAG filter gets the 1/10 default instead of its true 1/100.
        db.execute("CREATE INDEX OUTR_TAG ON OUTR (TAG)").unwrap();
        db.execute("UPDATE STATISTICS").unwrap();
        let sql = format!("SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K {filter}");
        let plan = db.plan(&sql).unwrap();
        find_join(&plan.root).expect("join expected")
    };
    // Selective outer: nested loops.
    assert_eq!(build(5000, "AND OUTR.TAG = 7"), "nested-loop");
    // Full large outer against unindexed inner: merge scans win.
    assert_eq!(build(20_000, ""), "merge");
}

#[test]
fn w_weighting_shifts_plan_choice() {
    // For a sargable predicate, SARGs equalize RSI counts across paths, so
    // W cannot flip those choices — W acts where plans differ in tuple
    // traffic. ORDER BY is such a case: the sort alternative reads every
    // tuple twice (scan + temp-list read-back), while the ordered
    // non-clustered index reads each once but fetches far more pages.
    let mut db = Database::with_config(Config { w: 0.0, buffer_pages: 8, ..Config::default() });
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..20_000).map(|i| tuple![scatter(i, 20_000), format!("p{i:037}")]))
        .unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();

    let sql = "SELECT PAD FROM T ORDER BY K";
    let plan_low_w = db.plan(sql).unwrap();
    assert!(
        matches!(plan_low_w.root.node, PlanNode::Sort { .. }),
        "W=0: segment scan + sort (~750 pages) beats the unclustered index (~20k fetches): {}",
        plan_low_w.explain(db.catalog())
    );

    db.set_config(Config { w: 3.0, buffer_pages: 8, ..Config::default() }).unwrap();
    let plan_high_w = db.plan(sql).unwrap();
    assert!(
        matches!(
            &plan_high_w.root.node,
            PlanNode::Scan(s) if matches!(s.access, Access::Index { .. })
        ),
        "W=3: the sort's doubled RSI traffic dominates; the ordered index wins: {}",
        plan_high_w.explain(db.catalog())
    );
}

#[test]
fn fig1_reports_search_statistics() {
    let db = fig1_db(2000, 40, 10);
    let plan = db
        .plan(
            "SELECT NAME FROM EMP, DEPT, JOB
             WHERE TITLE='CLERK' AND LOC='DENVER'
               AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB",
        )
        .unwrap();
    let s = plan.stats;
    assert!(s.subsets_examined >= 6);
    assert!(s.plans_considered > s.plans_kept);
    assert!(s.heuristic_skips > 0, "DEPT-JOB Cartesian extensions must be skipped");
    // "a few thousand bytes" — we are in the same order of magnitude.
    assert!(s.solution_bytes > 0 && s.solution_bytes < 1_000_000, "{}", s.solution_bytes);
}

#[test]
fn sargs_filter_below_the_rsi() {
    // The same result computed twice: the SARG version must cross the RSI
    // far fewer times.
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, PAD VARCHAR(30))").unwrap();
    db.insert_rows("T", (0..10_000).map(|i| tuple![i % 100, format!("x{i:027}")])).unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db.reset_io_stats();
    db.evict_buffers().unwrap();
    let r = db.query("SELECT PAD FROM T WHERE A = 5").unwrap();
    assert_eq!(r.len(), 100);
    let io = db.io_stats();
    assert_eq!(io.rsi_calls, 100, "only matching tuples cross the interface");
    assert!(io.data_page_fetches > 50, "but the whole segment was still read");
}

#[test]
fn probe_values_bound_at_execution() {
    // Nested-loop inner probes use the outer tuple's value: each distinct
    // outer key should open a narrow index range, not rescan the inner.
    let mut db = Database::new();
    db.execute("CREATE TABLE SMALL (K INTEGER)").unwrap();
    db.execute("CREATE TABLE BIG (K INTEGER, PAD VARCHAR(30))").unwrap();
    db.insert_rows("SMALL", (0..5).map(|i| tuple![i * 100])).unwrap();
    db.insert_rows("BIG", (0..50_000i64).map(|i| tuple![i % 1000, format!("p{i:027}")])).unwrap();
    db.execute("CREATE INDEX BIG_K ON BIG (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let plan = db.plan("SELECT SMALL.K FROM SMALL, BIG WHERE SMALL.K = BIG.K").unwrap();
    assert_eq!(find_join(&plan.root), Some("nested-loop"), "{}", plan.explain(db.catalog()));
    db.reset_io_stats();
    db.evict_buffers().unwrap();
    let r = db.query("SELECT SMALL.K FROM SMALL, BIG WHERE SMALL.K = BIG.K").unwrap();
    assert_eq!(r.len(), 5 * 50); // each key appears 50 times in BIG
    let io = db.io_stats();
    let big_pages = db.catalog().relation_by_name("BIG").unwrap().stats.tcard;
    assert!(
        io.data_page_fetches < big_pages,
        "probes must not scan all {big_pages} data pages (got {})",
        io.data_page_fetches
    );
}

#[test]
fn index_only_scan_skips_data_pages_when_enabled() {
    let build = |index_only: bool| {
        let mut db = Database::with_config(Config {
            index_only_scans: index_only,
            buffer_pages: 16,
            ..Config::default()
        });
        db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(60))").unwrap();
        db.insert_rows(
            "T",
            (0..8000).map(|i| tuple![scatter(i, 8000), i % 40, format!("p{i:056}")]),
        )
        .unwrap();
        db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
        db.execute("UPDATE STATISTICS").unwrap();
        db
    };
    // The query touches only K, which the index covers.
    let sql = "SELECT K FROM T WHERE K BETWEEN 100 AND 2000 ORDER BY K";

    let db = build(true);
    let plan = db.plan(sql).unwrap();
    let text = plan.explain(db.catalog());
    assert!(text.contains("INDEX-ONLY"), "{text}");
    db.evict_buffers().unwrap();
    db.reset_io_stats();
    let r = db.query(sql).unwrap();
    assert_eq!(r.len(), 1901);
    assert_eq!(common::int_column(&r.rows, 0)[0], 100);
    let io = db.io_stats();
    assert_eq!(io.data_page_fetches, 0, "index-only scan must not touch data pages");
    assert!(io.index_page_fetches > 0);

    // Off (the paper's behavior): data pages are fetched per tuple.
    let db = build(false);
    let plan = db.plan(sql).unwrap();
    assert!(!plan.explain(db.catalog()).contains("INDEX-ONLY"));
    db.evict_buffers().unwrap();
    db.reset_io_stats();
    let r2 = db.query(sql).unwrap();
    assert_eq!(r2.rows, r.rows, "results identical either way");
    assert!(db.io_stats().data_page_fetches > 0);
}

#[test]
fn index_only_not_used_when_query_needs_other_columns() {
    let mut db = Database::with_config(Config { index_only_scans: true, ..Config::default() });
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(30))").unwrap();
    db.insert_rows("T", (0..2000).map(|i| tuple![i, format!("p{i:027}")])).unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    // PAD is not in the key: must fetch data pages.
    let plan = db.plan("SELECT PAD FROM T WHERE K = 7").unwrap();
    assert!(!plan.explain(db.catalog()).contains("INDEX-ONLY"));
    let r = db.query("SELECT PAD FROM T WHERE K = 7").unwrap();
    assert_eq!(r.rows[0][0].as_str().unwrap(), format!("p{:027}", 7));
}

#[test]
fn segment_scan_via_rss_matches_tcard() {
    // Direct RSS-level check that the executor's accounting equals the
    // statistic the optimizer uses.
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, PAD VARCHAR(30))").unwrap();
    db.insert_rows("T", (0..5000).map(|i| tuple![i, format!("p{i:027}")])).unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let rel = db.catalog().relation_by_name("T").unwrap();
    let (tcard, seg, rel_id) = (rel.stats.tcard, rel.segment, rel.id);
    db.reset_io_stats();
    db.evict_buffers().unwrap();
    let mut scan = system_r::rss::SegmentScan::open(
        db.storage(),
        seg,
        rel_id,
        system_r::rss::SargExpr::always_true(),
    );
    let n = scan.collect_all().unwrap().len();
    assert_eq!(n, 5000);
    assert_eq!(db.io_stats().data_page_fetches, tcard);
}
