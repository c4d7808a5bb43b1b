//! Executor-level behavior tests: plan interpretation edge cases driven
//! through hand-built storage/catalog and the optimizer, without the
//! facade crate.

use sysr_catalog::{Catalog, ColumnMeta};
use sysr_core::{bind_select, Optimizer, OptimizerConfig, PlanNode};
use sysr_executor::{execute, ExecEnv};
use sysr_rss::{tuple, ColType, Storage, Tuple, Value};
use sysr_sql::{parse_statement, Statement};

struct Db {
    storage: Storage,
    catalog: Catalog,
}

impl Db {
    fn new() -> Self {
        Db { storage: Storage::new(64), catalog: Catalog::new() }
    }

    fn table(&mut self, name: &str, cols: Vec<(&str, ColType)>, rows: Vec<Tuple>) -> u16 {
        let seg = self.storage.create_segment();
        let rel = self
            .catalog
            .create_relation(
                name,
                seg,
                cols.into_iter().map(|(n, t)| ColumnMeta::new(n, t)).collect(),
            )
            .unwrap();
        for row in rows {
            self.storage.insert(seg, rel, &row).unwrap();
        }
        rel
    }

    fn index(&mut self, name: &str, rel: u16, cols: Vec<usize>, unique: bool) {
        let seg = self.catalog.relation(rel).unwrap().segment;
        let idx = self.storage.create_index(seg, rel, cols.clone(), unique).unwrap();
        self.catalog.register_index(idx, name, rel, cols, unique, false).unwrap();
    }

    fn analyze(&mut self) {
        self.catalog.update_statistics(&self.storage);
    }

    fn run(&self, sql: &str) -> Vec<Tuple> {
        self.run_with(sql, OptimizerConfig::default()).0
    }

    fn run_with(&self, sql: &str, config: OptimizerConfig) -> (Vec<Tuple>, String) {
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else { panic!() };
        let bound = bind_select(&self.catalog, &stmt).unwrap();
        let optimizer = Optimizer::with_config(&self.catalog, config);
        let plan = optimizer.optimize_bound(&bound);
        let env = ExecEnv::new(&self.storage, &self.catalog);
        let result = execute(&env, &plan).unwrap();
        (result.rows, plan.explain(&self.catalog))
    }

    /// Run `sql` traced: its rows and its EXPLAIN ANALYZE text.
    fn run_analyzed(&self, sql: &str) -> (Vec<Tuple>, String) {
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else { panic!() };
        let bound = bind_select(&self.catalog, &stmt).unwrap();
        let config = OptimizerConfig::default();
        let plan = Optimizer::with_config(&self.catalog, config).optimize_bound(&bound);
        let mut env = ExecEnv::with_tracer(&self.storage, &self.catalog);
        let rows = execute(&env, &plan).unwrap().rows;
        let measurements = env.take_measurements();
        (rows, plan.explain_analyze(&self.catalog, &measurements, config.w))
    }
}

fn ints(rows: &[Tuple], col: usize) -> Vec<i64> {
    rows.iter().map(|t| t[col].as_int().unwrap()).collect()
}

#[test]
fn empty_tables_yield_empty_joins() {
    let mut db = Db::new();
    db.table("A", vec![("K", ColType::Int)], vec![]);
    db.table("B", vec![("K", ColType::Int)], vec![]);
    db.analyze();
    assert!(db.run("SELECT A.K FROM A, B WHERE A.K = B.K").is_empty());
    assert!(db.run("SELECT K FROM A WHERE K = 1").is_empty());
}

#[test]
fn one_side_empty_join() {
    let mut db = Db::new();
    db.table("A", vec![("K", ColType::Int)], (0..10).map(|i| tuple![i]).collect());
    db.table("B", vec![("K", ColType::Int)], vec![]);
    db.analyze();
    assert!(db.run("SELECT A.K FROM A, B WHERE A.K = B.K").is_empty());
    assert!(db.run("SELECT A.K FROM B, A WHERE A.K = B.K").is_empty());
}

#[test]
fn null_join_keys_never_match() {
    let mut db = Db::new();
    db.table(
        "A",
        vec![("K", ColType::Int), ("TAG", ColType::Int)],
        vec![tuple![1, 10], Tuple::new(vec![Value::Null, Value::Int(20)]), tuple![3, 30]],
    );
    db.table(
        "B",
        vec![("K", ColType::Int)],
        vec![Tuple::new(vec![Value::Null]), tuple![1], tuple![3]],
    );
    db.analyze();
    let rows = db.run("SELECT A.TAG FROM A, B WHERE A.K = B.K ORDER BY TAG");
    assert_eq!(ints(&rows, 0), vec![10, 30], "NULL = NULL must not join");
}

#[test]
fn duplicate_join_keys_produce_cross_products_per_group() {
    let mut db = Db::new();
    db.table("A", vec![("K", ColType::Int)], vec![tuple![5], tuple![5], tuple![7]]);
    db.table("B", vec![("K", ColType::Int)], vec![tuple![5], tuple![5], tuple![5]]);
    db.analyze();
    let rows = db.run("SELECT A.K FROM A, B WHERE A.K = B.K");
    assert_eq!(rows.len(), 6, "2 × 3 matches for key 5");
}

#[test]
fn merge_join_path_handles_duplicates_and_gaps() {
    // Force the merge path with large unindexed inputs.
    let mut db = Db::new();
    let a_rows: Vec<Tuple> = (0..900).map(|i| tuple![(i * 13) % 30, i]).collect();
    let b_rows: Vec<Tuple> = (0..900).map(|i| tuple![(i * 7) % 45, i]).collect();
    db.table("A", vec![("K", ColType::Int), ("ID", ColType::Int)], a_rows.clone());
    db.table("B", vec![("K", ColType::Int), ("ID", ColType::Int)], b_rows.clone());
    db.analyze();
    let (rows, explain) =
        db.run_with("SELECT A.ID FROM A, B WHERE A.K = B.K", OptimizerConfig::default());
    assert!(explain.contains("MERGE JOIN"), "{explain}");
    // Reference count.
    let expect: usize = a_rows.iter().map(|a| b_rows.iter().filter(|b| b[0] == a[0]).count()).sum();
    assert_eq!(rows.len(), expect);
}

#[test]
fn sort_node_charges_temp_io() {
    let mut db = Db::new();
    db.table(
        "A",
        vec![("K", ColType::Int), ("PAD", ColType::Str)],
        (0..2000).map(|i| tuple![(i * 7919) % 2000, format!("p{i:040}")]).collect(),
    );
    db.analyze();
    db.storage.reset_io_stats();
    let rows = db.run("SELECT K FROM A ORDER BY K");
    assert_eq!(ints(&rows, 0), (0..2000).collect::<Vec<_>>());
    let io = db.storage.io_stats();
    assert!(io.temp_pages_written > 0, "sort must materialize a temp list: {io}");
    assert_eq!(io.temp_page_fetches, io.temp_pages_written, "list read back once");
}

#[test]
fn residual_factors_apply_above_rsi() {
    let mut db = Db::new();
    db.table(
        "A",
        vec![("K", ColType::Int), ("M", ColType::Int)],
        (0..100).map(|i| tuple![i, i % 7]).collect(),
    );
    db.analyze();
    // K + M = 10 is not sargable → residual; results still exact.
    let rows = db.run("SELECT K, M FROM A WHERE K + M = 10 ORDER BY K");
    for t in &rows {
        assert_eq!(t[0].as_int().unwrap() + t[1].as_int().unwrap(), 10);
    }
    let expect = (0..100).filter(|i| i + i % 7 == 10).count();
    assert_eq!(rows.len(), expect);
}

#[test]
fn arithmetic_error_surfaces_not_panics() {
    let mut db = Db::new();
    db.table("A", vec![("K", ColType::Int)], vec![tuple![0], tuple![1]]);
    db.analyze();
    let Statement::Select(stmt) = parse_statement("SELECT 10 / K FROM A").unwrap() else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let optimizer = Optimizer::with_config(&db.catalog, OptimizerConfig::default());
    let plan = optimizer.optimize_bound(&bound);
    let env = ExecEnv::new(&db.storage, &db.catalog);
    let err = execute(&env, &plan).unwrap_err();
    assert!(format!("{err}").contains("division by zero"), "{err}");
}

#[test]
fn nested_loop_rebinds_probe_each_outer_row() {
    let mut db = Db::new();
    db.table("S", vec![("K", ColType::Int)], vec![tuple![2], tuple![4], tuple![2]]);
    let big = db.table(
        "B",
        vec![("K", ColType::Int), ("V", ColType::Int)],
        (0..2000).map(|i| tuple![i % 10, i]).collect(),
    );
    db.index("B_K", big, vec![0], false);
    db.analyze();
    let (rows, explain) =
        db.run_with("SELECT S.K FROM S, B WHERE S.K = B.K", OptimizerConfig::default());
    assert!(explain.contains("NESTED LOOP"), "{explain}");
    // Each key appears 200 times in B; S has two 2s and one 4.
    assert_eq!(rows.len(), 3 * 200);
}

#[test]
fn nested_loop_probe_spans_multiple_batches() {
    // Each probe of the inner index returns 3000 matching tuples — three
    // NEXT batches (MAX_BATCH = 1024). A probe must keep draining until
    // the *empty* batch, not stop at the first short one.
    let mut db = Db::new();
    db.table("S", vec![("K", ColType::Int)], vec![tuple![5], tuple![9]]);
    let big = db.table(
        "B",
        vec![("K", ColType::Int), ("V", ColType::Int)],
        (0..6000).map(|i| tuple![if i % 2 == 0 { 5 } else { 9 }, i]).collect(),
    );
    db.index("B_K", big, vec![0], false);
    db.analyze();
    let (rows, explain) =
        db.run_with("SELECT B.V FROM S, B WHERE S.K = B.K", OptimizerConfig::default());
    assert!(explain.contains("NESTED LOOP"), "{explain}");
    assert_eq!(rows.len(), 6000, "3000 matches per outer row, two outer rows");
}

#[test]
fn distinct_on_projected_expressions() {
    let mut db = Db::new();
    db.table("A", vec![("K", ColType::Int)], (0..50).map(|i| tuple![i]).collect());
    db.analyze();
    let rows = db.run("SELECT DISTINCT K / 10 FROM A ORDER BY K");
    // ORDER BY K pre-sorts base rows; DISTINCT dedups projections in order.
    assert_eq!(ints(&rows, 0), vec![0, 1, 2, 3, 4]);
}

#[test]
fn group_by_multi_column() {
    let mut db = Db::new();
    db.table(
        "A",
        vec![("X", ColType::Int), ("Y", ColType::Int), ("V", ColType::Int)],
        (0..60).map(|i| tuple![i % 3, i % 2, i]).collect(),
    );
    db.analyze();
    let rows = db.run("SELECT X, Y, COUNT(*) FROM A GROUP BY X, Y ORDER BY X, Y");
    assert_eq!(rows.len(), 6);
    assert!(rows.iter().all(|t| t[2].as_int().unwrap() == 10));
}

#[test]
fn correlated_subquery_cache_counts_probes_once_per_value() {
    let mut db = Db::new();
    let emp = db.table(
        "E",
        vec![("ID", ColType::Int), ("MGR", ColType::Int), ("SAL", ColType::Int)],
        (0..300).map(|i| tuple![i, i / 30, (i * 17) % 100]).collect(),
    );
    db.index("E_ID", emp, vec![0], true);
    db.analyze();
    db.storage.reset_io_stats();
    let rows = db.run("SELECT ID FROM E X WHERE SAL > (SELECT SAL FROM E WHERE ID = X.MGR)");
    assert!(!rows.is_empty());
    let io = db.storage.io_stats();
    // 300 candidates + ~10 distinct managers probed; far below 2×300.
    assert!(io.rsi_calls < 300 + 50, "memoization must bound subquery probes: {}", io.rsi_calls);
}

#[test]
fn correlated_subquery_memo_tells_colliding_bindings_apart() {
    // The FLOAT column (which the storage-level loader lets hold an Int)
    // binds `Float(2^53)` and then `Int(2^53 + 1)`: equal as `Value`s, but
    // the first matches inner keys 2^53 and 2^53 + 1 and the second only
    // 2^53 + 1. A memo keyed by `Value` would answer the second binding
    // with the first's count and drop row 9.
    const BIG: i64 = 1 << 53;
    let mut db = Db::new();
    db.table(
        "O",
        vec![("ID", ColType::Int), ("K", ColType::Float), ("N", ColType::Int)],
        vec![
            Tuple::new(vec![Value::Int(8), Value::Float(BIG as f64), Value::Int(2)]),
            Tuple::new(vec![Value::Int(9), Value::Int(BIG + 1), Value::Int(1)]),
        ],
    );
    db.table("I", vec![("K", ColType::Int)], vec![tuple![BIG], tuple![BIG + 1]]);
    db.analyze();
    let rows = db.run("SELECT O.ID FROM O WHERE O.N = (SELECT COUNT(*) FROM I WHERE I.K = O.K)");
    assert_eq!(ints(&rows, 0), vec![8, 9]);
}

#[test]
fn sort_read_back_error_destroys_temp_list() {
    // A sort whose temp-list read-back hits an I/O error must still
    // destroy the list (the scope guard runs on the error path too):
    // at quiescence created == destroyed, i.e. nothing leaked.
    use sysr_rss::FaultBackend;
    let mut db = Db {
        // Fail every temp-page read after the first two succeed. The
        // 16-page pool is far smaller than the sort's temp list, so the
        // read-back must go to the backend and trips the fault.
        storage: Storage::with_backend(16, Box::new(FaultBackend::failing_temp_reads_after(2))),
        catalog: Catalog::new(),
    };
    db.table(
        "A",
        vec![("K", ColType::Int), ("PAD", ColType::Str)],
        (0..2000).map(|i| tuple![(i * 7919) % 2000, format!("p{i:040}")]).collect(),
    );
    db.analyze();
    let Statement::Select(stmt) = parse_statement("SELECT K FROM A ORDER BY K").unwrap() else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let optimizer = Optimizer::with_config(&db.catalog, OptimizerConfig::default());
    let plan = optimizer.optimize_bound(&bound);
    let env = ExecEnv::new(&db.storage, &db.catalog);
    let err = execute(&env, &plan).unwrap_err();
    assert!(format!("{err}").contains("injected temp read fault"), "{err}");
    let io = db.storage.io_stats();
    assert!(io.temp_lists_created > 0, "the sort must have materialized a list: {io}");
    assert_eq!(io.temp_lists_leaked(), 0, "error path leaked a temp list: {io}");
}

/// A table whose unindexed-suffix ORDER BY exercises the segmented sort:
/// `runs` groups keyed by `D`, each holding `per_run(d)` rows with
/// scattered `S` values and a padding column for realistic tuple width.
fn run_table(db: &mut Db, runs: i64, per_run: impl Fn(i64) -> i64) -> u16 {
    let mut rows = Vec::new();
    for d in 0..runs {
        for i in 0..per_run(d) {
            rows.push(tuple![d, (i * 7919) % per_run(d).max(1), format!("p{i:040}")]);
        }
    }
    let rel =
        db.table("G", vec![("D", ColType::Int), ("S", ColType::Int), ("PAD", ColType::Str)], rows);
    db.index("G_D", rel, vec![0], false);
    db.analyze();
    rel
}

fn pairs(rows: &[Tuple]) -> Vec<(i64, i64)> {
    rows.iter().map(|t| (t[0].as_int().unwrap(), t[1].as_int().unwrap())).collect()
}

#[test]
fn segmented_sort_runs_in_memory_without_temp_io() {
    // 40 runs of 50 rows: the D index delivers the prefix, every run fits
    // one RSI batch, so the segmented sort must touch zero temp pages.
    let mut db = Db::new();
    run_table(&mut db, 40, |_| 50);
    db.storage.reset_io_stats();
    let (rows, explain) = db.run_with("SELECT D, S FROM G ORDER BY D, S", Default::default());
    assert!(explain.contains("SORT (prefix=1)"), "expected a partial sort:\n{explain}");
    let mut expect = pairs(&rows);
    expect.sort_unstable();
    assert_eq!(pairs(&rows), expect, "rows must arrive fully sorted on (D, S)");
    assert_eq!(rows.len(), 40 * 50);
    let io = db.storage.io_stats();
    assert_eq!(io.temp_pages_written, 0, "in-memory runs must not spill: {io}");
    assert_eq!(io.temp_page_fetches, 0, "{io}");
}

#[test]
fn segmented_sort_spills_only_oversized_runs() {
    // One 1500-row run among fifty 14-row runs: only the big run exceeds
    // an RSI batch, so temp I/O is bounded by that run — visibly less
    // than the whole-input sort the same query costs without the prefix.
    let mut db = Db::new();
    run_table(&mut db, 51, |d| if d == 0 { 1500 } else { 14 });
    db.storage.reset_io_stats();
    let (rows, explain) = db.run_with("SELECT D, S FROM G ORDER BY D, S", Default::default());
    assert!(explain.contains("SORT (prefix=1)"), "expected a partial sort:\n{explain}");
    let mut expect = pairs(&rows);
    expect.sort_unstable();
    assert_eq!(pairs(&rows), expect);
    let seg = db.storage.io_stats();
    assert!(seg.temp_pages_written > 0, "the 1500-row run must spill: {seg}");
    assert_eq!(seg.temp_page_fetches, seg.temp_pages_written, "each run list read back once");

    // Whole-input comparator: same rows, no usable prefix for (S, D).
    db.storage.reset_io_stats();
    let (full_rows, full_explain) =
        db.run_with("SELECT D, S FROM G ORDER BY S, D", Default::default());
    assert!(full_explain.contains("SORT by"), "expected a full sort:\n{full_explain}");
    assert!(!full_explain.contains("prefix="), "{full_explain}");
    assert_eq!(full_rows.len(), rows.len());
    let full = db.storage.io_stats();
    assert!(
        seg.temp_pages_written < full.temp_pages_written,
        "run-sized spill ({}) must beat whole-input spill ({})",
        seg.temp_pages_written,
        full.temp_pages_written
    );
}

#[test]
fn segmented_sort_empty_input() {
    let mut db = Db::new();
    run_table(&mut db, 40, |_| 50);
    db.storage.reset_io_stats();
    let (rows, _) =
        db.run_with("SELECT D, S FROM G WHERE D > 9999 ORDER BY D, S", Default::default());
    assert!(rows.is_empty());
    let io = db.storage.io_stats();
    assert_eq!(io.temp_pages_written, 0, "{io}");
}

#[test]
fn single_run_spanning_batch_matches_full_sort() {
    // All rows share one D value: a claimed (D) prefix is vacuously true,
    // the single 2000-row run spans MAX_BATCH, and the segmented path
    // must degenerate to exactly the whole-input sort — same output,
    // same temp accounting.
    let mut db = Db::new();
    run_table(&mut db, 1, |_| 2000);
    let Statement::Select(stmt) = parse_statement("SELECT D, S FROM G ORDER BY D, S").unwrap()
    else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let mut plan =
        Optimizer::with_config(&db.catalog, OptimizerConfig::default()).optimize_bound(&bound);

    db.storage.reset_io_stats();
    let full_rows = execute(&ExecEnv::new(&db.storage, &db.catalog), &plan).unwrap().rows;
    let full = db.storage.io_stats();
    assert!(full.temp_pages_written > 0, "2000 scattered rows must sort through temp: {full}");

    let PlanNode::Sort { sorted_prefix, .. } = &mut plan.root.node else {
        panic!("expected a root sort");
    };
    *sorted_prefix = 1;
    db.storage.reset_io_stats();
    let seg_rows = execute(&ExecEnv::new(&db.storage, &db.catalog), &plan).unwrap().rows;
    let seg = db.storage.io_stats();
    assert_eq!(seg_rows, full_rows, "single-run segmented sort must match the full sort");
    assert_eq!(seg.temp_pages_written, full.temp_pages_written, "same run, same spill");
    assert_eq!(seg.temp_page_fetches, full.temp_page_fetches);
}

#[test]
fn full_key_prefix_passes_rows_through_without_temp_io() {
    // `S` ascends within each `D` run by construction (insertion order is
    // preserved for duplicate index keys), so a claimed full-key prefix
    // is genuinely delivered and the sort must pass rows through
    // untouched — zero temp I/O, order intact.
    let mut db = Db::new();
    let mut rows = Vec::new();
    for d in 0..30i64 {
        for i in 0..40i64 {
            rows.push(tuple![d, i, format!("p{i:040}")]);
        }
    }
    let rel =
        db.table("G", vec![("D", ColType::Int), ("S", ColType::Int), ("PAD", ColType::Str)], rows);
    db.index("G_D", rel, vec![0], false);
    db.analyze();
    let Statement::Select(stmt) = parse_statement("SELECT D, S FROM G ORDER BY D, S").unwrap()
    else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let mut plan =
        Optimizer::with_config(&db.catalog, OptimizerConfig::default()).optimize_bound(&bound);
    let PlanNode::Sort { sorted_prefix, keys, .. } = &mut plan.root.node else {
        panic!("expected a root sort");
    };
    *sorted_prefix = keys.len();
    db.storage.reset_io_stats();
    let out = execute(&ExecEnv::new(&db.storage, &db.catalog), &plan).unwrap().rows;
    let mut expect = pairs(&out);
    expect.sort_unstable();
    assert_eq!(pairs(&out), expect);
    assert_eq!(out.len(), 30 * 40);
    let io = db.storage.io_stats();
    assert_eq!(io.temp_pages_written, 0, "pass-through must not touch temp: {io}");
}

#[test]
fn segmented_sort_read_back_error_destroys_run_lists() {
    // A mid-run temp read fault must still destroy every run's list —
    // the per-run guard covers the error path exactly as the whole-input
    // guard does.
    use sysr_rss::FaultBackend;
    let mut db = Db {
        // Each 1300-row run spills ~21 temp pages; let the first run read
        // back cleanly and fault partway through the second run's pages.
        storage: Storage::with_backend(16, Box::new(FaultBackend::failing_temp_reads_after(30))),
        catalog: Catalog::new(),
    };
    run_table(&mut db, 3, |_| 1300);
    let Statement::Select(stmt) = parse_statement("SELECT D, S FROM G ORDER BY D, S").unwrap()
    else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let mut plan =
        Optimizer::with_config(&db.catalog, OptimizerConfig::default()).optimize_bound(&bound);
    // The 16-page pool rules the ordered index path out, so claim the
    // (D) prefix by hand — it holds: `run_table` inserts in D order and
    // a segment scan preserves insertion order.
    let PlanNode::Sort { sorted_prefix, .. } = &mut plan.root.node else {
        panic!("expected a root sort");
    };
    *sorted_prefix = 1;
    let env = ExecEnv::new(&db.storage, &db.catalog);
    let err = execute(&env, &plan).unwrap_err();
    assert!(format!("{err}").contains("injected temp read fault"), "{err}");
    let io = db.storage.io_stats();
    assert!(io.temp_lists_created > 1, "the fault should hit a second spilled run: {io}");
    assert_eq!(io.temp_lists_leaked(), 0, "error path leaked a run list: {io}");
}

#[test]
fn root_rows_sorted_detects_misordered_keys() {
    // The audit's executor-side order check must both pass on the
    // required order and be able to fail: swapping the key order turns
    // the same rows into a counterexample.
    use sysr_core::ColId;
    let mut db = Db::new();
    run_table(&mut db, 40, |_| 50);
    let Statement::Select(stmt) = parse_statement("SELECT D, S FROM G ORDER BY D, S").unwrap()
    else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let plan =
        Optimizer::with_config(&db.catalog, OptimizerConfig::default()).optimize_bound(&bound);
    let env = ExecEnv::new(&db.storage, &db.catalog);
    let good = [(ColId::new(0, 0), false), (ColId::new(0, 1), false)];
    assert!(sysr_executor::root_rows_sorted(&env, &plan, &good).unwrap());
    let bad = [(ColId::new(0, 1), false), (ColId::new(0, 0), false)];
    assert!(!sysr_executor::root_rows_sorted(&env, &plan, &bad).unwrap());
}

#[test]
fn plan_shapes_match_explain() {
    // Sanity that explain output names every node type we generate.
    let mut db = Db::new();
    db.table(
        "A",
        vec![("K", ColType::Int), ("PAD", ColType::Str)],
        (0..800).map(|i| tuple![(i * 31) % 200, format!("p{i:040}")]).collect(),
    );
    db.table("B", vec![("K", ColType::Int)], (0..800).map(|i| tuple![(i * 17) % 200]).collect());
    db.analyze();
    let Statement::Select(stmt) =
        parse_statement("SELECT A.PAD FROM A, B WHERE A.K = B.K").unwrap()
    else {
        panic!()
    };
    let bound = bind_select(&db.catalog, &stmt).unwrap();
    let optimizer = Optimizer::with_config(&db.catalog, OptimizerConfig::default());
    let plan = optimizer.optimize_bound(&bound);
    fn check(p: &sysr_core::PlanExpr, text: &str) {
        match &p.node {
            PlanNode::Scan(_) => assert!(text.contains("SCAN")),
            PlanNode::NestedLoop { outer, inner } => {
                assert!(text.contains("NESTED LOOP"));
                check(outer, text);
                check(inner, text);
            }
            PlanNode::Merge { outer, inner, .. } => {
                assert!(text.contains("MERGE JOIN"));
                check(outer, text);
                check(inner, text);
            }
            PlanNode::Sort { input, .. } => {
                assert!(text.contains("SORT"));
                check(input, text);
            }
        }
    }
    let text = plan.explain(&db.catalog);
    check(&plan.root, &text);
}

/// The EXPLAIN ANALYZE line of the node whose head contains `head`.
fn node_line<'a>(analyzed: &'a str, head: &str) -> &'a str {
    analyzed.lines().find(|l| l.contains(head)).unwrap_or_else(|| panic!("{head}:\n{analyzed}"))
}

#[test]
fn reused_segment_probe_rebinds_only_outer_operands() {
    // The inner probe is built once per join and each outer row rewrites
    // only its bound operand: a value, NULL, the same value twice and a
    // value with no match must each see exactly their own matches, with
    // the literal SARG and the residual applied every time. A repeated
    // binding replays the RIDs its first probe returned, so repeats come
    // adjacent and apart, NULL repeats, and the FLOAT column (which the
    // storage-level loader lets hold an Int) binds `Float(2^53)` and then
    // `Int(2^53 + 1)`: equal as `Value`s, but the first matches inner keys
    // 2^53 and 2^53 + 1 and the second only 2^53 + 1 — three rows, where
    // a memo keyed by `Value` would replay two rows for the second.
    const BIG: i64 = 1 << 53;
    let mut db = Db::new();
    let outer: Vec<(i64, Value)> = vec![
        (0, Value::Int(5)),
        (1, Value::Null),
        (2, Value::Int(7)),
        (3, Value::Int(7)),
        (4, Value::Int(99)),
        (5, Value::Int(5)),
        (6, Value::Null),
        (7, Value::Int(7)),
        (8, Value::Float(BIG as f64)),
        (9, Value::Int(BIG + 1)),
    ];
    db.table(
        "O",
        vec![("ID", ColType::Int), ("K", ColType::Float)],
        outer.iter().map(|(id, k)| Tuple::new(vec![Value::Int(*id), k.clone()])).collect(),
    );
    let mut inner: Vec<(i64, i64, i64)> =
        (0..600).map(|i| (i % 10, i64::from(i % 3 == 0), i)).collect();
    inner.extend([(BIG, 1, 600), (BIG + 1, 1, 601)]);
    db.table(
        "I",
        vec![("K", ColType::Int), ("TAG", ColType::Int), ("V", ColType::Int)],
        inner.iter().map(|&(k, tag, v)| tuple![k, tag, v]).collect(),
    );
    db.analyze();
    let (rows, analyzed) = db.run_analyzed(
        "SELECT O.ID, I.V FROM O, I WHERE I.K = O.K AND I.TAG = 1 AND I.V + I.K > 300",
    );
    let mut expect = Vec::new();
    for (id, k) in &outer {
        for &(ik, tag, v) in &inner {
            if *k == Value::Int(ik) && tag == 1 && v + ik > 300 {
                expect.push((*id, v));
            }
        }
    }
    assert_eq!(expect.iter().filter(|&&(id, _)| id >= 8).count(), 3);
    assert_eq!(pairs(&rows), expect, "{analyzed}");
    assert!(node_line(&analyzed, "#0 NESTED LOOP JOIN")
        .contains(&format!("actual rows={} loops=1", expect.len())));
    assert!(node_line(&analyzed, "#1 SEGMENT SCAN O").contains("actual rows=10 loops=1"));
    assert!(node_line(&analyzed, "#2 SEGMENT SCAN I")
        .contains(&format!("actual rows={} loops=10", expect.len())));
}

#[test]
fn reused_index_probe_rewrites_keys_per_outer_row() {
    // Index nested loop with an equality prefix bound from the outer row
    // and a range whose lower bound is outer-bound and upper bound a
    // literal. A probe with a longer key string follows a shorter one
    // (and a shorter one follows it again): the reused key vectors must
    // carry exactly the current row's values.
    let mut db = Db::new();
    const LONG: &str = "A-MUCH-LONGER-GROUP-KEY";
    let outer: Vec<(i64, Value, i64)> = vec![
        (0, Value::Str("X".into()), 1),
        (1, Value::Str(LONG.into()), 0),
        (2, Value::Str("X".into()), 3),
        (3, Value::Str("NONE".into()), 0),
        (4, Value::Null, 0),
    ];
    db.table(
        "O",
        vec![("ID", ColType::Int), ("G", ColType::Str), ("LO", ColType::Int)],
        outer
            .iter()
            .map(|(id, g, lo)| Tuple::new(vec![Value::Int(*id), g.clone(), Value::Int(*lo)]))
            .collect(),
    );
    let groups = ["X", LONG, "Z"];
    let inner: Vec<(&str, i64, i64)> =
        (0..3000).map(|i| (groups[(i % 3) as usize], (i / 3) % 10, i)).collect();
    // Padded past the buffer pool, so repeated segment scans cannot win.
    let rel = db.table(
        "I",
        vec![("G", ColType::Str), ("N", ColType::Int), ("V", ColType::Int), ("PAD", ColType::Str)],
        inner.iter().map(|&(g, n, v)| tuple![g, n, v, format!("p{v:080}")]).collect(),
    );
    db.index("I_GN", rel, vec![0, 1], false);
    db.analyze();
    let (rows, analyzed) =
        db.run_analyzed("SELECT O.ID, I.V FROM O, I WHERE I.G = O.G AND I.N >= O.LO AND I.N < 6");
    let inner_head = node_line(&analyzed, "#2 INDEX SCAN I via I_GN eq[");
    assert!(inner_head.contains("from=") && inner_head.contains("to<6"), "{analyzed}");
    let mut expect = Vec::new();
    for (id, g, lo) in &outer {
        for &(ig, n, v) in &inner {
            if *g == Value::Str(ig.into()) && n >= *lo && n < 6 {
                expect.push((*id, v));
            }
        }
    }
    let mut got = pairs(&rows);
    got.sort_unstable();
    expect.sort_unstable();
    assert_eq!(got, expect, "{analyzed}");
    assert!(node_line(&analyzed, "#1 SEGMENT SCAN O").contains("actual rows=5 loops=1"));
    assert!(inner_head.contains(&format!("actual rows={} loops=5", expect.len())), "{analyzed}");
}
