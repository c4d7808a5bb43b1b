//! Statement plan cache behavior: repeated statements are answered from
//! the cache, any catalog change (DDL, UPDATE STATISTICS) forces
//! re-optimization, reopening a saved database starts cold, and a cached
//! plan executes exactly like a freshly optimized one, every time it runs
//! and from every thread that shares it. The key is the statement's SQL
//! text, so a hit must never turn EXPLAIN text into a query.

mod common;

use common::{fig1_clustered_db, fig1_db};
use std::path::PathBuf;
use sysr_bench::workloads::chain_db;
use system_r::{Database, DbError};

const JOIN: &str = "SELECT NAME, DNAME FROM EMP, DEPT \
     WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME";

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sysr-plancache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn repeated_statement_hits_cache() {
    let db = fig1_db(400, 10, 5);
    assert_eq!(db.plan_cache_stats(), (0, 0), "fresh database starts cold");

    let first = db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (0, 1), "first optimization is a miss");

    let second = db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 1), "same statement is a hit");
    assert_eq!(
        format!("{:?}", first.root),
        format!("{:?}", second.root),
        "cached plan is the optimizer's plan"
    );
    assert_eq!(db.plan_cache_len(), 1);
}

#[test]
fn query_path_uses_the_cache_and_results_match() {
    let db = fig1_db(400, 10, 5);
    let fresh = db.query(JOIN).unwrap();
    let (h0, _) = db.plan_cache_stats();
    let cached = db.query(JOIN).unwrap();
    let (h1, _) = db.plan_cache_stats();
    assert!(h1 > h0, "second execution should hit the plan cache");
    assert_eq!(fresh, cached, "cached plan must produce identical rows");
}

#[test]
fn ddl_forces_reoptimization() {
    let mut db = fig1_db(400, 10, 5);
    db.plan(JOIN).unwrap();
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 1));

    // CREATE TABLE changes the catalog: the cached entry is stale.
    db.execute("CREATE TABLE SCRATCH (X INTEGER)").unwrap();
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 2), "DDL must force a re-optimize");

    // CREATE INDEX can change the chosen access path: stale again.
    db.execute("CREATE INDEX SCRATCH_X ON SCRATCH (X)").unwrap();
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 3), "new index must force a re-optimize");
}

#[test]
fn update_statistics_forces_reoptimization() {
    let mut db = fig1_db(400, 10, 5);
    db.plan(JOIN).unwrap();
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 1));

    db.execute("UPDATE STATISTICS").unwrap();
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 2), "fresh statistics must force a re-optimize");
}

#[test]
fn reopened_database_starts_cold() {
    let dir = scratch_dir("reopen");
    let db = fig1_db(300, 10, 5);
    db.plan(JOIN).unwrap();
    db.plan(JOIN).unwrap();
    db.save(&dir).unwrap();

    let reopened = Database::open(&dir).unwrap();
    assert_eq!(reopened.plan_cache_stats(), (0, 0), "reopen must not inherit the cache");
    assert_eq!(reopened.plan_cache_len(), 0);
    reopened.plan(JOIN).unwrap();
    assert_eq!(reopened.plan_cache_stats(), (0, 1), "first plan after reopen is a miss");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn set_config_clears_cached_entries() {
    let mut db = fig1_db(300, 10, 5);
    db.plan(JOIN).unwrap();
    assert_eq!(db.plan_cache_len(), 1);

    // Any config change can change every plan: entries are dropped
    // eagerly rather than stamped.
    db.set_config(system_r::Config { w: 0.5, ..db.config() }).unwrap();
    assert_eq!(db.plan_cache_len(), 0, "set_config must clear cached plans");
    db.plan(JOIN).unwrap();
    let (_, misses) = db.plan_cache_stats();
    assert_eq!(misses, 2, "statement re-optimizes under the new config");
}

#[test]
fn distinct_statements_get_distinct_entries() {
    let db = fig1_db(300, 10, 5);
    db.plan(JOIN).unwrap();
    db.plan("SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME").unwrap();
    assert_eq!(db.plan_cache_stats(), (0, 2));
    assert_eq!(db.plan_cache_len(), 2);
}

#[test]
fn concurrent_sessions_count_hits_and_misses_exactly() {
    const THREADS: usize = 8;
    const REPS: u64 = 25;
    let db = fig1_db(300, 10, 5);
    assert_eq!(db.plan_cache_stats(), (0, 0), "cold start");
    // The serial run uses an identical database, so the shared one's
    // counters see only the threads' requests.
    let serial = fig1_db(300, 10, 5).query(JOIN).unwrap();

    std::thread::scope(|scope| {
        let db = &db;
        let serial = &serial;
        for t in 0..THREADS {
            scope.spawn(move || {
                let session = db.session();
                for rep in 0..REPS {
                    // After the cold miss every thread is handed the one
                    // cached `Arc<QueryPlan>`; executing it counts no request.
                    let plan = session.plan(JOIN).unwrap();
                    let rows = session.execute_plan(&plan).unwrap();
                    assert_eq!(rows, *serial, "thread {t} rep {rep}: shared plan's rows drifted");
                }
                let (hits, misses) = session.cache_stats();
                assert_eq!(hits + misses, REPS, "session accounting is per-request exact");
            });
        }
    });

    // Exactly one statement was ever planned, so hits + misses must equal
    // the total number of requests — the atomics lose no updates — and
    // only the first optimization(s) of the single key count as misses.
    let (hits, misses) = db.plan_cache_stats();
    assert_eq!(hits + misses, THREADS as u64 * REPS, "no request lost under concurrency");
    assert!(misses >= 1, "someone optimized the statement");
    assert!(
        misses <= THREADS as u64,
        "at worst each thread misses once on the cold key, never more (got {misses})"
    );
    assert_eq!(db.plan_cache_len(), 1, "one statement, one entry");
}

#[test]
fn catalog_version_bump_mid_flight_never_serves_stale() {
    use system_r::VersionedCache;

    // Drive the cache directly with self-describing payloads: each value
    // embeds the version it was inserted under, so any lookup returning a
    // mismatched payload is a stale serve — the bug the tentpole's
    // version stamping exists to prevent.
    let cache = VersionedCache::<u64>::new();
    let versions = 50u64;
    std::thread::scope(|scope| {
        let cache = &cache;
        // Writer: bump through versions, inserting the matching payload.
        scope.spawn(move || {
            for v in 0..versions {
                cache.insert("stmt".into(), v, v);
                std::thread::yield_now();
            }
        });
        // Readers: ask for a fixed version while the writer churns; any
        // Some must carry exactly that version's payload.
        for _ in 0..7 {
            scope.spawn(move || {
                for v in 0..versions {
                    for _ in 0..20 {
                        if let Some(got) = cache.lookup("stmt", v) {
                            assert_eq!(
                                got, v,
                                "lookup under version {v} served a value stamped {got}"
                            );
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn ddl_between_concurrent_batches_is_never_stale() {
    let mut db = fig1_db(300, 10, 5);
    let batch = |db: &Database| {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let session = db.session();
                    for _ in 0..10 {
                        session.plan(JOIN).unwrap();
                    }
                });
            }
        });
    };
    batch(&db);
    let (_, misses_before) = db.plan_cache_stats();

    // The catalog bump invalidates the cached entry; the next concurrent
    // batch must re-optimize (≥ 1 new miss) instead of serving the plan
    // optimized against the old catalog.
    db.execute("CREATE TABLE SCRATCH2 (X INTEGER)").unwrap();
    batch(&db);
    let (_, misses_after) = db.plan_cache_stats();
    assert!(
        misses_after > misses_before,
        "catalog version bump must force re-optimization ({misses_before} -> {misses_after})"
    );
}

#[test]
fn cached_explain_text_is_never_run_by_query() {
    let explain = format!("EXPLAIN {JOIN}");
    let db = fig1_db(300, 10, 5);
    let session = db.session();
    for round in 0..2 {
        session.plan(&explain).unwrap();
        db.plan(&explain).unwrap();
        assert!(
            matches!(session.query(&explain), Err(DbError::Unsupported(_))),
            "round {round}: Session::query ran a planned EXPLAIN"
        );
        assert!(
            matches!(db.query(&explain), Err(DbError::Unsupported(_))),
            "round {round}: Database::query ran a planned EXPLAIN"
        );
    }
    // Four successful plan requests, the first of them the only miss; the
    // rejected queries count nothing.
    assert_eq!(db.plan_cache_stats(), (3, 1));
    assert_eq!(session.cache_stats(), (1, 1));
    // The EXPLAIN was planned under the text of the SELECT it wraps.
    assert_eq!(db.plan_cache_len(), 1);
    db.query(JOIN).unwrap();
    assert_eq!(db.plan_cache_stats(), (4, 1), "the bare SELECT hits the EXPLAIN's plan");
}

#[test]
fn two_spellings_are_two_entries_with_one_plan() {
    let db = fig1_db(300, 10, 5);
    let upper = "SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME";
    let lower = "select name  from emp where sal > 9000 order by name";
    let a = db.plan(upper).unwrap();
    let b = db.plan(lower).unwrap();
    assert_eq!(db.plan_cache_stats(), (0, 2), "the text is the key: no normalisation");
    assert_eq!(db.plan_cache_len(), 2);
    assert_eq!(format!("{:?}", a.root), format!("{:?}", b.root));
    assert_eq!(a.predicted, b.predicted);
    assert_eq!(db.query(upper).unwrap(), db.query(lower).unwrap());
    assert_eq!(db.plan_cache_stats(), (2, 2));
}

#[test]
fn execute_script_serves_repeated_selects_from_the_cache() {
    let mut db = fig1_db(300, 10, 5);
    let other = "SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME";
    // Each statement is keyed by its own text, without the whitespace and
    // semicolon around it: the third statement repeats the first.
    let script = format!("{JOIN};\n{other};\n   {JOIN}  ;");
    let first = db.execute_script(&script).unwrap();
    assert_eq!(db.plan_cache_stats(), (1, 2));
    let again = db.execute_script(&script).unwrap();
    assert_eq!(db.plan_cache_stats(), (4, 2), "a re-run script is all hits");
    assert_eq!(first, again);
    assert_eq!(db.query(JOIN).unwrap(), first, "the facade shares the script's entry");
    assert_eq!(db.plan_cache_stats(), (5, 2));
    assert_eq!(db.plan_cache_len(), 2);
}

#[test]
fn a_cached_plan_executes_identically_every_time() {
    let fig1 = fig1_db(1000, 40, 10);
    // EMP clustered on DNO: the DNO index delivers ORDER BY's leading
    // column, so `ORDER BY DNO, SAL` sorts within runs only.
    let clustered = fig1_clustered_db(1000, 40, 10);
    let chain = chain_db(200).unwrap();
    let corpus: [(&Database, &str); 8] = [
        (&fig1, "SELECT NAME FROM EMP"),
        (&fig1, "SELECT NAME FROM EMP WHERE JOB = 7"),
        (
            &fig1,
            "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB \
             WHERE TITLE = 'CLERK' AND LOC = 'DENVER' AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB",
        ),
        (&fig1, "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO ORDER BY DEPT.DNO"),
        (&fig1, "SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO"),
        (
            &chain,
            "SELECT T0.K FROM T0, T1, T2, T3 WHERE T0.FK = T1.K AND T1.FK = T2.K AND T2.FK = T3.K",
        ),
        (&clustered, "SELECT NAME FROM EMP ORDER BY DNO, SAL"),
        (&clustered, "SELECT NAME FROM EMP ORDER BY SAL, DNO"),
    ];
    for (db, sql) in corpus {
        let plan = db.plan(sql).unwrap();
        let before = db.io_stats();
        let first = db.execute_plan(&plan).unwrap();
        let rsi_calls = db.io_stats().since(&before).rsi_calls;
        assert!(!first.is_empty() && rsi_calls > 0, "{sql}: the corpus query does work");
        for run in 1..4 {
            let before = db.io_stats();
            let rows = db.execute_plan(&plan).unwrap();
            assert_eq!(rows.len(), first.len(), "{sql}: row count drifted on run {run}");
            assert_eq!(rows, first, "{sql}: rows drifted on run {run}");
            assert_eq!(
                db.io_stats().since(&before).rsi_calls,
                rsi_calls,
                "{sql}: RSI calls per execution drifted on run {run}"
            );
        }
    }
}
