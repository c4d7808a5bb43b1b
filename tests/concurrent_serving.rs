//! Concurrent query serving: M sessions on one shared `Database` must
//! behave exactly like one session run M times.
//!
//! The stress half hammers the Fig. 1 database and a 4-relation chain
//! from 8 threads × 50+ queries each, comparing every plan rendering and
//! every result set bit-for-bit against a serial baseline captured
//! first. The persistence half keeps readers running while `sync`
//! flushes dirty pages from another thread, then proves the saved image
//! still round-trips.
//!
//! Run with `RUST_TEST_THREADS` unset (scripts/ci.sh does) so the test
//! harness does not serialize these tests against each other and the
//! scoped threads genuinely interleave.

mod common;

use common::{chain_db, fig1_db};
use std::path::PathBuf;
use std::sync::Arc;
use system_r::core::QueryPlan;
use system_r::Database;

/// Worker threads per stress run — matches the audit rule and the plan
/// cache's stripe count.
const THREADS: usize = 8;

/// The stress corpus over the Fig. 1 schema: every optimizer feature the
/// serial suites pin, each with ORDER BY so row order is deterministic.
const FIG1_CORPUS: &[&str] = &[
    "SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME",
    "SELECT NAME FROM EMP WHERE DNO IN (1, 2) AND JOB = 5 ORDER BY NAME",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME",
    "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB \
     WHERE TITLE = 'CLERK' AND LOC = 'DENVER' \
       AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB ORDER BY NAME",
    "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO ORDER BY DNO",
    "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER') ORDER BY NAME",
    "SELECT NAME, SAL FROM EMP WHERE SAL BETWEEN 2000 AND 30000 AND JOB IN (5, 6) \
     ORDER BY NAME, SAL",
];

/// Chain-join corpus: run against a separate 4-relation database.
const CHAIN_CORPUS: &[&str] = &[
    "SELECT T0.K FROM T0, T1, T2, T3 \
     WHERE T0.FK = T1.K AND T1.FK = T2.K AND T2.FK = T3.K ORDER BY T0.K",
    "SELECT T0.K, T1.FK FROM T0, T1 WHERE T0.FK = T1.K AND T1.V < 40 ORDER BY T0.K",
    "SELECT T2.V FROM T2 WHERE T2.K BETWEEN 10 AND 60 ORDER BY T2.V, T2.K",
];

/// `Debug`-render a plan with wall-clock time zeroed, so comparisons see
/// only the deterministic parts.
fn plan_fingerprint(plan: Arc<QueryPlan>) -> String {
    fn strip(plan: &mut QueryPlan) {
        plan.stats.elapsed_micros = 0;
        for sub in &mut plan.subplans {
            strip(sub);
        }
    }
    let mut plan = Arc::unwrap_or_clone(plan);
    strip(&mut plan);
    format!("{plan:?}")
}

/// Serial baseline for one corpus: `(sql, plan fingerprint, rows)`.
fn baselines(db: &Database, corpus: &[&str]) -> Vec<(String, String, String)> {
    let session = db.session();
    corpus
        .iter()
        .map(|sql| {
            let plan = session.plan(sql).unwrap_or_else(|e| panic!("baseline plan `{sql}`: {e}"));
            let rows = session.query(sql).unwrap_or_else(|e| panic!("baseline query `{sql}`: {e}"));
            ((*sql).to_string(), plan_fingerprint(plan), format!("{:?}", rows.rows))
        })
        .collect()
}

/// Stress one database: 8 threads, each replanning and re-executing the
/// corpus until it has run at least `min_queries` queries, comparing
/// everything against the serial baseline. Returns the total number of
/// plan requests made (baseline + stress), so callers can cross-check
/// the shared cache counters.
fn stress(db: &Database, corpus: &[&str], min_queries: usize) -> u64 {
    let base = baselines(db, corpus);
    let rounds = min_queries.div_ceil(corpus.len());
    let failures: Vec<String> = std::thread::scope(|scope| {
        let base = &base;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let session = db.session();
                    let mut bad = Vec::new();
                    for round in 0..rounds {
                        for (sql, want_plan, want_rows) in base {
                            match session.plan(sql) {
                                Ok(plan) => {
                                    if plan_fingerprint(plan) != *want_plan {
                                        bad.push(format!(
                                            "thread {t} round {round}: plan drift for `{sql}`"
                                        ));
                                    }
                                }
                                Err(e) => {
                                    bad.push(format!("thread {t}: plan `{sql}` failed: {e}"));
                                }
                            }
                            match session.query(sql) {
                                Ok(rows) if format!("{:?}", rows.rows) != *want_rows => bad.push(
                                    format!("thread {t} round {round}: row drift for `{sql}`"),
                                ),
                                Ok(_) => {}
                                Err(e) => {
                                    bad.push(format!("thread {t}: query `{sql}` failed: {e}"));
                                }
                            }
                        }
                    }
                    let (hits, misses) = session.cache_stats();
                    let requests = (rounds * corpus.len() * 2) as u64;
                    if hits + misses != requests {
                        bad.push(format!(
                            "thread {t}: session counted {hits} hits + {misses} misses, \
                             expected {requests} total requests"
                        ));
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("stress worker panicked")).collect()
    });
    assert!(failures.is_empty(), "{} divergences:\n{}", failures.len(), failures.join("\n"));
    // Baseline: 2 requests per statement; stress: 2 per statement per
    // round per thread.
    (corpus.len() * 2 + THREADS * rounds * corpus.len() * 2) as u64
}

#[test]
fn eight_threads_serve_fig1_identically() {
    let db = fig1_db(400, 10, 5);
    let (h0, m0) = db.plan_cache_stats();
    let requests = stress(&db, FIG1_CORPUS, 50);
    let (h1, m1) = db.plan_cache_stats();
    assert_eq!(
        (h1 + m1) - (h0 + m0),
        requests,
        "shared cache counters must account for every plan request exactly"
    );
    // Every statement missed at least once (first planning) and the
    // steady state is all hits; the cache never grows past the corpus.
    assert!(db.plan_cache_len() <= FIG1_CORPUS.len(), "cache holds at most one plan per statement");
}

#[test]
fn eight_threads_serve_chain_joins_identically() {
    let db = chain_db(120);
    stress(&db, CHAIN_CORPUS, 50);
}

#[test]
fn readers_stay_consistent_while_sync_flushes() {
    let dir = scratch_dir("serve-under-sync");
    // Build on disk so `sync` has real page files to flush to.
    {
        let db = fig1_db(300, 10, 5);
        db.save(&dir).unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let base = baselines(&db, FIG1_CORPUS);

    let failures: Vec<String> = std::thread::scope(|scope| {
        let base = &base;
        let db = &db;
        let mut handles: Vec<_> = (0..THREADS - 1)
            .map(|t| {
                scope.spawn(move || {
                    let session = db.session();
                    let mut bad = Vec::new();
                    for round in 0..8 {
                        for (sql, _, want_rows) in base {
                            match session.query(sql) {
                                Ok(rows) if format!("{:?}", rows.rows) != *want_rows => {
                                    bad.push(format!(
                                        "reader {t} round {round}: row drift under sync for `{sql}`"
                                    ));
                                }
                                Ok(_) => {}
                                Err(e) => bad.push(format!("reader {t}: `{sql}` failed: {e}")),
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.push(scope.spawn(move || {
            let mut bad = Vec::new();
            for i in 0..40 {
                if let Err(e) = db.sync() {
                    bad.push(format!("sync {i} failed: {e}"));
                }
            }
            bad
        }));
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // The image on disk after concurrent syncs still round-trips.
    db.sync().unwrap();
    drop(db);
    let reopened = Database::open(&dir).unwrap();
    for (sql, _, want_rows) in &base {
        let rows = reopened.query(sql).unwrap_or_else(|e| panic!("reopen `{sql}`: {e}"));
        assert_eq!(&format!("{:?}", rows.rows), want_rows, "reopened rows differ for `{sql}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sysr-concurrent-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
