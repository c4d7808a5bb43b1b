//! The audit crate turned on the repo's own test corpus: every plan the
//! optimizer produces for the paper's Fig. 1 and §6 databases must pass
//! the full invariant catalogue (DESIGN.md §8) end to end — static plan
//! checks, search-trace accounting, and executor I/O accounting — and for
//! every ≤ 4-relation query the DP winner must cost exactly the minimum
//! over the exhaustively enumerated plan space.

mod common;

use common::fig1_db;
use sysr_bench::workloads::employee_db;
use system_r::audit::differential;
use system_r::rss::SplitMix64;
use system_r::Database;

const FIG1_JOIN: &str = "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB
    WHERE TITLE = 'CLERK' AND LOC = 'DENVER'
      AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB";

/// Queries exercising every plan shape against the Fig. 1 schema.
fn fig1_queries() -> Vec<&'static str> {
    vec![
        "SELECT NAME FROM EMP",
        "SELECT NAME FROM EMP WHERE DNO = 3",
        "SELECT NAME FROM EMP WHERE SAL BETWEEN 2000 AND 30000",
        "SELECT NAME FROM EMP WHERE DNO = 3 OR JOB = 6",
        "SELECT NAME FROM EMP ORDER BY DNO",
        "SELECT NAME FROM EMP WHERE JOB IN (5, 6, 7) ORDER BY JOB",
        "SELECT DNO, COUNT(*), AVG(SAL) FROM EMP GROUP BY DNO",
        FIG1_JOIN,
        "SELECT EMP.NAME, DEPT.DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
        "SELECT EMP.NAME, DEPT.DNAME FROM EMP, DEPT
           WHERE EMP.DNO = DEPT.DNO ORDER BY DEPT.DNO",
        "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
        "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)",
    ]
}

fn audit_all(db: &Database, queries: &[&str]) {
    for sql in queries {
        let report = db.audit(sql).unwrap_or_else(|e| panic!("audit({sql}) failed: {e}"));
        assert!(report.ok(), "invariant violations for {sql}:\n{}", report.render());
        assert!(report.checks > 0, "auditor checked nothing for {sql}");
    }
}

#[test]
fn fig1_corpus_passes_every_invariant_end_to_end() {
    let db = fig1_db(2000, 40, 5);
    audit_all(&db, &fig1_queries());
}

#[test]
fn section6_nested_queries_pass_every_invariant() {
    let db = employee_db(400, 7).unwrap();
    audit_all(
        &db,
        &[
            // §6's uncorrelated scalar subquery...
            "SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)",
            // ...its IN form...
            "SELECT NAME FROM EMPLOYEE WHERE DEPARTMENT_NUMBER IN
               (SELECT DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION = 'DENVER')",
            // ...and the correlated variant re-evaluated per binding.
            "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
               (SELECT AVG(SALARY) FROM EMPLOYEE WHERE MANAGER = X.MANAGER)",
        ],
    );
}

/// Seeded random single-table and two-table queries over the live Fig. 1
/// database: each one goes through the full optimize → verify → execute →
/// verify-accounting pipeline.
#[test]
fn seeded_random_queries_pass_every_invariant() {
    let db = fig1_db(1500, 30, 5);
    let mut rng = SplitMix64::new(0x5EED_1779);
    for round in 0..25 {
        let mut sql = String::from("SELECT NAME FROM EMP");
        let mut preds: Vec<String> = Vec::new();
        if rng.chance(0.6) {
            preds.push(format!("EMP.DNO = {}", rng.range_i64(0, 29)));
        }
        if rng.chance(0.4) {
            let lo = rng.range_i64(1000, 30_000);
            preds.push(format!("EMP.SAL BETWEEN {lo} AND {}", lo + rng.range_i64(100, 20_000)));
        }
        if rng.chance(0.3) {
            preds.push(format!("EMP.JOB >= {}", rng.range_i64(5, 9)));
        }
        let join = rng.chance(0.4);
        if join {
            sql = String::from("SELECT NAME, DNAME FROM EMP, DEPT");
            preds.push("EMP.DNO = DEPT.DNO".to_string());
        }
        if !preds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&preds.join(" AND "));
        }
        if rng.chance(0.3) {
            sql.push_str(" ORDER BY EMP.DNO");
        }
        let report =
            db.audit(&sql).unwrap_or_else(|e| panic!("round {round}: audit({sql}) failed: {e}"));
        assert!(report.ok(), "round {round}: violations for {sql}:\n{}", report.render());
    }
}

/// DP vs. exhaustive over the live catalog (real gathered statistics, not
/// corpus fixtures): for every ≤ 4-relation query the DP winner's cost
/// must equal the minimum over all exhaustively enumerated plans.
#[test]
fn dp_matches_exhaustive_enumeration_on_live_statistics() {
    let db = fig1_db(2000, 40, 5);
    let mut checks = 0;
    let mut queries: Vec<String> = fig1_queries().iter().map(|s| s.to_string()).collect();

    // Seeded ≤ 3-relation join variants with different predicate mixes.
    let mut rng = SplitMix64::new(0xD1FF_5EED);
    for _ in 0..10 {
        let mut preds = vec!["EMP.DNO = DEPT.DNO".to_string()];
        let three_way = rng.chance(0.5);
        if three_way {
            preds.push("EMP.JOB = JOB.JOB".to_string());
        }
        if rng.chance(0.5) {
            preds.push(format!("DEPT.DNO < {}", rng.range_i64(5, 35)));
        }
        if rng.chance(0.5) {
            preds.push(format!("EMP.SAL > {}", rng.range_i64(2000, 40_000)));
        }
        let tables = if three_way { "EMP, DEPT, JOB" } else { "EMP, DEPT" };
        let order = if rng.chance(0.4) { " ORDER BY EMP.DNO" } else { "" };
        queries.push(format!("SELECT NAME FROM {tables} WHERE {}{order}", preds.join(" AND ")));
    }

    for sql in &queries {
        let report = differential::differential_check(db.catalog(), sql, sql, db.config());
        assert!(report.ok(), "DP vs exhaustive mismatch:\n{}", report.render());
        checks += report.checks;
    }
    // Subquery cases are skipped by design; the plain joins must not be.
    assert!(checks >= 20, "only {checks} differential checks ran — oracle mostly skipped");
}
