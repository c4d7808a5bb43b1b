//! Regenerate **Table 1** (selectivity factors): for each predicate shape
//! the paper lists, print the rule and the factor our estimator computes
//! on a catalog whose statistics make the expected value obvious.
//!
//! ```sh
//! cargo run -p sysr-bench --bin table1
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::workloads::audit_plan;
use system_r::core::{bind_select, Selectivity};
use system_r::sql::{parse_statement, Statement};
use system_r::{tuple, Database};

fn main() {
    // EMP: 10_000 rows. DNO has an index with ICARD = 50 over [0, 49];
    // SAL has an index with ICARD = 1000 over [0, 100_000]; JOB and NAME
    // have no index. DEPT: 40 rows, unique DNO index (ICARD = 40).
    let mut db = Database::new();
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)").unwrap();
    db.execute("CREATE TABLE DEPT (DNO INTEGER, LOC VARCHAR(20))").unwrap();
    db.insert_rows(
        "EMP",
        (0..10_000).map(|i| tuple![format!("E{i}"), i % 50, i % 17, ((i * 997) % 100_001) as f64]),
    )
    .unwrap();
    db.insert_rows("DEPT", (0..40).map(|d| tuple![d, if d % 4 == 0 { "DENVER" } else { "X" }]))
        .unwrap();
    db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)").unwrap();
    db.execute("CREATE INDEX EMP_SAL ON EMP (SAL)").unwrap();
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();

    let rows: Vec<(&str, &str, &str)> = vec![
        (
            "column = value (index on column)",
            "F = 1 / ICARD(column index)",
            "SELECT NAME FROM EMP WHERE DNO = 7",
        ),
        ("column = value (no index)", "F = 1/10", "SELECT NAME FROM EMP WHERE JOB = 3"),
        (
            "column1 = column2 (indexes on both)",
            "F = 1/MAX(ICARD(c1), ICARD(c2))",
            "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
        ),
        (
            "column1 = column2 (one index)",
            "F = 1/ICARD(indexed column)",
            "SELECT NAME FROM EMP, DEPT WHERE EMP.JOB = DEPT.DNO",
        ),
        (
            "column1 = column2 (no indexes)",
            "F = 1/10",
            "SELECT A.NAME FROM EMP A, EMP B WHERE A.JOB = B.JOB",
        ),
        (
            "column > value (arithmetic, value known)",
            "F = (high - value) / (high - low)",
            "SELECT NAME FROM EMP WHERE SAL > 75000",
        ),
        ("column > value (not interpolable)", "F = 1/3", "SELECT NAME FROM EMP WHERE NAME > 'M'"),
        (
            "column BETWEEN v1 AND v2 (interpolable)",
            "F = (v2 - v1) / (high - low)",
            "SELECT NAME FROM EMP WHERE SAL BETWEEN 0 AND 10000",
        ),
        (
            "column BETWEEN v1 AND v2 (otherwise)",
            "F = 1/4",
            "SELECT NAME FROM EMP WHERE JOB BETWEEN 2 AND 4",
        ),
        (
            "column IN (list) (index)",
            "F = #items * F(column = value), max 1/2",
            "SELECT NAME FROM EMP WHERE DNO IN (1, 2, 3)",
        ),
        (
            "column IN (list) (capped)",
            "F <= 1/2",
            "SELECT NAME FROM EMP WHERE JOB IN (0,1,2,3,4,5,6,7,8,9)",
        ),
        (
            "columnA IN subquery",
            "F = qcard(sub) / PRODUCT(card(sub FROM))",
            "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
        ),
        ("pred1 OR pred2", "F = F1 + F2 - F1*F2", "SELECT NAME FROM EMP WHERE DNO = 1 OR JOB = 2"),
        ("pred1 AND pred2", "F = F1 * F2", "SELECT NAME FROM EMP WHERE DNO = 1 AND JOB = 2"),
        ("NOT pred", "F = 1 - F(pred)", "SELECT NAME FROM EMP WHERE NOT DNO = 1"),
    ];

    println!("TABLE 1 — SELECTIVITY FACTORS (paper rule vs computed F)");
    println!("{:-<100}", "");
    println!("{:<44} {:<38} {:>10}", "predicate shape", "paper rule", "computed F");
    println!("{:-<100}", "");
    for (shape, rule, sql) in rows {
        // Audit each shape's plan before reporting its factor. The
        // unrestricted self-join is exempt: its ~6M-row result is fine
        // for selectivity arithmetic but too large for the audit pass,
        // which executes the query.
        if !sql.contains("EMP A, EMP B") {
            audit_plan(&db, sql).unwrap();
        }
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else { unreachable!() };
        let bound = bind_select(db.catalog(), &stmt).unwrap();
        let sel = Selectivity::new(db.catalog(), &bound);
        let f: f64 = bound.factors.iter().map(|fac| sel.factor(fac)).product();
        println!("{shape:<44} {rule:<38} {f:>10.5}");
    }
    println!("{:-<100}", "");
    println!(
        "\nICARD(EMP.DNO)=50, ICARD(EMP.SAL)=1000 over [0,100000], ICARD(DEPT.DNO)=40;\n\
         JOB and NAME unindexed → the 1/10, 1/3, 1/4, 1/2 defaults apply as in the paper."
    );
}
