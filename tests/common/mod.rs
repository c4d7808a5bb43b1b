//! Shared test fixtures: deterministic workloads over the paper's schemas.
//!
//! Compiled into several test binaries, each using a different subset.
#![allow(dead_code)]

use system_r::rss::{Tuple, Value};
use system_r::{tuple, Database};

/// Deterministic pseudo-random permutation step (no rand dependency needed
/// for fixtures; coprime stride scatter).
pub fn scatter(i: i64, n: i64) -> i64 {
    (i * 7919) % n
}

/// The paper's Fig. 1 database: EMP (n_emp rows), DEPT (n_dept), JOB
/// (n_job), with the indexes the example assumes (EMP.DNO, EMP.JOB,
/// DEPT.DNO, JOB.JOB) and fresh statistics.
///
/// Data is deterministic: employee `i` belongs to department
/// `scatter(i) % n_dept` and job `i % n_job`; department `d` is located in
/// one of 5 cities; job titles cycle through 5 names with job 5 = CLERK,
/// matching the paper's example values.
pub fn fig1_db(n_emp: i64, n_dept: i64, n_job: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)").unwrap();
    db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))").unwrap();
    db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))").unwrap();

    let cities = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"];
    let titles = ["CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER"];

    db.insert_rows(
        "EMP",
        (0..n_emp).map(|i| {
            tuple![
                format!("EMP-{i:06}"),
                scatter(i, n_emp) % n_dept,
                5 + (i % n_job),
                1000.0 + (scatter(i, n_emp) as f64) % 50_000.0
            ]
        }),
    )
    .unwrap();
    db.insert_rows(
        "DEPT",
        (0..n_dept)
            .map(|d| tuple![d, format!("DEPT-{d:03}"), cities[(d % cities.len() as i64) as usize]]),
    )
    .unwrap();
    db.insert_rows(
        "JOB",
        (0..n_job).map(|j| tuple![5 + j, titles[(j % titles.len() as i64) as usize]]),
    )
    .unwrap();

    db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)").unwrap();
    db.execute("CREATE INDEX EMP_JOB ON EMP (JOB)").unwrap();
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)").unwrap();
    db.execute("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

/// `fig1_db` with EMP clustered on DNO (the bench harness's "fig1c"
/// shape): an order-producing DNO index scan costs NINDX + TCARD pages,
/// so prefix-aware order enforcement has a real alternative to price.
pub fn fig1_clustered_db(n_emp: i64, n_dept: i64, n_job: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)").unwrap();
    db.insert_rows(
        "EMP",
        (0..n_emp).map(|i| {
            tuple![
                format!("EMP-{i:06}"),
                scatter(i, n_emp) % n_dept,
                5 + (i % n_job),
                1000.0 + (scatter(i, n_emp) as f64) % 50_000.0
            ]
        }),
    )
    .unwrap();
    db.execute("CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

/// A 4-relation FK chain `T0 → T1 → T2 → T3` with a unique key index per
/// table and a non-unique index on each FK column.
pub fn chain_db(rows: i64) -> Database {
    let mut db = Database::new();
    for i in 0..4 {
        db.execute(&format!("CREATE TABLE T{i} (K INTEGER, FK INTEGER, V INTEGER)")).unwrap();
        db.insert_rows(
            &format!("T{i}"),
            (0..rows).map(|r| tuple![r, (r * 7 + i) % rows, (r * 13) % 100]),
        )
        .unwrap();
        db.execute(&format!("CREATE UNIQUE INDEX T{i}_K ON T{i} (K)")).unwrap();
        db.execute(&format!("CREATE INDEX T{i}_FK ON T{i} (FK)")).unwrap();
    }
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

/// The paper's §6 EMPLOYEE relation for nested-query tests: employee `i`
/// has number `i`, salary varying non-monotonically, manager `i / span`
/// (so managers repeat — NCARD > ICARD), and department `i % 10`.
pub fn employee_db(n: i64, span: i64) -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE EMPLOYEE (NAME VARCHAR(20), SALARY FLOAT,
           EMPLOYEE_NUMBER INTEGER, MANAGER INTEGER, DEPARTMENT_NUMBER INTEGER)",
    )
    .unwrap();
    db.execute("CREATE TABLE DEPARTMENT (DEPARTMENT_NUMBER INTEGER, LOCATION VARCHAR(20))")
        .unwrap();
    db.insert_rows(
        "EMPLOYEE",
        (0..n).map(|i| {
            tuple![
                format!("E{i:04}"),
                1000.0 + ((i * 37) % 1000) as f64 * 10.0,
                i,
                (i / span).max(0),
                i % 10
            ]
        }),
    )
    .unwrap();
    db.insert_rows(
        "DEPARTMENT",
        (0..10).map(|d| tuple![d, if d < 3 { "DENVER" } else { "ELSEWHERE" }]),
    )
    .unwrap();
    db.execute("CREATE UNIQUE INDEX EMP_NO ON EMPLOYEE (EMPLOYEE_NUMBER)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

/// Extract a single integer column from a result set.
pub fn int_column(rows: &[Tuple], col: usize) -> Vec<i64> {
    rows.iter().map(|t| t[col].as_int().expect("integer column")).collect()
}

/// Extract a single string column.
pub fn str_column(rows: &[Tuple], col: usize) -> Vec<String> {
    rows.iter().map(|t| t[col].as_str().expect("string column").to_string()).collect()
}

/// Extract floats.
pub fn float_column(rows: &[Tuple], col: usize) -> Vec<f64> {
    rows.iter()
        .map(|t| match &t[col] {
            Value::Int(i) => *i as f64,
            Value::Float(x) => *x,
            other => panic!("not numeric: {other}"),
        })
        .collect()
}
