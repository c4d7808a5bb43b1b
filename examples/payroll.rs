//! The paper's running example (Figure 1): "Retrieve the name, salary,
//! job title, and department name of employees who are clerks and work
//! for departments in Denver" — EMP ⋈ DEPT ⋈ JOB with the exact indexes
//! the worked example assumes.
//!
//! The example prints the optimizer's chosen plan (compare with the
//! paper's Figures 2-6 walk-through, regenerated in full by
//! `sysr-experiments fig_search_tree`) and contrasts it with what happens when the
//! statistics lie.
//!
//! ```sh
//! cargo run --example payroll
//! ```

use system_r::{tuple, Database, DbError};

const FIG1: &str = "SELECT NAME, TITLE, SAL, DNAME
     FROM EMP, DEPT, JOB
     WHERE TITLE = 'CLERK'
       AND LOC = 'DENVER'
       AND EMP.DNO = DEPT.DNO
       AND EMP.JOB = JOB.JOB";

fn build(n_emp: i64, n_dept: i64) -> Result<Database, DbError> {
    let mut db = Database::new();
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
    db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))")?;
    db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))")?;

    // The paper's JOB table, Fig. 1: 5=CLERK, 6=TYPIST, 9=SALES, 12=MECHANIC.
    db.execute(
        "INSERT INTO JOB VALUES (5, 'CLERK'), (6, 'TYPIST'), (9, 'SALES'), (12, 'MECHANIC')",
    )?;
    let cities = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON"];
    db.insert_rows(
        "DEPT",
        (0..n_dept)
            .map(|d| tuple![d, format!("DEPT-{d:03}"), cities[(d % cities.len() as i64) as usize]]),
    )?;
    let jobs = [5i64, 6, 9, 12];
    db.insert_rows(
        "EMP",
        (0..n_emp).map(|i| {
            tuple![
                format!("EMP-{i:06}"),
                (i * 7919) % n_dept,
                jobs[(i % 4) as usize],
                10_000.0 + (i % 500) as f64 * 60.0
            ]
        }),
    )?;

    // The example's access paths: "an index on DNO, an index on JOB" for
    // EMP; "an index on DNO" for DEPT; "an index on JOB" for JOB.
    db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)")?;
    db.execute("CREATE INDEX EMP_JOB ON EMP (JOB)")?;
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")?;
    db.execute("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")?;
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

fn main() -> Result<(), DbError> {
    let db = build(10_000, 50)?;

    println!("=== The paper's Figure 1 query ===\n{FIG1}\n");
    println!("=== Chosen plan ===\n{}", db.explain(FIG1)?);

    let plan = db.plan(FIG1)?;
    let s = plan.stats;
    println!("=== Search effort (paper \u{a7}5) ===");
    println!("subsets examined:        {}", s.subsets_examined);
    println!("plans costed:            {}", s.plans_considered);
    println!("solutions kept:          {}", s.plans_kept);
    println!("heuristic skips:         {}  (Cartesian products deferred)", s.heuristic_skips);
    println!("solution storage:        {} bytes (paper: 'a few thousand bytes')", s.solution_bytes);
    println!("optimization time:       {} \u{b5}s\n", s.elapsed_micros);

    db.reset_io_stats();
    db.evict_buffers().unwrap();
    let result = db.query(FIG1)?;
    let io = db.io_stats();
    println!("=== Result: {} clerk rows in Denver ===", result.len());
    for row in result.rows.iter().take(5) {
        println!("  {row}");
    }
    if result.len() > 5 {
        println!("  ... and {} more", result.len() - 5);
    }
    println!(
        "\nmeasured cost: {} page fetches + W x {} RSI calls",
        io.page_fetches(),
        io.rsi_calls
    );

    // What if DEPT had no DNO index? The optimizer falls back gracefully.
    println!("\n=== Same query, no DEPT.DNO index ===");
    let mut db2 = Database::new();
    db2.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
    db2.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))")?;
    db2.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))")?;
    db2.execute("INSERT INTO JOB VALUES (5, 'CLERK'), (6, 'TYPIST')")?;
    db2.insert_rows(
        "DEPT",
        (0..50)
            .map(|d| tuple![d, format!("D{d}"), if d % 4 == 0 { "DENVER" } else { "ELSEWHERE" }]),
    )?;
    db2.insert_rows(
        "EMP",
        (0..10_000).map(|i| tuple![format!("E{i}"), i % 50, 5 + (i % 2), 9000.0]),
    )?;
    db2.execute("CREATE INDEX EMP_JOB ON EMP (JOB)")?;
    db2.execute("UPDATE STATISTICS")?;
    println!("{}", db2.explain(FIG1)?);
    Ok(())
}
