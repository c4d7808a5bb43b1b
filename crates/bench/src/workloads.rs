//! Parameterized workload generators.
//!
//! The paper evaluated against IBM-internal databases we do not have; per
//! DESIGN.md's substitution table, these generators produce synthetic
//! databases over the paper's own schemas with the knobs the cost model
//! actually responds to: cardinalities, value distributions, clustering,
//! and the index inventory. The repo's integration tests build their
//! databases here too, through a dev-dependency.

use system_r::rss::SplitMix64;
use system_r::{tuple, Config, Database, DbResult};

/// Deterministic scatter (coprime stride) for reproducible "random"
/// placement without seeding questions.
pub fn scatter(i: i64, n: i64) -> i64 {
    if n <= 1 {
        return 0;
    }
    (i * 7919) % n
}

/// Knobs for the paper's Fig. 1 EMP/DEPT/JOB database.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Params {
    pub n_emp: i64,
    pub n_dept: i64,
    pub n_job: i64,
    /// Cluster EMP physically on DNO.
    pub cluster_emp_dno: bool,
    pub buffer_pages: usize,
    pub seed: u64,
}

impl Default for Fig1Params {
    fn default() -> Self {
        Fig1Params {
            n_emp: 2000,
            n_dept: 40,
            n_job: 10,
            cluster_emp_dno: false,
            buffer_pages: 16,
            seed: 42,
        }
    }
}

/// The Fig. 1 query, verbatim from the paper.
pub const FIG1_SQL: &str = "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB
    WHERE TITLE = 'CLERK' AND LOC = 'DENVER'
      AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB";

/// Build the Fig. 1 database with the worked example's index inventory.
pub fn fig1_db(p: Fig1Params) -> DbResult<Database> {
    let mut rng = SplitMix64::new(p.seed);
    let mut db =
        Database::with_config(Config { buffer_pages: p.buffer_pages, ..Config::default() });
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
    db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))")?;
    db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))")?;

    let cities = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON", "AUSTIN"];
    let titles = ["CLERK", "TYPIST", "SALES", "MECHANIC", "ENGINEER"];
    db.insert_rows(
        "EMP",
        (0..p.n_emp).map(|i| {
            tuple![
                format!("EMP-{i:06}"),
                rng.range_i64(0, p.n_dept),
                5 + rng.range_i64(0, p.n_job),
                1000.0 + rng.range_i64(0, 50_000) as f64
            ]
        }),
    )?;
    db.insert_rows(
        "DEPT",
        (0..p.n_dept)
            .map(|d| tuple![d, format!("DEPT-{d:03}"), cities[(d % cities.len() as i64) as usize]]),
    )?;
    db.insert_rows(
        "JOB",
        (0..p.n_job).map(|j| tuple![5 + j, titles[(j % titles.len() as i64) as usize]]),
    )?;

    if p.cluster_emp_dno {
        db.execute("CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO)")?;
    } else {
        db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)")?;
    }
    db.execute("CREATE INDEX EMP_JOB ON EMP (JOB)")?;
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")?;
    db.execute("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")?;
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

/// A two-table join workload: `OUTR(K, TAG, PAD)` and `INNR(K, PAD)`,
/// joined on K. Knobs: sizes, key fan-out, whether the inner is indexed
/// on K, pad width (pages per relation).
#[expect(clippy::too_many_arguments, reason = "each argument is one experiment knob")]
pub fn two_table_db(
    n_outer: i64,
    n_inner: i64,
    key_card: i64,
    tag_card: i64,
    index_inner: bool,
    index_tag: bool,
    pad: usize,
    buffer_pages: usize,
) -> DbResult<Database> {
    let mut db = Database::with_config(Config { buffer_pages, ..Config::default() });
    db.execute("CREATE TABLE OUTR (K INTEGER, TAG INTEGER, PAD VARCHAR(64))")?;
    db.execute("CREATE TABLE INNR (K INTEGER, PAD VARCHAR(64))")?;
    db.insert_rows(
        "OUTR",
        (0..n_outer).map(|i| {
            tuple![
                scatter(i, n_outer) % key_card,
                i % tag_card,
                format!("o{:0width$}", i, width = pad)
            ]
        }),
    )?;
    db.insert_rows(
        "INNR",
        (0..n_inner).map(|i| {
            tuple![scatter(i, n_inner) % key_card, format!("i{:0width$}", i, width = pad)]
        }),
    )?;
    if index_inner {
        db.execute("CREATE INDEX INNR_K ON INNR (K)")?;
    }
    if index_tag {
        db.execute("CREATE INDEX OUTR_TAG ON OUTR (TAG)")?;
    }
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

/// An n-table chain `T0 ⋈ T1 ⋈ … ⋈ T(n-1)` on FK→K edges, each table with
/// a unique K index. Returns the database and the chain-join SQL. Used by
/// the §7 scaling experiment ("Joins of 8 tables have been optimized in a
/// few seconds").
pub fn synth_chain_db(n: usize, rows_per_table: i64) -> DbResult<(Database, String)> {
    let mut db = Database::new();
    for i in 0..n {
        db.execute(&format!("CREATE TABLE T{i} (K INTEGER, FK INTEGER, PAD VARCHAR(20))"))?;
        db.insert_rows(
            &format!("T{i}"),
            (0..rows_per_table).map(|r| tuple![r, scatter(r, rows_per_table), format!("p{r:016}")]),
        )?;
        db.execute(&format!("CREATE UNIQUE INDEX T{i}_K ON T{i} (K)"))?;
    }
    db.execute("UPDATE STATISTICS")?;
    let tables: Vec<String> = (0..n).map(|i| format!("T{i}")).collect();
    let joins: Vec<String> = (0..n - 1).map(|i| format!("T{i}.FK = T{}.K", i + 1)).collect();
    let sql = format!("SELECT T0.K FROM {} WHERE {}", tables.join(","), joins.join(" AND "));
    Ok((db, sql))
}

/// A 4-relation FK chain `T0 → T1 → T2 → T3` with a unique key index per
/// table and a non-unique index on each FK column; `V` cycles through 100
/// values.
pub fn chain_db(rows: i64) -> DbResult<Database> {
    let mut db = Database::new();
    for i in 0..4 {
        db.execute(&format!("CREATE TABLE T{i} (K INTEGER, FK INTEGER, V INTEGER)"))?;
        db.insert_rows(
            &format!("T{i}"),
            (0..rows).map(|r| tuple![r, (r * 7 + i) % rows, (r * 13) % 100]),
        )?;
        db.execute(&format!("CREATE UNIQUE INDEX T{i}_K ON T{i} (K)"))?;
        db.execute(&format!("CREATE INDEX T{i}_FK ON T{i} (FK)"))?;
    }
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

/// An n-table star: fact F joined to n-1 dimensions on distinct columns.
pub fn star_db(n: usize, fact_rows: i64, dim_rows: i64) -> DbResult<(Database, String)> {
    assert!(n >= 2);
    let dims = n - 1;
    let mut db = Database::new();
    let cols: Vec<String> = (0..dims).map(|d| format!("D{d} INTEGER")).collect();
    db.execute(&format!("CREATE TABLE FACT ({}, PAD VARCHAR(20))", cols.join(", ")))?;
    db.insert_rows(
        "FACT",
        (0..fact_rows).map(|r| {
            let mut vals: Vec<system_r::rss::Value> = (0..dims)
                .map(|d| system_r::rss::Value::Int(scatter(r + d as i64, fact_rows) % dim_rows))
                .collect();
            vals.push(system_r::rss::Value::Str(format!("p{r:016}")));
            system_r::rss::Tuple::new(vals)
        }),
    )?;
    for d in 0..dims {
        db.execute(&format!("CREATE TABLE DIM{d} (K INTEGER, NAME VARCHAR(16))"))?;
        db.insert_rows(&format!("DIM{d}"), (0..dim_rows).map(|r| tuple![r, format!("d{r}")]))?;
        db.execute(&format!("CREATE UNIQUE INDEX DIM{d}_K ON DIM{d} (K)"))?;
    }
    db.execute("UPDATE STATISTICS")?;
    let tables: Vec<String> =
        std::iter::once("FACT".to_string()).chain((0..dims).map(|d| format!("DIM{d}"))).collect();
    let joins: Vec<String> = (0..dims).map(|d| format!("FACT.D{d} = DIM{d}.K")).collect();
    let sql = format!("SELECT FACT.PAD FROM {} WHERE {}", tables.join(","), joins.join(" AND "));
    Ok((db, sql))
}

/// The §6 EMPLOYEE database: `manager_span` employees per manager (so the
/// MANAGER column repeats and NCARD > ICARD — the clue for caching
/// correlated-subquery results).
pub fn employee_db(n: i64, manager_span: i64) -> DbResult<Database> {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE EMPLOYEE (NAME VARCHAR(20), SALARY FLOAT,
           EMPLOYEE_NUMBER INTEGER, MANAGER INTEGER, DEPARTMENT_NUMBER INTEGER)",
    )?;
    db.execute("CREATE TABLE DEPARTMENT (DEPARTMENT_NUMBER INTEGER, LOCATION VARCHAR(20))")?;
    db.insert_rows(
        "EMPLOYEE",
        (0..n).map(|i| {
            tuple![
                format!("E{i:05}"),
                1000.0 + ((i * 37) % 997) as f64 * 13.0,
                i,
                i / manager_span.max(1),
                i % 10
            ]
        }),
    )?;
    db.insert_rows(
        "DEPARTMENT",
        (0..10).map(|d| tuple![d, if d < 3 { "DENVER" } else { "ELSEWHERE" }]),
    )?;
    db.execute("CREATE UNIQUE INDEX E_NUM ON EMPLOYEE (EMPLOYEE_NUMBER)")?;
    db.execute("CREATE INDEX E_MGR ON EMPLOYEE (MANAGER)")?;
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

/// Gate an experiment's query on the `sysr-audit` plan invariants before
/// its numbers land in EXPERIMENTS.md: optimize with tracing, statically
/// verify the plan and search-trace accounting, execute with per-node
/// measurement and verify the executor's I/O accounting. Returns the
/// rendered violation report as the error, so a report can `?` it ahead
/// of the measured run.
///
/// Call this *before* `evict_buffers`/`reset_io_stats`: the audit
/// executes the query once and would otherwise pollute the measurement.
pub fn audit_plan(db: &Database, sql: &str) -> Result<(), String> {
    let report = db.audit(sql).map_err(|e| format!("audit of `{sql}` failed to run: {e}"))?;
    if report.ok() {
        Ok(())
    } else {
        Err(format!("plan audit failed for `{sql}`:\n{}", report.render()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_db_builds_and_answers() {
        let db = fig1_db(Fig1Params { n_emp: 500, ..Default::default() }).unwrap();
        let r = db.query(FIG1_SQL).unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn chain_and_star_parse_and_plan() {
        let (db, sql) = synth_chain_db(4, 200).unwrap();
        assert!(db.plan(&sql).unwrap().root.tables().len() == 4);
        let (db, sql) = star_db(4, 300, 50).unwrap();
        assert!(db.plan(&sql).unwrap().root.tables().len() == 4);
    }

    #[test]
    fn employee_db_has_repeating_managers() {
        let db = employee_db(200, 10).unwrap();
        let rel = db.catalog().relation_by_name("EMPLOYEE").unwrap();
        let mgr_col = rel.column_position("MANAGER").unwrap();
        assert_eq!(db.catalog().column_values_repeat(rel.id, mgr_col), Some(true));
    }
}
