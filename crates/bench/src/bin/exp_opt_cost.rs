//! §7 optimization-cost experiment: "For a two-way join, the cost of
//! optimization is approximately equivalent to between 5 and 20 database
//! retrievals. This number becomes even more insignificant when such a
//! path selector is placed in an environment such as System R, where
//! application programs are compiled once and run many times."
//!
//! We express optimization time in *database-retrieval equivalents*: the
//! measured wall-clock of access path selection (bind, join-order search
//! and plan assembly; the statement is parsed once, outside the clock, and
//! the plan cache is bypassed) divided by the measured wall-clock of one
//! RSS tuple retrieval on the same machine, and show the amortization over
//! repeated executions.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_opt_cost
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::time::Instant;
use sysr_bench::workloads::{audit_plan, fig1_db, synth_chain_db, Fig1Params, FIG1_SQL};
use sysr_core::{Optimizer, QueryPlan};
use sysr_sql::{parse_statement, Statement};
use system_r::Database;

/// Fastest of `reps` optimizations of `sql`, and the plan. This calls the
/// optimizer directly: `Database::plan` answers every call after the
/// first from its plan cache.
fn optimize_time(
    db: &Database,
    sql: &str,
    reps: usize,
) -> Result<(f64, QueryPlan), Box<dyn std::error::Error>> {
    let Statement::Select(stmt) = parse_statement(sql).map_err(|e| format!("{e:?}"))? else {
        return Err("not a SELECT".into());
    };
    let optimizer = Optimizer::with_config(db.catalog(), db.config());
    let mut best = f64::INFINITY;
    let mut plan = None;
    for _ in 0..reps {
        let start = Instant::now();
        plan = Some(optimizer.optimize(&stmt).map_err(|e| format!("{e:?}"))?);
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok((best, plan.ok_or("no optimization ran")?))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = fig1_db(Fig1Params { n_emp: 5000, n_dept: 50, ..Default::default() })?;

    // Calibrate: the cost of one database retrieval = average time per RSI
    // call over a warm segment scan.
    db.query("SELECT NAME FROM EMP")?; // warm
    let start = Instant::now();
    let mut calls = 0u64;
    for _ in 0..5 {
        db.reset_io_stats();
        db.query("SELECT NAME FROM EMP")?;
        calls += db.io_stats().rsi_calls;
    }
    let per_retrieval = start.elapsed().as_secs_f64() / calls as f64;
    println!("calibration: one tuple retrieval ≈ {:.2} µs on this machine\n", per_retrieval * 1e6);

    // ---- two-way join (the paper's reference point) -----------------------
    let two_way = "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC='DENVER'";
    audit_plan(&db, two_way)?;
    let (opt_time, _) = optimize_time(&db, two_way, 20)?;
    let retrieval_equiv = opt_time / per_retrieval;
    println!("two-way join optimization:");
    println!("  wall-clock:            {:.1} µs", opt_time * 1e6);
    println!(
        "  ≈ {retrieval_equiv:.1} database retrievals (paper: 'between 5 and 20 database retrievals')"
    );

    // ---- three-way (Fig. 1) and larger ------------------------------------
    println!("\noptimization cost by query size:");
    println!("{:<26} {:>12} {:>16} {:>14}", "query", "µs", "retrieval equiv", "plans costed");
    let run = |name: &str, db: &Database, sql: &str| -> Result<(), Box<dyn std::error::Error>> {
        audit_plan(db, sql)?;
        let (t, plan) = optimize_time(db, sql, 10)?;
        println!(
            "{:<26} {:>12.1} {:>16.1} {:>14}",
            name,
            t * 1e6,
            t / per_retrieval,
            plan.stats.plans_considered
        );
        Ok(())
    };
    run("two-way join", &db, two_way)?;
    run("three-way join (Fig. 1)", &db, FIG1_SQL)?;
    for n in [4usize, 6, 8] {
        let (chain_db, sql) = synth_chain_db(n, 500)?;
        run(&format!("{n}-way chain join"), &chain_db, &sql)?;
    }

    // ---- amortization -------------------------------------------------------
    db.evict_buffers()?;
    db.reset_io_stats();
    let start = Instant::now();
    db.query(two_way)?;
    let exec_time = start.elapsed().as_secs_f64();
    println!(
        "\namortization: executing the two-way join once costs {:.1} µs ({} page fetches);\n\
         optimization is {:.1}% of a single execution and is paid once per compilation.",
        exec_time * 1e6,
        db.io_stats().page_fetches(),
        100.0 * opt_time / exec_time
    );
    Ok(())
}
