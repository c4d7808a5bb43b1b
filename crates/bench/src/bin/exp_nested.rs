//! §6 nested-query experiment: correlation subqueries are re-evaluated
//! per candidate tuple *unless* the referenced value repeats — the paper
//! uses NCARD > ICARD as the clue that re-evaluation can be skipped. Our
//! executor memoizes per referenced value; this experiment measures how
//! RSI traffic scales with the number of **distinct** managers rather
//! than the number of employees.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_nested
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

use sysr_bench::workloads::{audit_plan, employee_db};

const CORRELATED: &str = "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
    (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)";

const UNCORRELATED: &str =
    "SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)";

const THREE_LEVEL: &str = "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
    (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
      (SELECT MANAGER FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER))";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("CORRELATION SUBQUERIES (§6): memoized re-evaluation\n");
    let n = 2000i64;
    println!("EMPLOYEE has {n} rows; manager span sweeps the number of distinct managers.\n");
    println!(
        "{:<14} {:>18} {:>14} {:>14} {:>12}",
        "span", "distinct managers", "result rows", "RSI calls", "page fetches"
    );
    println!("{:-<78}", "");
    for span in [1i64, 2, 10, 50, 200, 2000] {
        let db = employee_db(n, span)?;
        audit_plan(&db, CORRELATED)?;
        db.evict_buffers()?;
        db.reset_io_stats();
        let r = db.query(CORRELATED)?;
        let io = db.io_stats();
        let distinct = n / span + i64::from(n % span != 0);
        println!(
            "{:<14} {:>18} {:>14} {:>14} {:>12}",
            span,
            distinct,
            r.len(),
            io.rsi_calls,
            io.page_fetches()
        );
    }
    println!("{:-<78}", "");
    println!(
        "\nRSI calls fall with the distinct-manager count even though all {n} candidate\n\
         tuples are tested: the subquery runs once per distinct X.MANAGER (the paper's\n\
         'if they are the same, the previous evaluation result can be used again',\n\
         generalized to a cache). NCARD > ICARD on MANAGER is exactly the catalog clue."
    );

    // Uncorrelated subqueries evaluate exactly once, regardless of outer size.
    let db = employee_db(n, 10)?;
    audit_plan(&db, UNCORRELATED)?;
    db.evict_buffers()?;
    db.reset_io_stats();
    db.query(UNCORRELATED)?;
    let io = db.io_stats();
    println!(
        "\nuncorrelated scalar subquery over the same {n} rows: {} RSI calls\n\
         (one full scan to compute the average, then only qualifying tuples cross the\n\
         RSI on the filtering scan — the subquery ran exactly once).",
        io.rsi_calls
    );

    // Three-level nesting from the paper.
    let db = employee_db(500, 5)?;
    audit_plan(&db, THREE_LEVEL)?;
    let r = db.query(THREE_LEVEL)?;
    println!(
        "\nthree-level nesting (§6's manager's-manager query) over 500 rows: {} qualifying rows.",
        r.len()
    );
    Ok(())
}
