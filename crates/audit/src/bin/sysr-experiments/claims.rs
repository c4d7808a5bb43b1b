//! The paper's claims about join methods (§5), nested queries (§6) and
//! the optimizer itself (§7): optimality, optimization cost and search
//! scaling.

use std::fmt::Write as _;
use std::time::Instant;

use crate::{Report, Res};
use sysr_audit::harness::{run_all_plans, spearman};
use sysr_audit::workloads::{
    audit_plan, employee_db, fig1_db, star_db, synth_chain_db, two_table_db, Fig1Params, FIG1_SQL,
};
use system_r::core::Optimizer;
use system_r::sql::{parse_statement, Statement};
use system_r::{Config, Database, DbResult};

/// §5 (after Blasgen & Eswaran): nested loops vs merging scans across
/// outer cardinality, showing the crossover. For each configuration,
/// which method the optimizer chose and the *measured* cost of the best
/// plan of each method.
pub fn exp_join_methods(r: &mut Report) -> Res {
    let out = &mut r.out;
    writeln!(out, "JOIN METHODS: nested loops vs merging scans (inner: 8000 rows, K indexed)\n")?;
    writeln!(
        out,
        "{:<28} {:>10} {:>12} {:>12} {:>9}   optimizer chose",
        "outer restriction", "out rows", "best NL", "best merge", "winner"
    )?;
    writeln!(out, "{:-<100}", "")?;

    // Sweep the effective outer size via the TAG filter's selectivity.
    // TAG has tag_card distinct values; TAG = 1 keeps n_outer / tag_card.
    for (tag_card, label) in [
        (800i64, "outer ≈ 5 rows"),
        (200, "outer ≈ 20 rows"),
        (50, "outer ≈ 80 rows"),
        (10, "outer ≈ 400 rows"),
        (2, "outer ≈ 2000 rows"),
        (1, "outer = 4000 rows"),
    ] {
        let db = two_table_db(4000, 8000, 500, tag_card, true, true, 40, 16)?;
        let sql = if tag_card == 1 {
            "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K"
        } else {
            "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K AND OUTR.TAG = 1"
        };
        audit_plan(&db, sql)?;
        let (plans, chosen_idx) = run_all_plans(&db, sql, 300)?;
        let best_of = |tag: &str| -> f64 {
            plans
                .iter()
                .filter(|m| m.summary.starts_with(tag))
                .map(|m| m.measured)
                .fold(f64::INFINITY, f64::min)
        };
        let nl = best_of("NL");
        let mg = best_of("MG");
        let winner = if nl < mg { "NL" } else { "merge" };
        let chosen = &plans[chosen_idx];
        let chose = if chosen.summary.starts_with("NL") { "NL" } else { "merge" };
        let out_rows = 4000 / tag_card;
        writeln!(
            out,
            "{:<28} {:>10} {:>12.1} {:>12.1} {:>9}   {} ({})",
            label, out_rows, nl, mg, winner, chose, chosen.summary
        )?;
    }
    writeln!(out, "{:-<100}", "")?;
    writeln!(
        out,
        "\npaper §5 (citing Blasgen & Eswaran): 'for other than very small relations, one of\n\
         [nested loops or merging scans] was always optimal or near optimal' — the crossover:\n\
         small restricted outers probe the inner index (NL); large outers amortize one sort\n\
         of the inner (merge)."
    )?;
    Ok(())
}

const CORRELATED: &str = "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
    (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER)";

const UNCORRELATED: &str =
    "SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)";

const THREE_LEVEL: &str = "SELECT NAME FROM EMPLOYEE X WHERE SALARY >
    (SELECT SALARY FROM EMPLOYEE WHERE EMPLOYEE_NUMBER =
      (SELECT MANAGER FROM EMPLOYEE WHERE EMPLOYEE_NUMBER = X.MANAGER))";

/// §6: correlation subqueries are re-evaluated per candidate tuple
/// *unless* the referenced value repeats — the paper uses NCARD > ICARD
/// as the clue that re-evaluation can be skipped. Our executor memoizes
/// per referenced value; this measures how RSI traffic scales with the
/// number of **distinct** managers rather than the number of employees.
pub fn exp_nested(r: &mut Report) -> Res {
    let out = &mut r.out;
    writeln!(out, "CORRELATION SUBQUERIES (§6): memoized re-evaluation\n")?;
    let n = 2000i64;
    writeln!(out, "EMPLOYEE has {n} rows; manager span sweeps the number of distinct managers.\n")?;
    writeln!(
        out,
        "{:<14} {:>18} {:>14} {:>14} {:>12}",
        "span", "distinct managers", "result rows", "RSI calls", "page fetches"
    )?;
    writeln!(out, "{:-<78}", "")?;
    for span in [1i64, 2, 10, 50, 200, 2000] {
        let db = employee_db(n, span)?;
        audit_plan(&db, CORRELATED)?;
        db.evict_buffers()?;
        db.reset_io_stats();
        let rows = db.query(CORRELATED)?.len();
        let io = db.io_stats();
        let distinct = n / span + i64::from(n % span != 0);
        writeln!(
            out,
            "{:<14} {:>18} {:>14} {:>14} {:>12}",
            span,
            distinct,
            rows,
            io.rsi_calls,
            io.page_fetches()
        )?;
    }
    writeln!(out, "{:-<78}", "")?;
    writeln!(
        out,
        "\nRSI calls fall with the distinct-manager count even though all {n} candidate\n\
         tuples are tested: the subquery runs once per distinct X.MANAGER (the paper's\n\
         'if they are the same, the previous evaluation result can be used again',\n\
         generalized to a cache). NCARD > ICARD on MANAGER is exactly the catalog clue."
    )?;

    // Uncorrelated subqueries evaluate exactly once, regardless of outer size.
    let db = employee_db(n, 10)?;
    audit_plan(&db, UNCORRELATED)?;
    db.evict_buffers()?;
    db.reset_io_stats();
    db.query(UNCORRELATED)?;
    writeln!(
        out,
        "\nuncorrelated scalar subquery over the same {n} rows: {} RSI calls\n\
         (one full scan to compute the average, then only qualifying tuples cross the\n\
         RSI on the filtering scan — the subquery ran exactly once).",
        db.io_stats().rsi_calls
    )?;

    // Three-level nesting from the paper.
    let db = employee_db(500, 5)?;
    audit_plan(&db, THREE_LEVEL)?;
    writeln!(
        out,
        "\nthree-level nesting (§6's manager's-manager query) over 500 rows: {} qualifying rows.",
        db.query(THREE_LEVEL)?.len()
    )?;
    Ok(())
}

/// §7: "the true optimal path is selected in a large majority of cases.
/// In many cases, the ordering among the estimated costs for all paths
/// considered is precisely the same as that among the actual measured
/// costs." For every scenario, enumerate every complete plan (heuristic
/// off), execute each one cold, and compare the optimizer's choice with
/// the measured best; report the optimal rate and the Spearman rank
/// correlation of predicted vs measured cost orderings.
pub fn exp_optimality(r: &mut Report) -> Res {
    let join = "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K AND OUTR.TAG = 3";
    let mut scenarios: Vec<(String, Database, &str)> = Vec::new();
    for seed in [1u64, 2, 3] {
        let db = fig1_db(Fig1Params { n_emp: 2000, n_dept: 25, seed, ..Default::default() })?;
        scenarios.push((format!("fig1/seed{seed}"), db, FIG1_SQL));
    }
    for (name, index_inner) in [("join/indexed", true), ("join/unindexed", false)] {
        let db = two_table_db(800, 4000, 400, 50, index_inner, true, 40, 16)?;
        scenarios.push((name.to_string(), db, join));
    }
    let mut db = two_table_db(6000, 10, 1000, 50, false, false, 60, 16)?;
    db.execute("CREATE CLUSTERED INDEX OUTR_K ON OUTR (K)")?;
    db.execute("UPDATE STATISTICS")?;
    scenarios.push(("single/range".into(), db, "SELECT PAD FROM OUTR WHERE K BETWEEN 100 AND 250"));

    let out = &mut r.out;
    writeln!(
        out,
        "§7 OPTIMALITY: execute every enumerated plan, compare with the optimizer's choice\n"
    )?;
    writeln!(
        out,
        "{:<16} {:>6} {:>12} {:>12} {:>7} {:>7}   chosen plan",
        "scenario", "plans", "chosen", "best", "ratio", "rho"
    )?;
    writeln!(out, "{:-<100}", "")?;
    let mut optimal = 0usize;
    let mut rhos = Vec::new();
    for (name, db, sql) in &scenarios {
        audit_plan(db, sql)?;
        let (plans, idx) = run_all_plans(db, sql, 400)?;
        let chosen = &plans[idx];
        let best = plans.iter().map(|m| m.measured).fold(f64::INFINITY, f64::min);
        let ratio = if best > 0.0 { chosen.measured / best } else { 1.0 };
        let pairs: Vec<(f64, f64)> = plans.iter().map(|m| (m.predicted, m.measured)).collect();
        let rho = spearman(&pairs);
        rhos.push(rho);
        if ratio <= 1.05 {
            optimal += 1;
        }
        writeln!(
            out,
            "{:<16} {:>6} {:>12.1} {:>12.1} {:>7.2} {:>7.2}   {}",
            name,
            plans.len(),
            chosen.measured,
            best,
            ratio,
            rho,
            chosen.summary
        )?;
    }
    writeln!(out, "{:-<100}", "")?;
    let mean_rho = rhos.iter().sum::<f64>() / rhos.len() as f64;
    writeln!(
        out,
        "\noptimal (within 5%) in {optimal}/{} scenarios; mean Spearman(predicted, measured) = {mean_rho:.2}",
        scenarios.len()
    )?;
    writeln!(out, "paper: \"the true optimal path is selected in a large majority of cases\"")?;
    Ok(())
}

/// Fastest of `reps` optimizations of `sql` in seconds, and the plans it
/// costed. This calls the optimizer directly: `Database::plan` answers
/// every call after the first from its plan cache.
fn optimize_time(db: &Database, sql: &str, reps: usize) -> DbResult<(f64, u64)> {
    let Statement::Select(stmt) = parse_statement(sql)? else {
        return Err(system_r::DbError::Unsupported("optimize_time takes a SELECT".into()));
    };
    let optimizer = Optimizer::with_config(db.catalog(), db.config());
    let mut best = f64::INFINITY;
    let mut plans = 0;
    for _ in 0..reps {
        let start = Instant::now();
        plans = optimizer.optimize(&stmt)?.stats.plans_considered;
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok((best, plans))
}

/// §7: "For a two-way join, the cost of optimization is approximately
/// equivalent to between 5 and 20 database retrievals. This number
/// becomes even more insignificant when such a path selector is placed in
/// an environment such as System R, where application programs are
/// compiled once and run many times."
///
/// Optimization time is expressed in *database-retrieval equivalents*:
/// the measured wall-clock of access path selection (bind, join-order
/// search and plan assembly; the statement is parsed once, outside the
/// clock, and the plan cache is bypassed) divided by the measured
/// wall-clock of one RSS tuple retrieval on the same machine. The plan
/// counts and the page fetches are checked; the times are not.
pub fn exp_opt_cost(r: &mut Report) -> Res {
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

    let two_way = "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC='DENVER'";
    let chains = [4usize, 6, 8]
        .into_iter()
        .map(|n| Ok((format!("{n}-way chain join"), synth_chain_db(n, 500)?)))
        .collect::<DbResult<Vec<_>>>()?;
    let mut queries = vec![
        ("two-way join".to_string(), &db, two_way),
        ("three-way join (Fig. 1)".to_string(), &db, FIG1_SQL),
    ];
    queries.extend(chains.iter().map(|(name, (chain, sql))| (name.clone(), chain, sql.as_str())));

    writeln!(r.out, "§7 OPTIMIZATION COST: access path selection, paid once per compilation\n")?;
    writeln!(r.out, "{:<26} {:>14}", "query", "plans costed")?;
    writeln!(
        r.timing,
        "calibration: one tuple retrieval ≈ {:.2} µs on this machine\n",
        per_retrieval * 1e6
    )?;
    writeln!(r.timing, "{:<26} {:>12} {:>16}", "query", "µs", "retrieval equiv")?;
    let mut two_way_time = 0.0;
    for (name, db, sql) in &queries {
        audit_plan(db, sql)?;
        let (t, plans) = optimize_time(db, sql, 20)?;
        if *sql == two_way {
            two_way_time = t;
        }
        writeln!(r.out, "{name:<26} {plans:>14}")?;
        writeln!(r.timing, "{name:<26} {:>12.1} {:>16.1}", t * 1e6, t / per_retrieval)?;
    }
    writeln!(
        r.timing,
        "\npaper: a two-way join optimizes in 'between 5 and 20 database retrievals'"
    )?;

    // Amortization: one cold execution of the two-way join.
    db.evict_buffers()?;
    db.reset_io_stats();
    let start = Instant::now();
    db.query(two_way)?;
    let exec_time = start.elapsed().as_secs_f64();
    writeln!(
        r.out,
        "\none cold execution of the two-way join: {} page fetches",
        db.io_stats().page_fetches()
    )?;
    writeln!(
        r.timing,
        "\namortization: executing the two-way join once costs {:.1} µs;\n\
         optimization is {:.1}% of a single execution and is paid once per compilation.",
        exec_time * 1e6,
        100.0 * two_way_time / exec_time
    )?;
    Ok(())
}

fn clique_db(n: usize, rows: i64) -> DbResult<(Database, String)> {
    let mut db = Database::new();
    for i in 0..n {
        db.execute(&format!("CREATE TABLE C{i} (K INTEGER, PAD VARCHAR(16))"))?;
        db.insert_rows(
            &format!("C{i}"),
            (0..rows).map(|r| system_r::tuple![r % 64, format!("p{r:010}")]),
        )?;
        db.execute(&format!("CREATE INDEX C{i}_K ON C{i} (K)"))?;
    }
    db.execute("UPDATE STATISTICS")?;
    let tables: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
    let mut joins = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            joins.push(format!("C{i}.K = C{j}.K"));
        }
    }
    Ok((db, format!("SELECT C0.PAD FROM {} WHERE {}", tables.join(","), joins.join(" AND "))))
}

/// §7 search scaling: "The number of solutions which must be stored is
/// at most 2^n (the number of subsets of n tables) times the number of
/// interesting result orders … typical cases require only a few thousand
/// bytes of storage and a few tenths of a second of CPU time. Joins of 8
/// tables have been optimized in a few seconds." Sweeps n over chain,
/// star and clique join graphs with the Cartesian-deferral heuristic.
pub fn exp_scaling(r: &mut Report) -> Res {
    scaling(r, true)
}

/// [`exp_scaling`] with the heuristic off: the ablation of DESIGN.md §6.2.
pub fn exp_scaling_no_heuristic(r: &mut Report) -> Res {
    scaling(r, false)
}

fn scaling(r: &mut Report, heuristic: bool) -> Res {
    writeln!(
        r.out,
        "JOIN-ORDER SEARCH SCALING ({})\n",
        if heuristic { "with Cartesian deferral" } else { "heuristic DISABLED (ablation)" }
    )?;
    writeln!(
        r.out,
        "{:<8} {:>3} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "shape", "n", "plans", "kept", "skips", "bytes", "2^n bound"
    )?;
    writeln!(r.out, "{:-<73}", "")?;
    writeln!(r.timing, "{:<8} {:>3} {:>12}", "shape", "n", "µs")?;
    for n in [2usize, 3, 4, 5, 6, 7, 8, 9, 10] {
        // Clique join predicates grow O(n²), so cliques stop at 8.
        let shapes: &[&str] =
            if n <= 8 { &["chain", "star", "clique"] } else { &["chain", "star"] };
        for &shape in shapes {
            let (mut db, sql) = match shape {
                "chain" => synth_chain_db(n, 300)?,
                "star" => star_db(n, 500, 60)?,
                _ => clique_db(n, 200)?,
            };
            if !heuristic {
                db.set_config(Config { defer_cartesian: false, ..db.config() })?;
            }
            // Audit the smaller instances only: the audit executes the
            // query once, and large cliques join to hundreds of thousands
            // of rows. (`Database::audit` bypasses the plan cache, so the
            // timed `plan` below still measures a fresh optimization.)
            if n <= 6 {
                audit_plan(&db, &sql)?;
            }
            let s = db.plan(&sql)?.stats;
            writeln!(
                r.out,
                "{:<8} {:>3} {:>12} {:>10} {:>10} {:>12} {:>10}",
                shape,
                n,
                s.plans_considered,
                s.plans_kept,
                s.heuristic_skips,
                s.solution_bytes,
                1u64 << n
            )?;
            writeln!(r.timing, "{:<8} {:>3} {:>12}", shape, n, s.elapsed_micros)?;
        }
    }
    writeln!(r.out, "{:-<73}", "")?;
    writeln!(
        r.out,
        "\npaper: 'a few thousand bytes … a few tenths of a second of CPU time; joins of 8\n\
         tables have been optimized in a few seconds' (1979 hardware — shape preserved,\n\
         modern constants are microseconds; see the timing section)."
    )?;
    Ok(())
}
