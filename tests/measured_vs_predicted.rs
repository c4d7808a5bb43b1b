//! The §7 evaluation methodology as a test suite: "Evaluation work on
//! comparing the choices made to the 'right' choice … the true optimal
//! path is selected in a large majority of cases. In many cases, the
//! ordering among the estimated costs … is precisely the same as that
//! among the actual measured costs."
//!
//! For each scenario the experiments' harness
//! (`sysr_bench::harness::run_all_plans`) enumerates *every* complete plan
//! (heuristic off), executes each one cold and measures
//! `PAGE FETCHES + W * RSI CALLS`; the tests compare the optimizer's choice
//! against the measured optimum.

mod common;

use common::fig1_db;
use std::sync::OnceLock;
use sysr_bench::harness::{run_all_plans, spearman};
use sysr_bench::workloads::scatter;
use system_r::{tuple, Config, Database};

/// One scenario's outcome: the chosen plan's and the best plan's measured
/// cost, and the rank correlation between predicted and measured cost.
struct Outcome {
    name: &'static str,
    n_plans: usize,
    chosen: f64,
    best: f64,
    rho: f64,
}

struct Scenario {
    name: &'static str,
    db: Database,
    sql: &'static str,
}

fn small_buffer() -> Config {
    // A buffer far smaller than the working sets, so plan differences are
    // not erased by caching (System R's per-user buffer was small too).
    Config { buffer_pages: 16, ..Config::default() }
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    let pad = |i: i64| format!("p{i:057}");

    // Single relation, unique-index equal predicate (Table 2 situation 1).
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(60))").unwrap();
    db.insert_rows("T", (0..4000).map(|i| tuple![i, i % 40, pad(i)])).unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("CREATE INDEX T_GRP ON T (GRP)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario { name: "unique-eq", db, sql: "SELECT PAD FROM T WHERE K = 123" });

    // Equal predicate through a clustered index.
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(60))").unwrap();
    db.insert_rows("T", (0..4000).map(|i| tuple![i, i % 40, pad(i)])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_GRP ON T (GRP)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario { name: "clustered-eq", db, sql: "SELECT PAD FROM T WHERE GRP = 7" });

    // Clustered range.
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(60))").unwrap();
    db.insert_rows("T", (0..4000).map(|i| tuple![scatter(i, 4000), i % 40, pad(i)])).unwrap();
    db.execute("CREATE CLUSTERED INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario {
        name: "clustered-range",
        db,
        sql: "SELECT PAD FROM T WHERE K BETWEEN 100 AND 400",
    });

    // Order-by: sort vs scattered ordered index.
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE T (K INTEGER, GRP INTEGER, PAD VARCHAR(60))").unwrap();
    db.insert_rows("T", (0..3000).map(|i| tuple![scatter(i, 3000), i % 40, pad(i)])).unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario { name: "order-by", db, sql: "SELECT PAD FROM T ORDER BY K" });

    // Two-way join, selective outer with indexed inner: probes win big.
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE A (K INTEGER, TAG INTEGER, PAD VARCHAR(40))").unwrap();
    db.execute("CREATE TABLE B (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("A", (0..600).map(|i| tuple![i % 100, i % 60, format!("a{i:036}")])).unwrap();
    db.insert_rows("B", (0..6000i64).map(|i| tuple![i % 600, format!("b{i:036}")])).unwrap();
    db.execute("CREATE INDEX B_K ON B (K)").unwrap();
    // An index on TAG gives the optimizer the true 1/60 selectivity; with
    // no statistics it would guess the paper's 1/10 default and mis-size
    // the probe count (documented in EXPERIMENTS.md as an ablation).
    db.execute("CREATE INDEX A_TAG ON A (TAG)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario {
        name: "join-selective",
        db,
        sql: "SELECT A.PAD FROM A, B WHERE A.K = B.K AND A.TAG = 3",
    });

    // Two-way join, no helpful index on either side: merging scans win.
    let mut db = Database::with_config(small_buffer());
    db.execute("CREATE TABLE A (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.execute("CREATE TABLE B (K INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("A", (0..1500).map(|i| tuple![i % 400, format!("a{i:036}")])).unwrap();
    db.insert_rows("B", (0..1500i64).map(|i| tuple![i % 400, format!("b{i:036}")])).unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    out.push(Scenario {
        name: "join-unindexed",
        db,
        sql: "SELECT A.PAD FROM A, B WHERE A.K = B.K",
    });

    // The paper's three-way example.
    let mut db = fig1_db(2500, 25, 10);
    db.set_config(small_buffer()).unwrap();
    out.push(Scenario {
        name: "fig1",
        db,
        sql: "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB
              WHERE TITLE='CLERK' AND LOC='DENVER'
                AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB",
    });

    out
}

/// Every scenario, each measured once for both tests.
fn outcomes() -> &'static [Outcome] {
    static OUTCOMES: OnceLock<Vec<Outcome>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        scenarios()
            .into_iter()
            .map(|s| {
                let (plans, idx) = run_all_plans(&s.db, s.sql, 400).expect("every plan executes");
                let best = plans.iter().map(|m| m.measured).fold(f64::INFINITY, f64::min);
                let pairs: Vec<(f64, f64)> =
                    plans.iter().map(|m| (m.predicted, m.measured)).collect();
                let rho = spearman(&pairs);
                Outcome {
                    name: s.name,
                    n_plans: plans.len(),
                    chosen: plans[idx].measured,
                    best,
                    rho,
                }
            })
            .collect()
    })
}

#[test]
fn optimizer_picks_near_optimal_plans() {
    let mut optimal = 0;
    let mut near = 0;
    let mut total = 0;
    let mut report = String::new();
    for o in outcomes() {
        total += 1;
        let ratio = if o.best > 0.0 { o.chosen / o.best } else { 1.0 };
        // "True optimal" with a 5% tolerance: merge-join variants differ by
        // a handful of temp pages and tie in practice.
        if ratio <= 1.05 {
            optimal += 1;
        }
        if ratio <= 2.0 {
            near += 1;
        }
        report.push_str(&format!(
            "{:<16} plans={:<3} chosen={:>10.1} best={:>10.1} ratio={:>5.2} rho={:>5.2}\n",
            o.name, o.n_plans, o.chosen, o.best, ratio, o.rho
        ));
    }
    eprintln!("{report}");
    // "the true optimal path is selected in a large majority of cases"
    assert!(
        optimal * 2 > total,
        "optimal in {optimal}/{total} scenarios — expected a majority\n{report}"
    );
    // And never a catastrophe in these scenarios.
    assert_eq!(near, total, "all choices within 2x of measured best\n{report}");
}

#[test]
fn predicted_and_measured_orderings_correlate() {
    let rhos: Vec<f64> = outcomes().iter().filter(|o| o.n_plans >= 4).map(|o| o.rho).collect();
    let mean_rho = rhos.iter().sum::<f64>() / rhos.len() as f64;
    assert!(
        mean_rho > 0.5,
        "mean Spearman correlation between predicted and measured cost orderings = {mean_rho}"
    );
}
