//! §7 optimality experiment: "the true optimal path is selected in a
//! large majority of cases. In many cases, the ordering among the
//! estimated costs for all paths considered is precisely the same as that
//! among the actual measured costs."
//!
//! For every scenario × seed, enumerate every complete plan (heuristic
//! off), execute each one cold, and compare the optimizer's choice with
//! the measured best; report the optimal rate and the Spearman rank
//! correlation of predicted vs measured cost orderings.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_optimality
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::harness::{run_all_plans, spearman};
use sysr_bench::workloads::{audit_plan, fig1_db, two_table_db, Fig1Params, FIG1_SQL};
use system_r::Database;

struct Scenario {
    name: String,
    db: Database,
    sql: String,
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        out.push(Scenario {
            name: format!("fig1/seed{seed}"),
            db: fig1_db(Fig1Params { n_emp: 2000, n_dept: 25, seed, ..Default::default() })
                .unwrap(),
            sql: FIG1_SQL.to_string(),
        });
    }
    for (name, key_card, index_inner) in
        [("join/indexed", 400i64, true), ("join/unindexed", 400, false)]
    {
        out.push(Scenario {
            name: name.to_string(),
            db: two_table_db(800, 4000, key_card, 50, index_inner, true, 40, 16).unwrap(),
            sql: "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K AND OUTR.TAG = 3"
                .to_string(),
        });
    }
    out.push(Scenario {
        name: "single/range".into(),
        db: {
            let mut db = two_table_db(6000, 10, 1000, 50, false, false, 60, 16).unwrap();
            db.execute("CREATE CLUSTERED INDEX OUTR_K ON OUTR (K)").unwrap();
            db.execute("UPDATE STATISTICS").unwrap();
            db
        },
        sql: "SELECT PAD FROM OUTR WHERE K BETWEEN 100 AND 250".into(),
    });
    out
}

fn main() {
    println!("§7 OPTIMALITY: execute every enumerated plan, compare with the optimizer's choice\n");
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>7} {:>7}   chosen plan",
        "scenario", "plans", "chosen", "best", "ratio", "rho"
    );
    println!("{:-<100}", "");
    let mut optimal = 0usize;
    let mut total = 0usize;
    let mut rhos = Vec::new();
    for s in scenarios() {
        audit_plan(&s.db, &s.sql).unwrap();
        let (plans, idx) = run_all_plans(&s.db, &s.sql, 400).unwrap();
        let chosen = &plans[idx];
        let best = plans.iter().map(|m| m.measured).fold(f64::INFINITY, f64::min);
        let ratio = if best > 0.0 { chosen.measured / best } else { 1.0 };
        let pairs: Vec<(f64, f64)> = plans.iter().map(|m| (m.predicted, m.measured)).collect();
        let rho = spearman(&pairs);
        rhos.push(rho);
        total += 1;
        if ratio <= 1.05 {
            optimal += 1;
        }
        println!(
            "{:<16} {:>6} {:>12.1} {:>12.1} {:>7.2} {:>7.2}   {}",
            s.name,
            plans.len(),
            chosen.measured,
            best,
            ratio,
            rho,
            chosen.summary
        );
    }
    println!("{:-<100}", "");
    let mean_rho = rhos.iter().sum::<f64>() / rhos.len() as f64;
    println!(
        "\noptimal (within 5%) in {optimal}/{total} scenarios; mean Spearman(predicted, measured) = {mean_rho:.2}"
    );
    println!("paper: \"the true optimal path is selected in a large majority of cases\"");
}
