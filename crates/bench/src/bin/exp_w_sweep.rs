//! W-sweep ablation (DESIGN.md §6.3): the paper's cost is
//! `PAGE FETCHES + W * RSI CALLS` with W "an adjustable weighting factor
//! between I/O and CPU". Because SARGs equalize tuple traffic across
//! access paths for sargable predicates, W acts where plans differ in RSI
//! volume — most visibly between sort-based and index-ordered plans, whose
//! tuple traffic differs by the temp-list read-back.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_w_sweep
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::harness::summarize_plan;
use sysr_bench::workloads::audit_plan;
use system_r::{tuple, Config, Database};

fn build(w: f64) -> Database {
    let mut db = Database::with_config(Config { w, buffer_pages: 16, ..Config::default() });
    db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(60))").unwrap();
    db.insert_rows("T", (0..20_000).map(|i| tuple![(i * 7919) % 20_000, format!("p{i:057}")]))
        .unwrap();
    db.execute("CREATE UNIQUE INDEX T_K ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

fn main() {
    let sql = "SELECT PAD FROM T ORDER BY K";
    println!("W SWEEP: {sql}\n(20k rows, K scattered, unique unclustered index on K, buffer 16)\n");
    println!("{:<8} {:>14} {:>14} {:<40}", "W", "pred. pages", "pred. rsi", "chosen plan");
    println!("{:-<80}", "");
    let mut last = String::new();
    let mut flip_at = None;
    for &w in &[0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let db = build(w);
        audit_plan(&db, sql).unwrap();
        let plan = db.plan(sql).unwrap();
        let summary = summarize_plan(&plan.root);
        if !last.is_empty() && summary != last && flip_at.is_none() {
            flip_at = Some(w);
        }
        println!(
            "{:<8} {:>14.1} {:>14.1} {:<40}",
            w, plan.root.cost.pages, plan.root.cost.rsi, summary
        );
        last = summary;
    }
    println!("{:-<80}", "");
    match flip_at {
        Some(w) => println!(
            "\nplan flips at W ≈ {w}: below, pages dominate and the sort (which reads every\n\
             tuple twice) is cheapest; above, tuple traffic dominates and the ordered index\n\
             (one retrieval per tuple, many more pages) wins."
        ),
        None => println!("\nno flip observed in this sweep"),
    }
}
