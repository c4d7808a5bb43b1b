//! §4/§5 interesting-orders experiment (ablation, DESIGN.md §6.1):
//! keeping the cheapest plan *per order equivalence class* lets the
//! optimizer avoid "the storage and sorting of intermediate query
//! results". Disabling it forces sorts back in.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_interesting_orders
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::workloads::audit_plan;
use system_r::core::{PlanExpr, PlanNode};
use system_r::{tuple, Config, Database};

fn count_sorts(p: &PlanExpr) -> usize {
    match &p.node {
        PlanNode::Sort { input, .. } => 1 + count_sorts(input),
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            count_sorts(outer) + count_sorts(inner)
        }
        PlanNode::Scan(_) => 0,
    }
}

fn build(buffer: usize, interesting: bool) -> Database {
    let mut db = Database::with_config(Config {
        buffer_pages: buffer,
        interesting_orders: interesting,
        ..Config::default()
    });
    db.execute("CREATE TABLE FACT (K INTEGER, GRP INTEGER, PAD VARCHAR(40))").unwrap();
    db.execute("CREATE TABLE DIM (K INTEGER, NAME VARCHAR(16))").unwrap();
    db.insert_rows(
        "FACT",
        (0..8000).map(|i| tuple![(i * 7919) % 500, i % 25, format!("p{i:036}")]),
    )
    .unwrap();
    db.insert_rows("DIM", (0..500).map(|k| tuple![k, format!("d{k}")])).unwrap();
    db.execute("CREATE CLUSTERED INDEX FACT_K ON FACT (K)").unwrap();
    db.execute("CREATE UNIQUE INDEX DIM_K ON DIM (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

fn main() {
    println!("INTERESTING-ORDER BOOKKEEPING (ablation)\n");
    let queries = [
        ("ORDER BY on indexed col", "SELECT PAD FROM FACT ORDER BY K"),
        ("merge-friendly join", "SELECT FACT.PAD, DIM.NAME FROM FACT, DIM WHERE FACT.K = DIM.K"),
        (
            "join + ORDER BY join col",
            "SELECT FACT.PAD FROM FACT, DIM WHERE FACT.K = DIM.K ORDER BY DIM.K",
        ),
        ("GROUP BY on indexed col", "SELECT K, COUNT(*) FROM FACT GROUP BY K"),
    ];
    println!(
        "{:<28} {:>12} {:>7} {:>14} {:>12} {:>7} {:>14}",
        "query", "cost(on)", "sorts", "measured(on)", "cost(off)", "sorts", "measured(off)"
    );
    println!("{:-<100}", "");
    for (name, sql) in queries {
        let mut row = Vec::new();
        for interesting in [true, false] {
            let db = build(16, interesting);
            let plan = db.plan(sql).unwrap();
            let sorts = count_sorts(&plan.root);
            audit_plan(&db, sql).unwrap();
            db.evict_buffers().unwrap();
            db.reset_io_stats();
            db.query(sql).unwrap();
            let measured = system_r::core::Cost::from_io(&db.io_stats()).total(db.config().w);
            row.push((plan.root.cost.total(db.config().w), sorts, measured));
        }
        println!(
            "{:<28} {:>12.1} {:>7} {:>14.1} {:>12.1} {:>7} {:>14.1}",
            name, row[0].0, row[0].1, row[0].2, row[1].0, row[1].1, row[1].2
        );
    }
    println!("{:-<100}", "");
    println!(
        "\n'on' = cheapest plan kept per interesting-order equivalence class (the paper);\n\
         'off' = single cheapest plan per subset. With the bookkeeping the optimizer rides\n\
         index order into merges / ORDER BY / GROUP BY; without it the plans re-sort."
    );
}
