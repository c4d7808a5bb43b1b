//! Regenerate **Figures 1-6**: the paper's worked example of the search.
//!
//! * Fig. 1 — the query (printed with the loaded schema's statistics);
//! * Fig. 2 — access paths for single relations with local predicates,
//!   showing which paths are pruned;
//! * Fig. 3 — the search tree for single relations (solutions saved per
//!   interesting order);
//! * Figs. 4/5 — the extended search tree for pairs (nested-loop and
//!   merging-scan candidates appear in the surviving solution table);
//! * Fig. 6 — the tree for all three relations and the chosen solution.
//!
//! ```sh
//! cargo run -p sysr-bench --bin fig_search_tree
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::harness::summarize_plan;
use sysr_bench::workloads::{audit_plan, fig1_db, Fig1Params, FIG1_SQL};
use system_r::core::{bind_select, Enumerator, TableSet};
use system_r::sql::{parse_statement, Statement};

fn main() {
    let p = Fig1Params { n_emp: 10_000, n_dept: 50, n_job: 10, ..Default::default() };
    let db = fig1_db(p).unwrap();
    audit_plan(&db, FIG1_SQL).unwrap();

    println!("=== Fig. 1: the example join query ===\n{FIG1_SQL}\n");
    for t in ["EMP", "DEPT", "JOB"] {
        let rel = db.catalog().relation_by_name(t).unwrap();
        let idx: Vec<String> = db
            .catalog()
            .indexes_on(rel.id)
            .map(|i| format!("{}(ICARD={}, NINDX={})", i.name, i.stats.icard, i.stats.nindx))
            .collect();
        println!(
            "  {t}: NCARD={}, TCARD={}, P={:.2}; indexes: {}",
            rel.stats.ncard,
            rel.stats.tcard,
            rel.stats.pfrac,
            if idx.is_empty() { "none".into() } else { idx.join(", ") }
        );
    }

    let Statement::Select(stmt) = parse_statement(FIG1_SQL).unwrap() else { unreachable!() };
    let bound = bind_select(db.catalog(), &stmt).unwrap();
    let enumerator = Enumerator::new(db.catalog(), &bound, db.config());

    println!("\n=== Fig. 2: access paths for single relations (local predicates only) ===");
    for t in 0..bound.tables.len() {
        let name = &bound.tables[t].name;
        println!("\n  {name}:");
        let cands = system_r::core::access::access_paths(&enumerator.ctx, t, TableSet::EMPTY);
        let w = db.config().w;
        let cheapest = cands.iter().map(|c| c.cost.total(w)).fold(f64::INFINITY, f64::min);
        // A path is pruned if some path with the same (or better-covering)
        // order is cheaper; unordered paths survive only as the cheapest.
        for c in &cands {
            let total = c.cost.total(w);
            let order = if c.order.is_empty() {
                "unordered".to_string()
            } else {
                format!("{:?} order", c.order.iter().map(|o| o.to_string()).collect::<Vec<_>>())
            };
            let pruned = c.order.is_empty() && total > cheapest + 1e-9;
            println!(
                "    {:<26} cost={:>9.2}  {:<22}{}",
                summarize_plan(&c.clone().into_plan()),
                total,
                order,
                if pruned { "  ← pruned (Fig. 2 'X')" } else { "" }
            );
        }
    }

    let (best, stats, tree) = enumerator.best_plan_with_tree();

    println!("\n=== Figs. 3-6: the search tree (surviving solutions per subset, per interesting order) ===");
    let w = db.config().w;
    for report in &tree {
        let names: Vec<&str> = report.set.iter().map(|t| bound.tables[t].name.as_str()).collect();
        let label = match report.set.len() {
            1 => "Fig. 3 (single relations)",
            2 => "Figs. 4/5 (pairs: nested loop + merge)",
            _ => "Fig. 6 (all three relations)",
        };
        println!("\n  ({}) — {label}", names.join(", "));
        for (key, plan) in &report.entries {
            let order = if key.is_empty() {
                "cheapest overall".to_string()
            } else {
                format!("order class {key:?}")
            };
            println!(
                "    {:<18} cost={:>9.2}  {}",
                order,
                plan.cost.total(w),
                summarize_plan(plan)
            );
        }
    }

    println!("\n=== Chosen solution ===");
    println!("{}", db.plan(FIG1_SQL).unwrap().explain(db.catalog()));
    println!("join order: {:?}", best.join_order());
    println!(
        "search: {} subsets, {} plans costed, {} kept, {} heuristic skips, {} bytes, {} µs",
        stats.subsets_examined,
        stats.plans_considered,
        stats.plans_kept,
        stats.heuristic_skips,
        stats.solution_bytes,
        stats.elapsed_micros
    );
}
