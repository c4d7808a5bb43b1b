//! §7 search-scaling experiment: "The number of solutions which must be
//! stored is at most 2^n (the number of subsets of n tables) times the
//! number of interesting result orders … typical cases require only a few
//! thousand bytes of storage and a few tenths of a second of CPU time.
//! Joins of 8 tables have been optimized in a few seconds."
//!
//! Sweeps n over chain, star, and clique join graphs, with and without
//! the Cartesian-deferral heuristic (the ablation of DESIGN.md §6.2).
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_scaling [--no-heuristic]
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::workloads::{audit_plan, star_db, synth_chain_db};
use system_r::{Config, Database};

fn clique_db(n: usize, rows: i64) -> (Database, String) {
    let mut db = Database::new();
    for i in 0..n {
        db.execute(&format!("CREATE TABLE C{i} (K INTEGER, PAD VARCHAR(16))")).unwrap();
        db.insert_rows(
            &format!("C{i}"),
            (0..rows).map(|r| system_r::tuple![r % 64, format!("p{r:010}")]),
        )
        .unwrap();
        db.execute(&format!("CREATE INDEX C{i}_K ON C{i} (K)")).unwrap();
    }
    db.execute("UPDATE STATISTICS").unwrap();
    let tables: Vec<String> = (0..n).map(|i| format!("C{i}")).collect();
    let mut joins = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            joins.push(format!("C{i}.K = C{j}.K"));
        }
    }
    (db, format!("SELECT C0.PAD FROM {} WHERE {}", tables.join(","), joins.join(" AND ")))
}

fn main() {
    let no_heuristic = std::env::args().any(|a| a == "--no-heuristic");
    println!(
        "JOIN-ORDER SEARCH SCALING ({})\n",
        if no_heuristic { "heuristic DISABLED (ablation)" } else { "with Cartesian deferral" }
    );
    println!(
        "{:<8} {:>3} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "shape", "n", "plans", "kept", "skips", "bytes", "µs", "2^n bound"
    );
    println!("{:-<86}", "");
    for n in [2usize, 3, 4, 5, 6, 7, 8, 9, 10] {
        for (shape, build) in [
            ("chain", true),
            ("star", true),
            ("clique", n <= 8), // clique join predicates grow O(n²)
        ] {
            if !build {
                continue;
            }
            let (mut db, sql) = match shape {
                "chain" => synth_chain_db(n, 300).unwrap(),
                "star" => star_db(n.max(2), 500, 60).unwrap(),
                _ => clique_db(n, 200),
            };
            if no_heuristic {
                db.set_config(Config { defer_cartesian: false, ..db.config() }).unwrap();
            }
            // Audit the smaller instances only: the audit executes the
            // query once, and large cliques join to hundreds of thousands
            // of rows. (`Database::audit` bypasses the plan cache, so the
            // timed `plan` below still measures a fresh optimization.)
            if n <= 6 {
                audit_plan(&db, &sql).unwrap();
            }
            let plan = db.plan(&sql).unwrap();
            let s = plan.stats;
            println!(
                "{:<8} {:>3} {:>12} {:>10} {:>10} {:>12} {:>12} {:>10}",
                shape,
                n,
                s.plans_considered,
                s.plans_kept,
                s.heuristic_skips,
                s.solution_bytes,
                s.elapsed_micros,
                1u64 << n
            );
        }
    }
    println!("{:-<86}", "");
    println!(
        "\npaper: 'a few thousand bytes … a few tenths of a second of CPU time; joins of 8\n\
         tables have been optimized in a few seconds' (1979 hardware — shape preserved,\n\
         modern constants are microseconds)."
    );
    if !no_heuristic {
        println!("run with --no-heuristic for the ablation (DESIGN.md §6.2).");
    }
}
