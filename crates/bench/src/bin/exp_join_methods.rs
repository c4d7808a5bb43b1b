//! §5 join-method experiment (after Blasgen & Eswaran): nested loops vs
//! merging scans across outer cardinality and selectivity, showing the
//! crossover. For each configuration we report which method the optimizer
//! chose and the *measured* cost of the best plan of each method, so the
//! crossover is visible in both predicted and measured terms.
//!
//! ```sh
//! cargo run --release -p sysr-bench --bin exp_join_methods
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

use sysr_bench::harness::run_all_plans;
use sysr_bench::workloads::{audit_plan, two_table_db};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("JOIN METHODS: nested loops vs merging scans (inner: 8000 rows, K indexed)\n");
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>9}   optimizer chose",
        "outer restriction", "out rows", "best NL", "best merge", "winner"
    );
    println!("{:-<100}", "");

    // Sweep the effective outer size via the TAG filter's selectivity.
    // TAG has tag_card distinct values; TAG = 3 keeps n_outer / tag_card.
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
            "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K".to_string()
        } else {
            "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K AND OUTR.TAG = 1".to_string()
        };
        audit_plan(&db, &sql)?;
        let (plans, chosen_idx) = run_all_plans(&db, &sql, 300)?;
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
        println!(
            "{:<28} {:>10} {:>12.1} {:>12.1} {:>9}   {} ({})",
            label, out_rows, nl, mg, winner, chose, chosen.summary
        );
    }
    println!("{:-<100}", "");
    println!(
        "\npaper §5 (citing Blasgen & Eswaran): 'for other than very small relations, one of\n\
         [nested loops or merging scans] was always optimal or near optimal' — the crossover:\n\
         small restricted outers probe the inner index (NL); large outers amortize one sort\n\
         of the inner (merge)."
    );
    Ok(())
}
