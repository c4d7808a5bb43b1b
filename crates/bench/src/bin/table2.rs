//! Regenerate **Table 2** (single-relation access path cost formulas):
//! print each situation's formula and the cost our model computes for a
//! reference statistics profile, in both the literal 1979 form and our
//! Cardenas-refined form (DESIGN.md §6), then validate the cheapest-path
//! ordering against *measured* page fetches on a real relation.
//!
//! ```sh
//! cargo run -p sysr-bench --bin table2
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use sysr_bench::workloads::audit_plan;
use system_r::core::CostModel;
use system_r::{tuple, Config, Database};

fn main() {
    // Reference statistics: NCARD=10_000, TCARD=500, P=1, NINDX=40,
    // F(preds)=1/50, RSICARD=200, buffer=64, W=0.02.
    let m = CostModel::new(0.02, 64);
    let (f, nindx, ncard, tcard, rsicard) = (1.0 / 50.0, 40.0, 10_000.0, 500.0, 200.0);

    println!("TABLE 2 — COST FORMULAS (pages + W*RSI; NCARD=10000, TCARD=500, NINDX=40, F=1/50, RSICARD=200, buffer=64)");
    println!("{:-<108}", "");
    println!("{:<46} {:<34} {:>12} {:>12}", "situation", "paper formula", "paper cost", "refined");
    println!("{:-<108}", "");
    let rows: Vec<(&str, &str, f64, f64)> = vec![
        (
            "unique index matching an equal pred",
            "1 + 1 + W",
            m.total(m.unique_index_eq()),
            m.total(m.unique_index_eq()),
        ),
        (
            "clustered index matching boolean factor(s)",
            "F*(NINDX+TCARD) + W*RSICARD",
            m.total(m.clustered_matching(f, nindx, tcard, rsicard)),
            m.total(m.clustered_matching(f, nindx, tcard, rsicard)),
        ),
        (
            "non-clustered index matching factor(s)",
            "F*(NINDX+NCARD) [or TCARD variant]",
            m.total(m.nonclustered_matching_paper(f, nindx, ncard, tcard, rsicard)),
            m.total(m.nonclustered_matching(f, nindx, ncard, tcard, rsicard)),
        ),
        (
            "clustered index, no matching factors",
            "(NINDX+TCARD) + W*RSICARD",
            m.total(m.clustered_nonmatching(nindx, tcard, rsicard)),
            m.total(m.clustered_nonmatching(nindx, tcard, rsicard)),
        ),
        (
            "non-clustered index, no matching factors",
            "(NINDX+NCARD) [or TCARD variant]",
            m.total(m.nonclustered_nonmatching(nindx, ncard, tcard, rsicard)),
            m.total(m.nonclustered_nonmatching(nindx, ncard, tcard, rsicard)),
        ),
        (
            "segment scan",
            "TCARD/P + W*RSICARD",
            m.total(m.segment_scan(tcard, 1.0, rsicard)),
            m.total(m.segment_scan(tcard, 1.0, rsicard)),
        ),
    ];
    for (situation, formula, paper, refined) in rows {
        println!("{situation:<46} {formula:<34} {paper:>12.2} {refined:>12.2}");
    }
    println!("{:-<108}", "");
    println!(
        "\nOrdering check (clustered < segment < non-clustered for this profile), measured on a real relation:"
    );

    // Build three physically different versions of the same logical
    // relation and measure the same predicate on each.
    let measure = |clustered: Option<bool>| -> (String, u64, u64) {
        let mut db = Database::with_config(Config { buffer_pages: 64, ..Config::default() });
        db.execute("CREATE TABLE T (GRP INTEGER, PAD VARCHAR(60))").unwrap();
        db.insert_rows("T", (0..10_000).map(|i| tuple![(i * 7919) % 50, format!("p{i:057}")]))
            .unwrap();
        let label = match clustered {
            None => "segment scan only".to_string(),
            Some(true) => {
                db.execute("CREATE CLUSTERED INDEX T_GRP ON T (GRP)").unwrap();
                "clustered GRP index".to_string()
            }
            Some(false) => {
                db.execute("CREATE INDEX T_GRP ON T (GRP)").unwrap();
                "non-clustered GRP index".to_string()
            }
        };
        db.execute("UPDATE STATISTICS").unwrap();
        audit_plan(&db, "SELECT PAD FROM T WHERE GRP = 7").unwrap();
        db.evict_buffers().unwrap();
        db.reset_io_stats();
        let r = db.query("SELECT PAD FROM T WHERE GRP = 7").unwrap();
        let io = db.io_stats();
        assert_eq!(r.len(), 200);
        (label, io.page_fetches(), io.rsi_calls)
    };
    for variant in [Some(true), None, Some(false)] {
        let (label, pages, rsi) = measure(variant);
        println!("  {label:<28} measured: {pages:>6} page fetches, {rsi:>6} RSI calls");
    }
    println!(
        "\n(The optimizer picks whichever physical design's path is cheapest; see\n\
         `cargo run --example tuning` for the full walk-through.)"
    );
}
