//! Sweeps and ablations of the cost model's knobs and assumptions:
//! interesting-order bookkeeping, the W weight, Table 1's uniformity
//! assumption under skew and Table 2's buffer-fit variants.

use std::fmt::Write as _;

use crate::{Report, Res};
use sysr_audit::harness::summarize_plan;
use sysr_audit::workloads::audit_plan;
use system_r::core::{Access, Cost, PlanExpr, PlanNode};
use system_r::rss::SplitMix64;
use system_r::{tuple, Config, Database, DbResult};

/// A single-table plan's access path, as the reports name it.
fn path_kind(plan: &PlanExpr) -> &'static str {
    match &plan.node {
        PlanNode::Scan(s) => match &s.access {
            Access::Segment => "segment scan",
            Access::Index { .. } => "index probe",
        },
        _ => "?",
    }
}

fn count_sorts(p: &PlanExpr) -> usize {
    match &p.node {
        PlanNode::Sort { input, .. } => 1 + count_sorts(input),
        PlanNode::NestedLoop { outer, inner } | PlanNode::Merge { outer, inner, .. } => {
            count_sorts(outer) + count_sorts(inner)
        }
        PlanNode::Scan(_) => 0,
    }
}

fn orders_db(interesting: bool) -> DbResult<Database> {
    let mut db = Database::with_config(Config {
        buffer_pages: 16,
        interesting_orders: interesting,
        ..Config::default()
    });
    db.execute("CREATE TABLE FACT (K INTEGER, GRP INTEGER, PAD VARCHAR(40))")?;
    db.execute("CREATE TABLE DIM (K INTEGER, NAME VARCHAR(16))")?;
    db.insert_rows(
        "FACT",
        (0..8000).map(|i| tuple![(i * 7919) % 500, i % 25, format!("p{i:036}")]),
    )?;
    db.insert_rows("DIM", (0..500).map(|k| tuple![k, format!("d{k}")]))?;
    db.execute("CREATE CLUSTERED INDEX FACT_K ON FACT (K)")?;
    db.execute("CREATE UNIQUE INDEX DIM_K ON DIM (K)")?;
    db.execute("UPDATE STATISTICS")?;
    Ok(db)
}

/// §4/§5 interesting orders (ablation, DESIGN.md §6.1): keeping the
/// cheapest plan *per order equivalence class* lets the optimizer avoid
/// "the storage and sorting of intermediate query results". Disabling it
/// forces sorts back in.
pub fn exp_interesting_orders(r: &mut Report) -> Res {
    let out = &mut r.out;
    writeln!(out, "INTERESTING-ORDER BOOKKEEPING (ablation)\n")?;
    let queries = [
        ("ORDER BY on indexed col", "SELECT PAD FROM FACT ORDER BY K"),
        ("merge-friendly join", "SELECT FACT.PAD, DIM.NAME FROM FACT, DIM WHERE FACT.K = DIM.K"),
        (
            "join + ORDER BY join col",
            "SELECT FACT.PAD FROM FACT, DIM WHERE FACT.K = DIM.K ORDER BY DIM.K",
        ),
        ("GROUP BY on indexed col", "SELECT K, COUNT(*) FROM FACT GROUP BY K"),
    ];
    writeln!(
        out,
        "{:<28} {:>12} {:>7} {:>14} {:>12} {:>7} {:>14}",
        "query", "cost(on)", "sorts", "measured(on)", "cost(off)", "sorts", "measured(off)"
    )?;
    writeln!(out, "{:-<100}", "")?;
    for (name, sql) in queries {
        write!(out, "{name:<28}")?;
        for interesting in [true, false] {
            let db = orders_db(interesting)?;
            let plan = db.plan(sql)?;
            audit_plan(&db, sql)?;
            db.evict_buffers()?;
            db.reset_io_stats();
            db.query(sql)?;
            let w = db.config().w;
            let measured = Cost::from_io(&db.io_stats()).total(w);
            let (cost, sorts) = (plan.root.cost.total(w), count_sorts(&plan.root));
            write!(out, " {cost:>12.1} {sorts:>7} {measured:>14.1}")?;
        }
        writeln!(out)?;
    }
    writeln!(out, "{:-<100}", "")?;
    writeln!(
        out,
        "\n'on' = cheapest plan kept per interesting-order equivalence class (the paper);\n\
         'off' = single cheapest plan per subset. With the bookkeeping the optimizer rides\n\
         index order into merges / ORDER BY / GROUP BY; without it the plans re-sort."
    )?;
    Ok(())
}

/// W sweep (ablation, DESIGN.md §6.3): the paper's cost is
/// `PAGE FETCHES + W * RSI CALLS` with W "an adjustable weighting factor
/// between I/O and CPU". Because SARGs equalize tuple traffic across
/// access paths for sargable predicates, W acts where plans differ in RSI
/// volume — most visibly between sort-based and index-ordered plans,
/// whose tuple traffic differs by the temp-list read-back.
pub fn exp_w_sweep(r: &mut Report) -> Res {
    let sql = "SELECT PAD FROM T ORDER BY K";
    let out = &mut r.out;
    writeln!(
        out,
        "W SWEEP: {sql}\n(20k rows, K scattered, unique unclustered index on K, buffer 16)\n"
    )?;
    writeln!(out, "{:<8} {:>14} {:>14} {:<40}", "W", "pred. pages", "pred. rsi", "chosen plan")?;
    writeln!(out, "{:-<80}", "")?;
    let mut last = String::new();
    let mut flip_at = None;
    for w in [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut db = Database::with_config(Config { w, buffer_pages: 16, ..Config::default() });
        db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(60))")?;
        db.insert_rows("T", (0..20_000).map(|i| tuple![(i * 7919) % 20_000, format!("p{i:057}")]))?;
        db.execute("CREATE UNIQUE INDEX T_K ON T (K)")?;
        db.execute("UPDATE STATISTICS")?;
        audit_plan(&db, sql)?;
        let plan = db.plan(sql)?;
        let summary = summarize_plan(&plan.root);
        if !last.is_empty() && summary != last && flip_at.is_none() {
            flip_at = Some(w);
        }
        writeln!(
            out,
            "{:<8} {:>14.1} {:>14.1} {:<40}",
            w, plan.root.cost.pages, plan.root.cost.rsi, summary
        )?;
        last = summary;
    }
    writeln!(out, "{:-<80}", "")?;
    match flip_at {
        Some(w) => writeln!(
            out,
            "\nplan flips at W ≈ {w}: below, pages dominate and the sort (which reads every\n\
             tuple twice) is cheapest; above, tuple traffic dominates and the ordered index\n\
             (one retrieval per tuple, many more pages) wins."
        )?,
        None => writeln!(out, "\nno flip observed in this sweep")?,
    }
    Ok(())
}

/// Draw from a Zipf(s) distribution over 1..=n by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf: weights }
    }

    fn sample(&self, rng: &mut SplitMix64) -> i64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as i64
    }
}

/// Skew: Table 1's equal-predicate rule "assumes an even distribution of
/// tuples among the index key values". The same relation loaded with
/// uniform and Zipf-distributed keys; the optimizer's cardinality
/// estimate (and plan) against the truth for the most- and
/// least-frequent keys.
pub fn exp_skew(r: &mut Report) -> Res {
    let n = 20_000usize;
    let domain = 50usize;
    let mut rng = SplitMix64::new(7);

    let uniform: Vec<i64> = (0..n).map(|_| rng.range_i64(0, domain as i64)).collect();
    let zipf_dist = Zipf::new(domain, 1.2);
    let zipf: Vec<i64> = (0..n).map(|_| zipf_dist.sample(&mut rng)).collect();

    let out = &mut r.out;
    writeln!(out, "SKEW vs THE UNIFORMITY ASSUMPTION (Table 1: F = 1/ICARD for indexed equals)\n")?;
    writeln!(
        out,
        "{n} rows, {domain} distinct keys, ICARD-based estimate = {} rows\n",
        n / domain
    )?;
    writeln!(
        out,
        "{:<10} {:<12} {:>10} {:>10} {:>8}   plan chosen",
        "dataset", "key", "estimated", "actual", "err ×"
    )?;
    writeln!(out, "{:-<78}", "")?;
    for (name, data) in [("uniform", &uniform), ("zipf(1.2)", &zipf)] {
        let mut db = Database::with_config(Config { buffer_pages: 16, ..Config::default() });
        db.execute("CREATE TABLE T (K INTEGER, PAD VARCHAR(40))")?;
        db.insert_rows("T", data.iter().enumerate().map(|(i, &k)| tuple![k, format!("p{i:036}")]))?;
        db.execute("CREATE INDEX T_K ON T (K)")?;
        db.execute("UPDATE STATISTICS")?;
        // Most frequent and a tail key.
        let mut freq = vec![0usize; domain + 1];
        for &k in data.iter() {
            freq[k as usize] += 1;
        }
        let hot = (0..=domain).max_by_key(|&k| freq[k]).ok_or("empty key domain")?;
        let cold = (0..=domain)
            .filter(|&k| freq[k] > 0)
            .min_by_key(|&k| freq[k])
            .ok_or("no key occurs")?;
        for (label, key) in [("hot", hot), ("cold", cold)] {
            let sql = format!("SELECT PAD FROM T WHERE K = {key}");
            audit_plan(&db, &sql)?;
            let plan = db.plan(&sql)?;
            let estimated = plan.qcard;
            let actual = freq[key] as f64;
            let err = if actual > 0.0 { estimated / actual } else { f64::NAN };
            writeln!(
                out,
                "{:<10} {:<12} {:>10.0} {:>10.0} {:>8.2}   {}",
                name,
                format!("{label} (={key})"),
                estimated,
                actual,
                err,
                path_kind(&plan.root)
            )?;
        }
    }
    writeln!(out, "{:-<78}", "")?;
    writeln!(
        out,
        "\nUnder uniform data the 1/ICARD estimate is within noise of the truth; under\n\
         Zipf skew it underestimates the hot key and overestimates the tail by an order\n\
         of magnitude — the price of Table 1's independence/uniformity assumptions,\n\
         which the paper accepts ('very roughly corresponds to the expected fraction')."
    )?;
    Ok(())
}

/// Buffer sweep: Table 2's alternative formulas apply "depending on
/// whether the set of tuples retrieved will fit entirely in the RSS
/// buffer pool". Sweeping the pool size shows the predicted and measured
/// costs of a non-clustered index scan crossing between the per-tuple and
/// buffered regimes — and where the optimizer flips between the index and
/// the segment scan.
pub fn exp_buffer_sweep(r: &mut Report) -> Res {
    let sql = "SELECT PAD FROM T WHERE GRP = 7";
    let out = &mut r.out;
    writeln!(out, "BUFFER-FIT VARIANTS (Table 2): {sql}")?;
    writeln!(out, "(10k rows ≈ 180 pages; GRP has 40 distinct values → 250 matching rows)\n")?;
    writeln!(
        out,
        "{:<10} {:<14} {:>12} {:>12} {:>14}",
        "buffer", "chosen path", "pred. pages", "measured", "hit ratio"
    )?;
    writeln!(out, "{:-<68}", "")?;
    for buffer in [4usize, 8, 16, 32, 64, 128, 256] {
        let mut db = Database::with_config(Config { buffer_pages: buffer, ..Config::default() });
        db.execute("CREATE TABLE T (GRP INTEGER, PAD VARCHAR(60))")?;
        db.insert_rows("T", (0..10_000).map(|i| tuple![(i * 7919) % 40, format!("p{i:056}")]))?;
        db.execute("CREATE INDEX T_GRP ON T (GRP)")?;
        db.execute("UPDATE STATISTICS")?;

        let plan = db.plan(sql)?;
        audit_plan(&db, sql)?;
        db.evict_buffers()?;
        db.reset_io_stats();
        db.query(sql)?;
        let io = db.io_stats();
        let hits = io.buffer_hits as f64;
        let total = hits + io.page_fetches() as f64;
        writeln!(
            out,
            "{:<10} {:<14} {:>12.1} {:>12} {:>13.0}%",
            buffer,
            path_kind(&plan.root),
            plan.root.cost.pages,
            io.page_fetches(),
            if total > 0.0 { 100.0 * hits / total } else { 0.0 }
        )?;
    }
    writeln!(out, "{:-<68}", "")?;
    writeln!(
        out,
        "\nSmall pools: the buffered variant cannot apply, the per-tuple formula makes\n\
         the 250-row probe look more expensive than the 180-page segment scan. Once the\n\
         ~135 distinct matching pages (Cardenas estimate) fit in the pool, the buffered\n\
         variant applies and the index probe takes over."
    )?;
    Ok(())
}
