//! The paper's tables and its worked example: Table 1's selectivity
//! factors, Table 2's cost formulas and the Fig. 1-6 search tree.

use std::fmt::Write as _;

use crate::{Report, Res};
use sysr_audit::harness::summarize_plan;
use sysr_audit::workloads::{audit_plan, fig1_db, Fig1Params, FIG1_SQL};
use system_r::core::{bind_select, BoundQuery, Cost, CostModel, Enumerator, Selectivity, TableSet};
use system_r::sql::{parse_statement, Statement};
use system_r::{tuple, Config, Database};

/// Parse and bind a SELECT against `db`'s catalog.
fn bind(db: &Database, sql: &str) -> Result<BoundQuery, Box<dyn std::error::Error>> {
    let Statement::Select(stmt) = parse_statement(sql)? else {
        return Err(format!("not a SELECT: {sql}").into());
    };
    Ok(bind_select(db.catalog(), &stmt)?)
}

/// **Table 1** (selectivity factors): for each predicate shape the paper
/// lists, the rule and the factor our estimator computes on a catalog
/// whose statistics make the expected value obvious.
pub fn table1(r: &mut Report) -> Res {
    // EMP: 10_000 rows. DNO has an index with ICARD = 50 over [0, 49];
    // SAL has an index with ICARD = 1000 over [0, 100_000]; JOB and NAME
    // have no index. DEPT: 40 rows, unique DNO index (ICARD = 40).
    let mut db = Database::new();
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
    db.execute("CREATE TABLE DEPT (DNO INTEGER, LOC VARCHAR(20))")?;
    db.insert_rows(
        "EMP",
        (0..10_000).map(|i| tuple![format!("E{i}"), i % 50, i % 17, ((i * 997) % 100_001) as f64]),
    )?;
    db.insert_rows("DEPT", (0..40).map(|d| tuple![d, if d % 4 == 0 { "DENVER" } else { "X" }]))?;
    db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)")?;
    db.execute("CREATE INDEX EMP_SAL ON EMP (SAL)")?;
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")?;
    db.execute("UPDATE STATISTICS")?;

    let rows: Vec<(&str, &str, &str)> = vec![
        (
            "column = value (index on column)",
            "F = 1 / ICARD(column index)",
            "SELECT NAME FROM EMP WHERE DNO = 7",
        ),
        ("column = value (no index)", "F = 1/10", "SELECT NAME FROM EMP WHERE JOB = 3"),
        (
            "column1 = column2 (indexes on both)",
            "F = 1/MAX(ICARD(c1), ICARD(c2))",
            "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
        ),
        (
            "column1 = column2 (one index)",
            "F = 1/ICARD(indexed column)",
            "SELECT NAME FROM EMP, DEPT WHERE EMP.JOB = DEPT.DNO",
        ),
        (
            "column1 = column2 (no indexes)",
            "F = 1/10",
            "SELECT A.NAME FROM EMP A, EMP B WHERE A.JOB = B.JOB",
        ),
        (
            "column > value (arithmetic, value known)",
            "F = (high - value) / (high - low)",
            "SELECT NAME FROM EMP WHERE SAL > 75000",
        ),
        ("column > value (not interpolable)", "F = 1/3", "SELECT NAME FROM EMP WHERE NAME > 'M'"),
        (
            "column BETWEEN v1 AND v2 (interpolable)",
            "F = (v2 - v1) / (high - low)",
            "SELECT NAME FROM EMP WHERE SAL BETWEEN 0 AND 10000",
        ),
        (
            "column BETWEEN v1 AND v2 (otherwise)",
            "F = 1/4",
            "SELECT NAME FROM EMP WHERE JOB BETWEEN 2 AND 4",
        ),
        (
            "column IN (list) (index)",
            "F = #items * F(column = value), max 1/2",
            "SELECT NAME FROM EMP WHERE DNO IN (1, 2, 3)",
        ),
        (
            "column IN (list) (capped)",
            "F <= 1/2",
            "SELECT NAME FROM EMP WHERE JOB IN (0,1,2,3,4,5,6,7,8,9)",
        ),
        (
            "columnA IN subquery",
            "F = qcard(sub) / PRODUCT(card(sub FROM))",
            "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')",
        ),
        ("pred1 OR pred2", "F = F1 + F2 - F1*F2", "SELECT NAME FROM EMP WHERE DNO = 1 OR JOB = 2"),
        ("pred1 AND pred2", "F = F1 * F2", "SELECT NAME FROM EMP WHERE DNO = 1 AND JOB = 2"),
        ("NOT pred", "F = 1 - F(pred)", "SELECT NAME FROM EMP WHERE NOT DNO = 1"),
    ];

    let out = &mut r.out;
    writeln!(out, "TABLE 1 — SELECTIVITY FACTORS (paper rule vs computed F)")?;
    writeln!(out, "{:-<100}", "")?;
    writeln!(out, "{:<44} {:<38} {:>10}", "predicate shape", "paper rule", "computed F")?;
    writeln!(out, "{:-<100}", "")?;
    for (shape, rule, sql) in rows {
        // Audit each shape's plan before reporting its factor. The
        // unrestricted self-join is exempt: its ~6M-row result is fine
        // for selectivity arithmetic but too large for the audit pass,
        // which executes the query.
        if !sql.contains("EMP A, EMP B") {
            audit_plan(&db, sql)?;
        }
        let bound = bind(&db, sql)?;
        let sel = Selectivity::new(db.catalog(), &bound);
        let f: f64 = bound.factors.iter().map(|fac| sel.factor(fac)).product();
        writeln!(out, "{shape:<44} {rule:<38} {f:>10.5}")?;
    }
    writeln!(out, "{:-<100}", "")?;
    writeln!(
        out,
        "\nICARD(EMP.DNO)=50, ICARD(EMP.SAL)=1000 over [0,100000], ICARD(DEPT.DNO)=40;\n\
         JOB and NAME unindexed → the 1/10, 1/3, 1/4, 1/2 defaults apply as in the paper."
    )?;
    Ok(())
}

/// **Table 2** (single-relation access path cost formulas): each
/// situation's formula and the cost our model computes for a reference
/// statistics profile, in both the literal 1979 form and our
/// Cardenas-refined form (DESIGN.md §6), then the cheapest-path ordering
/// against *measured* page fetches on a real relation.
pub fn table2(r: &mut Report) -> Res {
    // Reference statistics: NCARD=10_000, TCARD=500, P=1, NINDX=40,
    // F(preds)=1/50, RSICARD=200, buffer=64, W=0.02.
    let m = CostModel::new(0.02, 64);
    let (f, nindx, ncard, tcard, rsicard) = (1.0 / 50.0, 40.0, 10_000.0, 500.0, 200.0);

    let out = &mut r.out;
    writeln!(out, "TABLE 2 — COST FORMULAS (pages + W*RSI; NCARD=10000, TCARD=500, NINDX=40, F=1/50, RSICARD=200, buffer=64)")?;
    writeln!(out, "{:-<108}", "")?;
    writeln!(
        out,
        "{:<46} {:<34} {:>12} {:>12}",
        "situation", "paper formula", "paper cost", "refined"
    )?;
    writeln!(out, "{:-<108}", "")?;
    // Only the non-clustered matching case has a refined form.
    let same = |c: Cost| (m.total(c), m.total(c));
    let rows = [
        ("unique index matching an equal pred", "1 + 1 + W", same(m.unique_index_eq())),
        (
            "clustered index matching boolean factor(s)",
            "F*(NINDX+TCARD) + W*RSICARD",
            same(m.clustered_matching(f, nindx, tcard, rsicard)),
        ),
        (
            "non-clustered index matching factor(s)",
            "F*(NINDX+NCARD) [or TCARD variant]",
            (
                m.total(m.nonclustered_matching_paper(f, nindx, ncard, tcard, rsicard)),
                m.total(m.nonclustered_matching(f, nindx, ncard, tcard, rsicard)),
            ),
        ),
        (
            "clustered index, no matching factors",
            "(NINDX+TCARD) + W*RSICARD",
            same(m.clustered_nonmatching(nindx, tcard, rsicard)),
        ),
        (
            "non-clustered index, no matching factors",
            "(NINDX+NCARD) [or TCARD variant]",
            same(m.nonclustered_nonmatching(nindx, ncard, tcard, rsicard)),
        ),
        ("segment scan", "TCARD/P + W*RSICARD", same(m.segment_scan(tcard, 1.0, rsicard))),
    ];
    for (situation, formula, (paper, refined)) in rows {
        writeln!(out, "{situation:<46} {formula:<34} {paper:>12.2} {refined:>12.2}")?;
    }
    writeln!(out, "{:-<108}", "")?;
    writeln!(
        out,
        "\nOrdering check (clustered < segment < non-clustered for this profile), measured on a real relation:"
    )?;

    // Three physically different versions of the same logical relation,
    // the same predicate measured on each.
    let sql = "SELECT PAD FROM T WHERE GRP = 7";
    for (label, index) in [
        ("clustered GRP index", Some("CREATE CLUSTERED INDEX T_GRP ON T (GRP)")),
        ("segment scan only", None),
        ("non-clustered GRP index", Some("CREATE INDEX T_GRP ON T (GRP)")),
    ] {
        let mut db = Database::with_config(Config { buffer_pages: 64, ..Config::default() });
        db.execute("CREATE TABLE T (GRP INTEGER, PAD VARCHAR(60))")?;
        db.insert_rows("T", (0..10_000).map(|i| tuple![(i * 7919) % 50, format!("p{i:057}")]))?;
        if let Some(ddl) = index {
            db.execute(ddl)?;
        }
        db.execute("UPDATE STATISTICS")?;
        audit_plan(&db, sql)?;
        db.evict_buffers()?;
        db.reset_io_stats();
        let rows = db.query(sql)?.len();
        if rows != 200 {
            return Err(format!("{label}: {rows} rows, expected 200").into());
        }
        let io = db.io_stats();
        writeln!(
            out,
            "  {label:<28} measured: {:>6} page fetches, {:>6} RSI calls",
            io.page_fetches(),
            io.rsi_calls
        )?;
    }
    writeln!(
        out,
        "\n(The optimizer picks whichever physical design's path is cheapest; see\n\
         `cargo run --example tuning` for the full walk-through.)"
    )?;
    Ok(())
}

/// **Figures 1-6**, the paper's worked example of the search: Fig. 1's
/// query with the loaded schema's statistics; Fig. 2's access paths for
/// single relations, showing which are pruned; Fig. 3's search tree for
/// single relations (solutions saved per interesting order); Figs. 4/5's
/// pairs (nested-loop and merging-scan candidates in the surviving
/// solution table); Fig. 6's tree for all three relations and the chosen
/// solution.
pub fn fig_search_tree(r: &mut Report) -> Res {
    let p = Fig1Params { n_emp: 10_000, n_dept: 50, n_job: 10, ..Default::default() };
    let db = fig1_db(p)?;
    audit_plan(&db, FIG1_SQL)?;
    let catalog = db.catalog();
    let out = &mut r.out;

    writeln!(out, "=== Fig. 1: the example join query ===\n{FIG1_SQL}\n")?;
    for t in ["EMP", "DEPT", "JOB"] {
        let rel = catalog.relation_by_name(t)?;
        let idx: Vec<String> = catalog
            .indexes_on(rel.id)
            .map(|i| format!("{}(ICARD={}, NINDX={})", i.name, i.stats.icard, i.stats.nindx))
            .collect();
        writeln!(
            out,
            "  {t}: NCARD={}, TCARD={}, P={:.2}; indexes: {}",
            rel.stats.ncard,
            rel.stats.tcard,
            rel.stats.pfrac,
            if idx.is_empty() { "none".into() } else { idx.join(", ") }
        )?;
    }

    let bound = bind(&db, FIG1_SQL)?;
    let enumerator = Enumerator::new(catalog, &bound, db.config());
    let w = db.config().w;

    writeln!(out, "\n=== Fig. 2: access paths for single relations (local predicates only) ===")?;
    for (t, table) in bound.tables.iter().enumerate() {
        writeln!(out, "\n  {}:", table.name)?;
        let cands = system_r::core::access::access_paths(&enumerator.ctx, t, TableSet::EMPTY);
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
            writeln!(
                out,
                "    {:<26} cost={:>9.2}  {:<22}{}",
                summarize_plan(&c.clone().into_plan()),
                total,
                order,
                if pruned { "  ← pruned (Fig. 2 'X')" } else { "" }
            )?;
        }
    }

    let (best, stats, tree) = enumerator.best_plan_with_tree();

    writeln!(out, "\n=== Figs. 3-6: the search tree (surviving solutions per subset, per interesting order) ===")?;
    for report in &tree {
        let names: Vec<&str> = report.set.iter().map(|t| bound.tables[t].name.as_str()).collect();
        let label = match report.set.len() {
            1 => "Fig. 3 (single relations)",
            2 => "Figs. 4/5 (pairs: nested loop + merge)",
            _ => "Fig. 6 (all three relations)",
        };
        writeln!(out, "\n  ({}) — {label}", names.join(", "))?;
        for (key, plan) in &report.entries {
            let order = if key.is_empty() {
                "cheapest overall".to_string()
            } else {
                format!("order class {key:?}")
            };
            writeln!(
                out,
                "    {:<18} cost={:>9.2}  {}",
                order,
                plan.cost.total(w),
                summarize_plan(plan)
            )?;
        }
    }

    writeln!(out, "\n=== Chosen solution ===")?;
    writeln!(out, "{}", db.plan(FIG1_SQL)?.explain(catalog))?;
    writeln!(out, "join order: {:?}", best.join_order())?;
    writeln!(
        out,
        "search: {} subsets, {} plans costed, {} kept, {} heuristic skips, {} bytes",
        stats.subsets_examined,
        stats.plans_considered,
        stats.plans_kept,
        stats.heuristic_skips,
        stats.solution_bytes
    )?;
    writeln!(r.timing, "search: {} µs", stats.elapsed_micros)?;
    Ok(())
}
