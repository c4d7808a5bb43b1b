//! Measurement harness: execute raw plans cold, compare predicted vs
//! measured, summarize plans for reports.

use system_r::core::{bind_select, BoundQuery, Cost, Enumerator, PlanExpr, PlanNode, QueryPlan};
use system_r::sql::{parse_statement, Statement};
use system_r::{Config, Database, DbError, DbResult};

/// One executed plan's numbers.
#[derive(Debug, Clone)]
pub struct PlanMeasurement {
    pub predicted: f64,
    pub measured: f64,
    pub predicted_pages: f64,
    pub measured_pages: f64,
    pub summary: String,
}

/// Wrap a raw plan of `query` so it executes on its own: no subqueries,
/// no block filters, no prediction attached.
fn executable(query: &BoundQuery, root: PlanExpr) -> QueryPlan {
    QueryPlan {
        query: query.clone(),
        root,
        subplans: vec![],
        block_filters: vec![],
        predicted: Cost::ZERO,
        qcard: 0.0,
        stats: Default::default(),
    }
}

/// Every complete plan for the SELECT `sql`, at most `cap` of them, each
/// ready to execute, and the optimizer's chosen plan last. The heuristic
/// is off, so genuinely *all* join orders appear, Cartesian ones included.
pub fn all_plans(db: &Database, sql: &str, cap: usize) -> DbResult<(Vec<QueryPlan>, QueryPlan)> {
    let Statement::Select(stmt) = parse_statement(sql)? else {
        return Err(DbError::Unsupported("all_plans takes a SELECT".into()));
    };
    let bound = bind_select(db.catalog(), &stmt)?;
    let config = Config { defer_cartesian: false, ..db.config() };
    let enumerator = Enumerator::new(db.catalog(), &bound, config);
    let (chosen, _) = enumerator.best_plan();
    let plans = enumerator.all_plans(cap).into_iter().map(|p| executable(&bound, p)).collect();
    Ok((plans, executable(&bound, chosen)))
}

/// Execute a plan with a cold buffer and return its measured weighted
/// cost and page fetches.
pub fn measure_plan(db: &Database, plan: &QueryPlan) -> DbResult<(f64, f64)> {
    db.evict_buffers()?;
    db.reset_io_stats();
    db.execute_plan(plan)?;
    let io = db.io_stats();
    Ok((Cost::from_io(&io).total(db.config().w), io.page_fetches() as f64))
}

/// Execute every plan of [`all_plans`] cold and return the measurements
/// plus the index of the optimizer's chosen plan.
pub fn run_all_plans(
    db: &Database,
    sql: &str,
    cap: usize,
) -> DbResult<(Vec<PlanMeasurement>, usize)> {
    let (plans, chosen) = all_plans(db, sql, cap)?;
    let w = db.config().w;
    let measure = |plan: &QueryPlan| -> DbResult<PlanMeasurement> {
        let (measured, measured_pages) = measure_plan(db, plan)?;
        Ok(PlanMeasurement {
            predicted: plan.root.cost.total(w),
            measured,
            predicted_pages: plan.root.cost.pages,
            measured_pages,
            summary: summarize_plan(&plan.root),
        })
    };
    let mut out = plans.iter().map(measure).collect::<DbResult<Vec<_>>>()?;
    let chosen_summary = summarize_plan(&chosen.root);
    let chosen_pred = chosen.root.cost.total(w);
    let idx = match out
        .iter()
        .position(|m| m.summary == chosen_summary && (m.predicted - chosen_pred).abs() < 1e-6)
    {
        Some(i) => i,
        None => {
            out.push(measure(&chosen)?);
            out.len() - 1
        }
    };
    Ok((out, idx))
}

/// One-line plan description, e.g. `NL(NL(seg(JOB), idx(EMP.EMP_JOB)),
/// idx(DEPT.DEPT_DNO))`.
pub fn summarize_plan(plan: &PlanExpr) -> String {
    match &plan.node {
        PlanNode::Scan(s) => match &s.access {
            system_r::core::Access::Segment => format!("seg(t{})", s.table),
            system_r::core::Access::Index { index, eq_prefix, range, .. } => {
                let probe = if !eq_prefix.is_empty() {
                    "=".to_string()
                } else if range.is_some() {
                    "~".to_string()
                } else {
                    String::new()
                };
                format!("idx{probe}(t{} i{})", s.table, index)
            }
        },
        PlanNode::NestedLoop { outer, inner } => {
            format!("NL({}, {})", summarize_plan(outer), summarize_plan(inner))
        }
        PlanNode::Merge { outer, inner, .. } => {
            format!("MG({}, {})", summarize_plan(outer), summarize_plan(inner))
        }
        PlanNode::Sort { input, sorted_prefix: 0, .. } => {
            format!("SORT({})", summarize_plan(input))
        }
        PlanNode::Sort { input, sorted_prefix, .. } => {
            format!("SORT[prefix={sorted_prefix}]({})", summarize_plan(input))
        }
    }
}

/// Spearman rank correlation between predicted and measured costs.
pub fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 3 {
        return 1.0;
    }
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let mut ranks = vec![0.0; values.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let rp = rank(pairs.iter().map(|&(p, _)| p).collect());
    let rm = rank(pairs.iter().map(|&(_, m)| m).collect());
    let mean = (n as f64 - 1.0) / 2.0;
    let (mut num, mut dp, mut dm) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let a = rp[i] - mean;
        let b = rm[i] - mean;
        num += a * b;
        dp += a * a;
        dm += b * b;
    }
    if dp == 0.0 || dm == 0.0 {
        1.0
    } else {
        num / (dp * dm).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{fig1_db, two_table_db, Fig1Params, FIG1_SQL};

    #[test]
    fn run_all_plans_finds_chosen() {
        let db = two_table_db(300, 600, 50, 10, true, false, 20, 16).unwrap();
        let (plans, idx) =
            run_all_plans(&db, "SELECT OUTR.PAD FROM OUTR, INNR WHERE OUTR.K = INNR.K", 200)
                .unwrap();
        assert!(plans.len() >= 4);
        assert!(idx < plans.len());
        assert!(plans.iter().all(|m| m.measured > 0.0));
    }

    #[test]
    fn fig1_chosen_is_competitive() {
        let db = fig1_db(Fig1Params { n_emp: 400, n_dept: 10, ..Default::default() }).unwrap();
        let (plans, idx) = run_all_plans(&db, FIG1_SQL, 300).unwrap();
        let best = plans.iter().map(|m| m.measured).fold(f64::INFINITY, f64::min);
        assert!(plans[idx].measured <= best * 3.0, "chosen plan grossly suboptimal");
    }

    #[test]
    fn spearman_sanity() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 * 2.0)).collect();
        assert!((spearman(&perfect) - 1.0).abs() < 1e-9);
        let inverted: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((spearman(&inverted) + 1.0).abs() < 1e-9);
    }
}
