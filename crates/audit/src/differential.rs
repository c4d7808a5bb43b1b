//! The differential oracle: DP result vs. exhaustive enumeration.
//!
//! The paper's §5 dynamic program is exact *given* its pruning rule —
//! keeping only the cheapest plan per (subset, interesting-order
//! equivalence class) is safe because cost composition is monotone. This
//! module re-derives that guarantee empirically: for every ≤ 4-relation
//! query block (nested §6 subquery blocks included) it enumerates
//! **every** complete plan with
//! [`Enumerator::all_plans`] (no pruning, no Cartesian deferral) and
//! asserts
//!
//! 1. the DP winner under the *relaxed* search space (Cartesian deferral
//!    off, same space `all_plans` explores) costs exactly the true
//!    minimum (`dp-optimal`), and
//! 2. the DP winner under the *default* heuristic space — a subset of the
//!    full space — is never cheaper than the true minimum
//!    (`dp-admissible`).
//!
//! A failure here means pruning discarded a plan it needed (a DP
//! admissibility bug) or cost composition broke monotonicity.

use crate::corpus::{chain_catalog, parse_select, CorpusCase};
use crate::{AuditReport, Violation};
use std::collections::BTreeSet;
use system_r::catalog::Catalog;
use system_r::core::{bind_select, BoundQuery, CostModel, Enumerator, OptimizerConfig};
use system_r::rss::SplitMix64;

/// Queries above this FROM-list size are skipped: exhaustive enumeration
/// grows factorially and 4 relations already covers every join-shape the
/// DP distinguishes.
pub const MAX_TABLES: usize = 4;

/// Per-subset plan cap handed to [`Enumerator::all_plans`]. If a query
/// hits the cap the enumeration is no longer exhaustive, so the case is
/// skipped rather than risking a spurious verdict.
const PLAN_CAP: usize = 200_000;

/// Relative cost tolerance for "equals the true minimum" — floating-point
/// cost arithmetic composes in a different association order in the DP
/// and the exhaustive enumerator.
const REL_TOL: f64 = 1e-6;

/// Run the oracle over every eligible query block; ineligible blocks
/// (too many tables, cap overflow) contribute no checks. Statements with
/// subqueries are audited block by block — the DP runs once per block,
/// so nested blocks are independent claims.
pub fn audit_differential(cases: &[CorpusCase], config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    for case in cases {
        report.merge(differential_check(&case.catalog, &case.label, &case.sql, config));
    }
    report
}

/// Compare one query's DP winner against the exhaustive minimum over
/// `catalog`, which may be a corpus fixture or a live database's, with
/// real gathered statistics.
pub fn differential_check(
    catalog: &Catalog,
    label: &str,
    sql: &str,
    config: OptimizerConfig,
) -> AuditReport {
    let mut report = AuditReport::default();
    let stmt = match parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            report.push(Violation::new("dp-optimal", label, format!("corpus parse: {e}")));
            return report;
        }
    };
    let bound = match bind_select(catalog, &stmt) {
        Ok(b) => b,
        Err(e) => {
            report.push(Violation::new("dp-optimal", label, format!("corpus bind: {e}")));
            return report;
        }
    };
    audit_blocks(catalog, label, &bound, config, &mut report);
    report
}

/// Audit one query block against the exhaustive oracle, then recurse into
/// its nested blocks with a `/sub{i}` label suffix. The optimizer runs
/// the §5 DP once per query block, so each block is an independent claim
/// to verify: an outer block too large to enumerate no longer hides an
/// eligible subquery block, and vice versa.
fn audit_blocks(
    catalog: &Catalog,
    label: &str,
    bound: &BoundQuery,
    config: OptimizerConfig,
    report: &mut AuditReport,
) {
    if bound.tables.len() <= MAX_TABLES {
        report.merge(block_check(catalog, label, bound, config));
    }
    for (i, sub) in bound.subqueries.iter().enumerate() {
        audit_blocks(catalog, &format!("{label}/sub{i}"), &sub.query, config, report);
    }
}

/// Compare one block's DP winner against the exhaustive minimum.
fn block_check(
    catalog: &Catalog,
    label: &str,
    bound: &BoundQuery,
    config: OptimizerConfig,
) -> AuditReport {
    let mut report = AuditReport::default();
    let model = CostModel::new(config.w, config.buffer_pages);

    // The exhaustive space matches the relaxed DP (no Cartesian deferral).
    let relaxed = OptimizerConfig { defer_cartesian: false, ..config };
    let enumerator = Enumerator::new(catalog, bound, relaxed);
    let every = enumerator.all_plans(PLAN_CAP);
    if every.is_empty() || every.len() >= PLAN_CAP {
        return report; // cap overflow: enumeration not exhaustive, skip
    }
    let truth = every.iter().map(|p| model.total(p.cost)).fold(f64::INFINITY, f64::min);
    let tol = REL_TOL * truth.abs().max(1.0);

    report.checks += 1;
    let (relaxed_best, _) = enumerator.best_plan();
    let relaxed_total = model.total(relaxed_best.cost);
    let gap = (relaxed_total - truth).abs();
    // Explicit NaN arm: a NaN total must fail, and `gap > tol` alone
    // would let it through.
    if gap.is_nan() || gap > tol {
        report.push(Violation::new(
            "dp-optimal",
            label,
            format!(
                "relaxed DP chose cost {relaxed_total} but exhaustive minimum over {} plans \
                 is {truth}",
                every.len()
            ),
        ));
    }

    report.checks += 1;
    let (default_best, _) = Enumerator::new(catalog, bound, config).best_plan();
    let default_total = model.total(default_best.cost);
    if default_total < truth - tol {
        report.push(Violation::new(
            "dp-admissible",
            label,
            format!(
                "heuristic DP claims cost {default_total}, cheaper than the exhaustive \
                 minimum {truth} — its cost bookkeeping is inconsistent"
            ),
        ));
    }
    report
}

/// Per-prefix frontier cap handed to `best_plan_for_order`. Truncation
/// keeps the cheapest prefixes; any surviving complete plan still yields
/// a valid upper bound (see the method's contract), so the budget trades
/// strength, never soundness.
const ORDER_CAP: usize = 5_000;

/// How many distinct join orders the sampler draws per query: `n!` is 120
/// for five relations and 720 for six, so a seeded subset keeps the check
/// inside a CI budget while still probing orders the ≤ 4-relation
/// exhaustive oracle can never reach.
fn order_budget(n: usize) -> usize {
    match n {
        5 => 24,
        _ => 36,
    }
}

/// The budgeted sampler: 5- and 6-relation chain queries are too large
/// for [`audit_differential`]'s exhaustive re-enumeration, so instead a
/// seeded [`SplitMix64`] Fisher–Yates draw picks a subset of complete
/// left-deep join orders, each order is planned exhaustively *within the
/// order* ([`Enumerator::best_plan_for_order`]), and the DP winner must
/// meet or beat every sampled order's cost:
///
/// * `dp-sampled-admissible` — the relaxed DP (Cartesian deferral off,
///   the space that contains every sampled order) is never *worse* than
///   any sampled order's best plan. A violation means pruning discarded
///   a plan the DP needed.
/// * `dp-admissible` — the default heuristic DP (whose search space is a
///   subset of the relaxed space) never claims a cost *cheaper* than the
///   relaxed optimum; that would mean its cost bookkeeping is broken.
pub fn audit_order_samples(seed: u64, config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    for n in [5usize, 6] {
        let catalog = chain_catalog(n);
        let joins: Vec<String> = (0..n - 1).map(|i| format!("R{i}.B = R{}.A", i + 1)).collect();
        let sql = format!(
            "SELECT R0.V, R{last}.V FROM {from} WHERE {preds} AND R0.V = 7",
            last = n - 1,
            from = (0..n).map(|i| format!("R{i}")).collect::<Vec<_>>().join(", "),
            preds = joins.join(" AND "),
        );
        let label = format!("chain/sampled{n}-seed{seed:x}");
        report.merge(order_sample_check(&catalog, &label, &sql, seed ^ (n as u64), config));
    }
    report
}

/// Sample join orders for one query and compare each against the DP.
fn order_sample_check(
    catalog: &Catalog,
    label: &str,
    sql: &str,
    seed: u64,
    config: OptimizerConfig,
) -> AuditReport {
    let mut report = AuditReport::default();
    let stmt = match parse_select(sql) {
        Ok(s) => s,
        Err(e) => {
            report.push(Violation::new("dp-sampled-admissible", label, format!("parse: {e}")));
            return report;
        }
    };
    let bound = match bind_select(catalog, &stmt) {
        Ok(b) => b,
        Err(e) => {
            report.push(Violation::new("dp-sampled-admissible", label, format!("bind: {e}")));
            return report;
        }
    };
    let n = bound.tables.len();
    let model = CostModel::new(config.w, config.buffer_pages);
    let relaxed_config = OptimizerConfig { defer_cartesian: false, ..config };
    let relaxed = Enumerator::new(catalog, &bound, relaxed_config);
    let (relaxed_best, _) = relaxed.best_plan();
    let relaxed_total = model.total(relaxed_best.cost);
    let tol = REL_TOL * relaxed_total.abs().max(1.0);

    // Seeded Fisher–Yates draws; a BTreeSet dedupes repeats so the budget
    // counts *distinct* orders. The attempt cap bounds the loop when the
    // budget approaches n!.
    let mut rng = SplitMix64::new(seed);
    let budget = order_budget(n);
    let mut orders: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut attempts = 0;
    while orders.len() < budget && attempts < budget * 8 {
        attempts += 1;
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        orders.insert(perm);
    }

    for order in &orders {
        let Some(plan) = relaxed.best_plan_for_order(order, ORDER_CAP) else {
            report.push(Violation::new(
                "dp-sampled-admissible",
                label,
                format!("order {order:?} produced no complete plan"),
            ));
            continue;
        };
        report.checks += 1;
        let order_total = model.total(plan.cost);
        if order_total.is_nan() || relaxed_total > order_total + tol {
            report.push(Violation::new(
                "dp-sampled-admissible",
                label,
                format!(
                    "DP winner costs {relaxed_total} but join order {order:?} \
                     achieves {order_total} — pruning discarded a needed plan"
                ),
            ));
        }
    }

    // The heuristic space is a subset of the relaxed space, so its
    // minimum can never undercut the relaxed minimum.
    report.checks += 1;
    let (default_best, _) = Enumerator::new(catalog, &bound, config).best_plan();
    let default_total = model.total(default_best.cost);
    if default_total < relaxed_total - tol {
        report.push(Violation::new(
            "dp-admissible",
            label,
            format!(
                "heuristic DP claims cost {default_total}, cheaper than the relaxed \
                 optimum {relaxed_total} — its cost bookkeeping is inconsistent"
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{builtin_cases, random_chain_cases};

    #[test]
    fn fig1_dp_matches_exhaustive_minimum() {
        let config = OptimizerConfig::default();
        let report = audit_differential(&builtin_cases(), config);
        assert!(report.ok(), "{}", report.render());
        assert!(report.checks > 0, "at least some builtin cases must be eligible");
    }

    #[test]
    fn nested_blocks_are_audited_independently() {
        let config = OptimizerConfig::default();
        // fig1/in-subquery: one-table outer block plus a one-table
        // subquery block — both eligible, two checks each. Before the
        // per-block recursion the whole statement was skipped.
        let cases = builtin_cases();
        let case = cases
            .iter()
            .find(|c| c.label == "fig1/in-subquery")
            .expect("corpus keeps the §6 IN-subquery case");
        let report = differential_check(&case.catalog, &case.label, &case.sql, config);
        assert!(report.ok(), "{}", report.render());
        assert!(report.checks >= 4, "subquery block not audited: {} checks", report.checks);
    }

    #[test]
    fn seeded_random_chains_stay_optimal() {
        let config = OptimizerConfig::default();
        let report = audit_differential(&random_chain_cases(0xD1FF, 6), config);
        assert!(report.ok(), "{}", report.render());
    }

    #[test]
    fn sampled_orders_never_beat_the_dp() {
        let config = OptimizerConfig::default();
        let report = audit_order_samples(0xA0D17, config);
        assert!(report.ok(), "{}", report.render());
        // 24 + 36 sampled orders plus one heuristic check per query.
        assert!(report.checks >= 24 + 36, "sampler ran too few checks: {}", report.checks);
    }

    #[test]
    fn order_samples_are_deterministic() {
        let config = OptimizerConfig::default();
        let a = audit_order_samples(7, config);
        let b = audit_order_samples(7, config);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.violations, b.violations);
    }
}
