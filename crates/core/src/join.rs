//! Join and sort costs, and the sort plan builders (§5).
//!
//! Two join methods, as in the paper:
//!
//! * **Nested loops** — `C = C-outer(path1) + N * C-inner(path2)`: for each
//!   of the `N` outer tuples, the inner relation is scanned via its access
//!   path, "applying all applicable predicates" — including join predicates
//!   probing an inner index with the outer tuple's value.
//!
//! * **Merging scans** — both inputs arrive in join-column order and are
//!   merged with synchronized group scans. An input is ordered either
//!   because its access path produces that order (an index on the join
//!   column, or a suitably ordered composite) or because it was sorted
//!   into a temporary list (`C-sort`). Our executor buffers the current
//!   inner group in memory, so each inner tuple is read exactly once and
//!   the total cost is `C-outer + C-inner` — the same quantity as the
//!   paper's `C-outer + N * C-inner(contiguous group)` formulation, with
//!   the group re-reads served from memory. The advantage over nested
//!   loops is precisely the paper's: "it is not necessary to scan the
//!   entire inner relation (looking for a match) for each tuple of the
//!   outer relation".
//!
//! `C-sort(path)` "includes the cost of retrieving the data using the
//! specified access path, sorting the data, ... and putting the results
//! into a temporary list" (§5): input cost + TEMPPAGES written; reading
//! the sorted list back during the merge costs TEMPPAGES fetches plus one
//! RSI call per tuple.

use crate::cost::{temp_pages, Cost};
use crate::plan::{PlanExpr, PlanNode};
use crate::query::ColId;

/// Pure nested-loop cost: `C-outer + N * C-inner`, with the inner's page
/// charge capped at `inner_resident_pages` when the inner fits in the
/// buffer pool. This is the single source of truth for the formula: every
/// nested-loop node the enumerator builds is priced here.
pub fn nested_loop_cost(
    outer_cost: Cost,
    outer_rows: f64,
    inner_cost: Cost,
    inner_resident_pages: Option<f64>,
) -> Cost {
    let n = outer_rows.max(0.0);
    let mut inner_total = inner_cost.times(n);
    if let Some(cap) = inner_resident_pages {
        inner_total.pages = inner_total.pages.min(cap);
    }
    outer_cost + inner_total
}

/// Pure sort cost: input + TEMPPAGES written + TEMPPAGES read back + one
/// RSI call per tuple read back.
pub fn sort_cost(input_cost: Cost, rows: f64, width: f64) -> Cost {
    let tp = temp_pages(rows, width);
    input_cost + Cost::new(2.0 * tp, rows)
}

/// Pure partial-sort cost: the input already arrives grouped into
/// `run_count` runs by a satisfied key prefix, so only within-run work
/// remains — see [`crate::cost::partial_sort_delta`].
pub fn partial_sort_cost(input_cost: Cost, rows: f64, width: f64, run_count: f64) -> Cost {
    let (delta, _) = crate::cost::partial_sort_delta(rows, width, run_count);
    input_cost + delta
}

/// Pure merging-scans cost: `C-outer + C-inner` (group re-reads served
/// from the in-memory group buffer).
pub fn merge_cost(outer_cost: Cost, inner_cost: Cost) -> Cost {
    outer_cost + inner_cost
}

/// Wrap a plan in a sort into a temporary list ordered by `keys`
/// (`(column, descending)` pairs).
///
/// Cost = input + TEMPPAGES written + TEMPPAGES read back + one RSI call
/// per tuple read back (the merge consumes the list exactly once).
/// `width` is the mean tuple width of the materialized rows.
pub fn sort_plan(input: PlanExpr, keys: Vec<(ColId, bool)>, width: f64) -> PlanExpr {
    let rows = input.rows;
    let cost = sort_cost(input.cost, rows, width);
    PlanExpr {
        node: PlanNode::Sort { input: Box::new(input), keys: keys.clone(), sorted_prefix: 0 },
        cost,
        rows,
        order: keys,
    }
}

/// Wrap a plan whose order already covers the first `sorted_prefix`
/// columns of `keys` in a partial (run-segmented) sort. `run_count` is
/// the estimated number of distinct prefix groups; the caller must have
/// proved the coverage (the `order-produced` audit invariant re-checks
/// it against the input's produced order).
pub fn partial_sort_plan(
    input: PlanExpr,
    keys: Vec<(ColId, bool)>,
    sorted_prefix: usize,
    width: f64,
    run_count: f64,
) -> PlanExpr {
    debug_assert!(sorted_prefix > 0 && sorted_prefix <= keys.len());
    let rows = input.rows;
    let cost = partial_sort_cost(input.cost, rows, width, run_count);
    PlanExpr {
        node: PlanNode::Sort { input: Box::new(input), keys: keys.clone(), sorted_prefix },
        cost,
        rows,
        order: keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Access, ScanPlan};

    fn scan(table: usize, cost: Cost, rows: f64) -> PlanExpr {
        PlanExpr {
            node: PlanNode::Scan(ScanPlan {
                table,
                access: Access::Segment,
                sargs: vec![],
                residual: vec![],
            }),
            cost,
            rows,
            order: vec![],
        }
    }

    #[test]
    fn nested_loop_multiplies_inner_by_outer_rows() {
        let c = nested_loop_cost(Cost::new(100.0, 1000.0), 50.0, Cost::new(3.0, 10.0), None);
        assert_eq!(c, Cost::new(100.0 + 50.0 * 3.0, 1000.0 + 50.0 * 10.0));
    }

    #[test]
    fn nested_loop_resident_cap_bounds_pages() {
        // A 3-page inner probed 1000 times: uncapped the model charges
        // 3000 pages; with the whole inner buffer-resident it cannot
        // exceed its footprint. RSI is never capped.
        let (outer, inner) = (Cost::new(10.0, 100.0), Cost::new(3.0, 2.0));
        let capped = nested_loop_cost(outer, 1000.0, inner, Some(4.0));
        assert_eq!(capped, Cost::new(10.0 + 4.0, 100.0 + 2000.0));
        let uncapped = nested_loop_cost(outer, 1000.0, inner, None);
        assert_eq!(uncapped.pages, 10.0 + 3000.0);
    }

    #[test]
    fn sort_charges_write_read_and_rsi() {
        let input = scan(0, Cost::new(10.0, 100.0), 1000.0);
        let keys = vec![(ColId::new(0, 1), true)];
        let s = sort_plan(input, keys.clone(), 50.0);
        // TEMPPAGES = ceil(1000*50/4080) = 13 → 26 pages + 1000 rsi extra.
        assert_eq!(s.cost, Cost::new(10.0 + 26.0, 100.0 + 1000.0));
        assert_eq!(s.order, keys, "a sort produces its keys, directions included");
        assert_eq!(s.rows, 1000.0);
    }

    #[test]
    fn merge_adds_side_costs_once() {
        let c = merge_cost(Cost::new(40.0, 400.0), Cost::new(20.0, 200.0));
        assert_eq!(c, Cost::new(60.0, 600.0));
    }

    #[test]
    fn merge_beats_nested_loop_when_inner_rescans_are_expensive() {
        // The §5 motivation: outer 1000 rows; inner full scan costs 100
        // pages. NL rescans the inner 1000 times; merge sorts it once.
        let outer = Cost::new(100.0, 1000.0);
        let inner_full = Cost::new(100.0, 1000.0);
        let nl = nested_loop_cost(outer, 1000.0, inner_full, None);
        let mj = merge_cost(outer, sort_cost(inner_full, 1000.0, 40.0));
        assert!(mj.total(0.02) < nl.total(0.02));
    }
}
