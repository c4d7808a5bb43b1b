//! Negative coverage: the auditor must *fail* when fed broken inputs.
//!
//! Every engine gets an injected violation — a mutated plan, a cooked
//! search trace, mismatched executor measurements, a planted race — and
//! the test asserts the specific rule fires. The final test runs the real
//! `sysr-audit` binary on a mutant its model engine cannot catch and
//! asserts the process exits nonzero, which is the contract CI relies on.

use std::collections::HashMap;
use sysr_audit::{corpus, differential, invariants};
use system_r::core::{ColId, NodeMeasurement, Optimizer, OptimizerConfig, QueryPlan};
use system_r::rss::IoStats;

fn fig1_plan(sql: &str) -> (QueryPlan, Vec<(String, system_r::core::SearchTrace)>) {
    let catalog = corpus::fig1_catalog();
    let stmt = corpus::parse_select(sql).expect("corpus SQL parses");
    Optimizer::with_config(&catalog, OptimizerConfig::default())
        .optimize_traced(&stmt)
        .expect("corpus SQL binds")
}

fn rules(report: &sysr_audit::AuditReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn pristine_plan_is_clean() {
    let catalog = corpus::fig1_catalog();
    let (plan, traces) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    let config = OptimizerConfig::default();
    let mut report = invariants::audit_query_plan(&catalog, &plan, &config, "fig1");
    report.merge(invariants::audit_traces(&traces, "fig1"));
    assert!(report.ok(), "unexpected violations:\n{}", report.render());
    assert!(report.checks > 20, "auditor barely checked anything");
}

#[test]
fn negative_cost_triggers_cost_admissible() {
    let catalog = corpus::fig1_catalog();
    let (mut plan, _) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    // Finite but negative: inadmissible under Table 2, yet safe to total()
    // in debug builds (NaN would trip Cost's own debug_assert first).
    plan.root.cost.pages = -5.0;
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    assert!(rules(&report).contains(&"cost-admissible"), "got:\n{}", report.render());
}

#[test]
fn fabricated_order_triggers_order_and_wellformed_rules() {
    let catalog = corpus::fig1_catalog();
    let (mut plan, _) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    // Claim an order on a column that does not exist in any FROM table.
    plan.root.order = vec![ColId::new(0, 99)];
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    let r = rules(&report);
    assert!(r.contains(&"plan-wellformed"), "got:\n{}", report.render());
    // The root is a join whose outer no longer matches the claimed order.
    assert!(r.contains(&"order-produced"), "got:\n{}", report.render());
}

#[test]
fn uncovered_sorted_prefix_claim_triggers_order_produced() {
    let catalog = corpus::fig1_catalog();
    // No index on SAL: the optimizer plans a whole-input sort over a
    // segment scan (sorted_prefix = 0, input produces no order).
    let (mut plan, _) = fig1_plan("SELECT NAME FROM EMP ORDER BY SAL, DNO");
    let system_r::core::PlanNode::Sort { input, sorted_prefix, .. } = &mut plan.root.node else {
        panic!("expected a root sort");
    };
    assert!(input.order.is_empty(), "segment-scan input should produce no order");
    assert_eq!(*sorted_prefix, 0);
    // Claim the input already delivers the SAL prefix — it does not; the
    // executor's run detection would segment an ungrouped stream.
    *sorted_prefix = 1;
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    assert!(rules(&report).contains(&"order-produced"), "got:\n{}", report.render());
}

#[test]
fn local_factor_in_block_filters_triggers_sarg_pushdown() {
    let catalog = corpus::fig1_catalog();
    let (mut plan, _) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    // Factor #0 references FROM-list tables; hoisting it to the block
    // filter list would skip it below the RSI where it belongs.
    assert!(!plan.query.factors[0].tables.is_empty());
    plan.block_filters.push(0);
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    assert!(rules(&report).contains(&"sarg-pushdown"), "got:\n{}", report.render());
}

#[test]
fn dropped_rows_estimate_triggers_wellformed() {
    let catalog = corpus::fig1_catalog();
    let (mut plan, _) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    plan.root.rows = -1.0;
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    assert!(rules(&report).contains(&"plan-wellformed"), "got:\n{}", report.render());
}

#[test]
fn cooked_trace_breaks_the_accounting_identity() {
    let (_, mut traces) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    let subset = &mut traces[0].1.subsets[0];
    subset.pruned += 1; // pruned + surviving != generated
    let report = invariants::audit_traces(&traces, "mutated");
    assert!(rules(&report).contains(&"trace-accounting"), "got:\n{}", report.render());
}

#[test]
fn trace_totals_must_match_stats() {
    let (_, mut traces) = fig1_plan(sysr_audit::workloads::FIG1_SQL);
    traces[0].1.stats.plans_considered += 7;
    let report = invariants::audit_traces(&traces, "mutated");
    assert!(rules(&report).contains(&"trace-accounting"), "got:\n{}", report.render());
}

#[test]
fn measurement_io_must_sum_to_the_query_delta() {
    let mut measurements = HashMap::new();
    measurements.insert(
        0,
        NodeMeasurement {
            invocations: 1,
            rows: 10,
            io: IoStats { data_page_fetches: 3, ..IoStats::default() },
        },
    );
    let delta = IoStats { data_page_fetches: 4, ..IoStats::default() };
    let report = invariants::audit_measurements(&measurements, 1, &delta, "mutated");
    assert!(rules(&report).contains(&"exec-accounting"), "got:\n{}", report.render());

    // And the matching case is clean.
    let delta = IoStats { data_page_fetches: 3, ..IoStats::default() };
    let report = invariants::audit_measurements(&measurements, 1, &delta, "ok");
    assert!(report.ok(), "got:\n{}", report.render());
}

#[test]
fn measurement_node_id_out_of_range_is_flagged() {
    let mut measurements = HashMap::new();
    measurements.insert(9, NodeMeasurement { invocations: 1, rows: 0, io: IoStats::default() });
    let report = invariants::audit_measurements(&measurements, 3, &IoStats::default(), "mutated");
    assert!(rules(&report).contains(&"exec-accounting"), "got:\n{}", report.render());
}

#[test]
fn differential_oracle_checks_the_builtin_corpus() {
    let cases = corpus::builtin_cases();
    let report = differential::audit_differential(&cases, OptimizerConfig::default());
    assert!(report.ok(), "DP vs exhaustive mismatch:\n{}", report.render());
    assert!(report.checks > 0);
}

// ---- the concurrent-differential rule's comparator --------------------

#[test]
fn concurrent_divergence_fires_and_allow_table_suppresses() {
    use sysr_audit::concurrent::{check_outcome, Executed, RunOutcome, RULE};

    let ok = |plan: &str, rows: &str| -> RunOutcome {
        Ok(Executed { plan: plan.into(), rows: rows.into() })
    };

    // A thread that chose a different plan than the single-thread run.
    let v = check_outcome("fig1/join3", 5, &ok("p", "r"), &ok("P", "r"), &[])
        .expect("plan divergence must fire");
    assert_eq!(v.rule, RULE);
    assert!(v.detail.contains("thread 5"), "{v}");

    // A thread that returned different rows.
    let v = check_outcome("fig1/join3", 2, &ok("p", "r"), &ok("p", "R"), &[])
        .expect("row divergence must fire");
    assert!(v.detail.contains("different rows"), "{v}");

    // An error where the baseline succeeded.
    let v = check_outcome("fig1/join3", 0, &ok("p", "r"), &Err("latch poisoned".into()), &[])
        .expect("error divergence must fire");
    assert!(v.detail.contains("latch poisoned"), "{v}");

    // The same divergence under a label in the allowed table is
    // suppressed…
    let allowed = [("fig1/join3", "row order differs on this workload — tracked upstream")];
    assert!(check_outcome("fig1/join3", 5, &ok("p", "r"), &ok("P", "r"), &allowed).is_none());
    // …but only for that label.
    assert!(check_outcome("fig1/other", 5, &ok("p", "r"), &ok("P", "r"), &allowed).is_some());

    // Identical outcomes — including identical deterministic failures —
    // are never violations.
    assert!(check_outcome("q", 1, &ok("p", "r"), &ok("p", "r"), &[]).is_none());
    assert!(check_outcome("q", 1, &Err("x".into()), &Err("x".into()), &[]).is_none());
}

// ---- model engine: injected races must fire, the allow table must
// ---- suppress -----------------------------------------------------------

mod model_negative {
    use sysr_audit::model::{self, apply_allowed, run_violations, Log, ModelConfig};
    use system_r::rss::sync::model::{execute, Policy};
    use system_r::rss::sync::Mutex;

    fn vrules(vs: &[sysr_audit::Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    /// AB/BA acquisition from two virtual threads: the per-execution
    /// lock-order graph must report `model-lock-cycle` on any execution
    /// where both orders are observed.
    fn ab_ba_violations() -> (Vec<sysr_audit::Violation>, String) {
        static LATCH_A: Mutex<u32> = Mutex::new(0);
        static LATCH_B: Mutex<u32> = Mutex::new(0);
        let mut bodies: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
        bodies.push(Box::new(|| {
            let a = LATCH_A.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let b = LATCH_B.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            drop((a, b));
        }));
        bodies.push(Box::new(|| {
            let b = LATCH_B.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let a = LATCH_A.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            drop((b, a));
        }));
        let log = Log::default();
        // Serial schedule: both orders still land in the order graph, so
        // the cycle is caught without needing the deadlocking interleaving.
        let run = execute(bodies, &[], Policy::NonPreemptive, None);
        (run_violations("ab-ba-fixture", &run, &log), run.render_schedule())
    }

    #[test]
    fn lock_order_cycle_fires_and_allow_table_suppresses() {
        let (found, schedule) = ab_ba_violations();
        assert!(
            vrules(&found).contains(&"model-lock-cycle"),
            "AB/BA must report a cycle; got {found:?}\n{schedule}"
        );

        let table = [("ab-ba-fixture", "model-lock-cycle", "negative-test fixture")];
        let (kept, suppressed) = apply_allowed("ab-ba-fixture", found, &table);
        assert!(!vrules(&kept).contains(&"model-lock-cycle"), "suppressed: {kept:?}");
        assert!(suppressed >= 1);
    }

    #[test]
    fn lost_dirty_image_fires_under_the_mutant_and_allow_table_suppresses() {
        let cfg = ModelConfig { bound: 2, dfs_cap: 300, samples: 8, seed: 3 };
        let scenario = model::scenario_named("dirty-victim-flush").expect("registered");
        let explored = model::explore(&scenario, Some("dirty-victim-gate"), &cfg);
        let (violation, schedule) = explored.finding.expect("gated race must be found");
        assert_eq!(violation.rule, "model-lost-dirty-image", "{schedule}");

        let table = [("dirty-victim-flush", "model-lost-dirty-image", "negative-test fixture")];
        let (kept, suppressed) = apply_allowed("dirty-victim-flush", vec![violation], &table);
        assert!(kept.is_empty(), "suppressed: {kept:?}");
        assert_eq!(suppressed, 1);
    }

    /// Full engine contract: a mutant the explorer cannot catch is
    /// itself a violation (`model-mutant-uncaught`), so CI can assert
    /// the checker has teeth by demanding exit 0 from `--mutant`.
    #[test]
    fn unknown_mutant_reports_mutant_uncaught() {
        let out = model::audit_model_with(
            Some("not-a-mutant"),
            &[],
            &ModelConfig { bound: 1, dfs_cap: 10, samples: 0, seed: 1 },
        );
        assert_eq!(vrules(&out.report.violations), vec!["model-mutant-uncaught"]);
    }
}

// ---- the binary's exit status is the CI contract ----------------------

/// A mutant the model engine cannot catch is a violation, so the
/// `sysr-audit` binary must exit 1 and name the rule; an unknown flag is
/// bad usage, exit 2.
#[test]
fn binary_exits_nonzero_on_injected_violation() {
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_sysr-audit");
    let out = Command::new(bin)
        .args(["--model", "--mutant", "no-such-mutant"])
        .output()
        .expect("run sysr-audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("model-mutant-uncaught"), "violation not reported:\n{stdout}");

    let out = Command::new(bin).arg("--lint").output().expect("run sysr-audit");
    assert_eq!(out.status.code(), Some(2), "--lint is not a flag");
}
