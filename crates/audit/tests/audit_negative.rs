//! Negative coverage: the auditor must *fail* when fed broken inputs.
//!
//! Every engine gets an injected violation — a mutated plan, a cooked
//! search trace, mismatched executor measurements, lint-rule fixtures —
//! and the test asserts the specific rule fires. The final test runs the
//! real `sysr-audit` binary against a synthesized workspace containing a
//! lint violation and asserts the process exits nonzero, which is the
//! contract CI relies on.

use std::collections::HashMap;
use sysr_audit::{corpus, differential, invariants, lint};
use sysr_core::{ColId, NodeMeasurement, Optimizer, OptimizerConfig, QueryPlan};
use sysr_rss::IoStats;

fn fig1_plan(sql: &str) -> (QueryPlan, Vec<(String, sysr_core::SearchTrace)>) {
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
    let (plan, traces) = fig1_plan(corpus::FIG1_SQL);
    let config = OptimizerConfig::default();
    let mut report = invariants::audit_query_plan(&catalog, &plan, &config, "fig1");
    report.merge(invariants::audit_traces(&traces, "fig1"));
    assert!(report.ok(), "unexpected violations:\n{}", report.render());
    assert!(report.checks > 20, "auditor barely checked anything");
}

#[test]
fn negative_cost_triggers_cost_admissible() {
    let catalog = corpus::fig1_catalog();
    let (mut plan, _) = fig1_plan(corpus::FIG1_SQL);
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
    let (mut plan, _) = fig1_plan(corpus::FIG1_SQL);
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
    let sysr_core::PlanNode::Sort { input, sorted_prefix, .. } = &mut plan.root.node else {
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
    let (mut plan, _) = fig1_plan(corpus::FIG1_SQL);
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
    let (mut plan, _) = fig1_plan(corpus::FIG1_SQL);
    plan.root.rows = -1.0;
    let report =
        invariants::audit_query_plan(&catalog, &plan, &OptimizerConfig::default(), "mutated");
    assert!(rules(&report).contains(&"plan-wellformed"), "got:\n{}", report.render());
}

#[test]
fn cooked_trace_breaks_the_accounting_identity() {
    let (_, mut traces) = fig1_plan(corpus::FIG1_SQL);
    let subset = &mut traces[0].1.subsets[0];
    subset.pruned += 1; // pruned + surviving != generated
    let report = invariants::audit_traces(&traces, "mutated");
    assert!(rules(&report).contains(&"trace-accounting"), "got:\n{}", report.render());
}

#[test]
fn trace_totals_must_match_stats() {
    let (_, mut traces) = fig1_plan(corpus::FIG1_SQL);
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

// ---- lint rules fire on fixture sources -------------------------------

#[test]
fn lint_flags_unwrap_and_respects_allow() {
    let report = lint::lint_source(
        "crates/x/src/lib.rs",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert_eq!(rules(&report), vec!["no-unwrap"], "got:\n{}", report.render());

    let report = lint::lint_source(
        "crates/x/src/lib.rs",
        "fn f(x: Option<u32>) -> u32 {\n    // audit:allow(no-unwrap) — test fixture\n    x.unwrap()\n}\n",
    );
    assert!(report.ok(), "got:\n{}", report.render());
}

#[test]
fn lint_flags_lossy_casts_only_in_scoped_files() {
    // u64 → f64 can drop low bits (64 > 53 mantissa bits): flagged.
    let src = "fn f(x: u64) -> f64 {\n    x as f64\n}\n";
    let scoped = lint::lint_source("crates/core/src/cost.rs", src);
    assert_eq!(rules(&scoped), vec!["cast-soundness"], "got:\n{}", scoped.render());
    let unscoped = lint::lint_source("crates/x/src/lib.rs", src);
    assert!(unscoped.ok(), "got:\n{}", unscoped.render());
}

#[test]
fn cast_soundness_accepts_widening_and_respects_allow() {
    // Same-signedness widening is value-preserving: no finding.
    let widen = "fn f(x: u32) -> u64 {\n    x as u64\n}\n";
    assert!(lint::lint_source("crates/core/src/cost.rs", widen).ok());

    let narrow = "fn f(x: u64) -> u32 {\n    x as u32\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", narrow);
    assert_eq!(rules(&report), vec!["cast-soundness"], "got:\n{}", report.render());

    let allowed = "fn f(x: u64) -> u32 {\n    // audit:allow(cast-soundness) — masked below 2^32 upstream\n    x as u32\n}\n";
    assert!(lint::lint_source("crates/core/src/cost.rs", allowed).ok());
}

// ---- interval analysis: unbounded casts fire, provably-bounded pass ----

#[test]
fn interval_analysis_flags_unbounded_len_to_f64_but_passes_min_bounded() {
    // `usize as f64` with nothing known about the value: 64 > 53 mantissa
    // bits, must fire.
    let unbounded = "fn f(v: &[u8]) -> f64 {\n    v.len() as f64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", unbounded);
    assert_eq!(rules(&report), vec!["cast-soundness"], "got:\n{}", report.render());

    // The same cast behind `.min(…)` with a sub-2^53 literal bound is
    // provably exact — no marker needed.
    let bounded = "fn f(v: &[u8]) -> f64 {\n    v.len().min(1024) as f64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", bounded);
    assert!(report.ok(), "min-bounded cast should pass:\n{}", report.render());
}

#[test]
fn interval_analysis_narrows_through_if_and_match_guards() {
    // The saturating-branch idiom from `card_f64`: the else branch proves
    // n ≤ 2^53 by negating the guard.
    let guarded = "const LIM: u64 = 1 << 53;\nfn f(n: u64) -> f64 {\n    if n > LIM {\n        9_007_199_254_740_992.0\n    } else {\n        n as f64\n    }\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", guarded);
    assert!(report.ok(), "guard-narrowed cast should pass:\n{}", report.render());

    // Match-arm guard: `x if x <= 1024 => x as f64` narrows inside the arm.
    let arm = "fn f(n: u64) -> f64 {\n    match n {\n        x if n <= 1024 => n as f64,\n        _ => 0.0,\n    }\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", arm);
    assert!(report.ok(), "match-guarded cast should pass:\n{}", report.render());

    // Without the guard the same cast fires.
    let unguarded = "fn f(n: u64) -> f64 {\n    n as f64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", unguarded);
    assert_eq!(rules(&report), vec!["cast-soundness"], "got:\n{}", report.render());
}

#[test]
fn interval_analysis_accepts_clamped_float_to_int_and_const_arithmetic() {
    // float → int behind a `.clamp` whose bounds sit inside the target.
    let clamped = "fn f(x: f64) -> u64 {\n    x.ceil().clamp(0.0, 65536.0) as u64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", clamped);
    assert!(report.ok(), "clamped float cast should pass:\n{}", report.render());

    // Unclamped float → int keeps firing (NaN/∞/negative all truncate).
    let raw = "fn f(x: f64) -> u64 {\n    x as u64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", raw);
    assert_eq!(rules(&report), vec!["cast-soundness"], "got:\n{}", report.render());

    // Const arithmetic: `PAGE / SLOT` is a compile-time-known small value.
    let consts = "const PAGE: usize = 4096;\nconst SLOT: usize = 8;\nfn f() -> u16 {\n    (PAGE / SLOT) as u16\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", consts);
    assert!(report.ok(), "const-arithmetic cast should pass:\n{}", report.render());

    // Flow-sensitivity: a reassigned binding degrades to its type range.
    let mutated = "fn f(v: &[u8]) -> f64 {\n    let mut n = v.len().min(16);\n    n = v.len();\n    n as f64\n}\n";
    let report = lint::lint_source("crates/core/src/cost.rs", mutated);
    assert_eq!(rules(&report), vec!["cast-soundness"], "got:\n{}", report.render());
}

#[test]
fn lint_flags_bare_indexing_and_respects_allow() {
    let src = "fn f(xs: &[u32], i: usize) -> u32 {\n    xs[i]\n}\n";
    let report = lint::lint_source("crates/core/src/foo.rs", src);
    assert_eq!(rules(&report), vec!["no-index"], "got:\n{}", report.render());

    // The bench crate is outside the no-index scope.
    assert!(lint::lint_source("crates/bench/src/bin/foo.rs", src).ok());

    let allowed = "fn f(xs: &[u32], i: usize) -> u32 {\n    // audit:allow(no-index) — caller contract\n    xs[i]\n}\n";
    assert!(lint::lint_source("crates/core/src/foo.rs", allowed).ok());

    // Loop-bound subscripts are recognized as bounded, no marker needed.
    let bounded = "fn f(xs: &[u32]) -> u32 {\n    let mut s = 0;\n    for i in 0..xs.len() {\n        s += xs[i];\n    }\n    s\n}\n";
    assert!(lint::lint_source("crates/core/src/foo.rs", bounded).ok());
}

#[test]
fn lint_flags_unsafe_without_safety_comment() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    let report = lint::lint_source("crates/rss/src/foo.rs", src);
    assert_eq!(rules(&report), vec!["unsafe-audit"], "got:\n{}", report.render());

    let ok = "pub fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid for reads\n    unsafe { *p }\n}\n";
    assert!(lint::lint_source("crates/rss/src/foo.rs", ok).ok());
}

#[test]
fn lint_flags_latch_held_across_io_and_respects_drop() {
    let held = "fn f(b: &RefCell<Mem>, disk: &mut Disk, key: PageKey, buf: &mut Page) {\n    let g = b.borrow_mut();\n    disk.read_page(key, buf);\n}\n";
    let report = lint::lint_source("crates/rss/src/sharded.rs", held);
    assert_eq!(rules(&report), vec!["latch-discipline"], "got:\n{}", report.render());

    // Dropping the guard before the I/O call satisfies the rule.
    let dropped = "fn f(b: &RefCell<Mem>, disk: &mut Disk, key: PageKey, buf: &mut Page) {\n    let g = b.borrow_mut();\n    drop(g);\n    disk.read_page(key, buf);\n}\n";
    assert!(lint::lint_source("crates/rss/src/sharded.rs", dropped).ok());

    // And a scoped allow silences a justified exception.
    let allowed = "fn f(b: &RefCell<Mem>, disk: &mut Disk, key: PageKey, buf: &mut Page) {\n    let g = b.borrow_mut();\n    // audit:allow(latch-discipline) — single-threaded recovery path\n    disk.read_page(key, buf);\n}\n";
    assert!(lint::lint_source("crates/rss/src/sharded.rs", allowed).ok());
}

#[test]
fn lint_flags_latch_order_inversion_and_respects_allow() {
    // A backend (rank 1) guard live while a shard (rank 0) latch is
    // acquired: the shard → backend total order is inverted.
    let inverted = "fn f(&self, key: PageKey) {\n    let backend = self.backend.lock().unwrap_or_else(PoisonError::into_inner);\n    let shard = self.shard_slot(key).lock().unwrap_or_else(PoisonError::into_inner);\n}\n";
    let report = lint::lint_source("crates/rss/src/sharded.rs", inverted);
    assert_eq!(rules(&report), vec!["latch-ordering"], "got:\n{}", report.render());

    // The documented order — shard first, then backend — passes.
    let ordered = "fn f(&self, key: PageKey) {\n    let shard = self.shard_slot(key).lock().unwrap_or_else(PoisonError::into_inner);\n    drop(shard);\n    let backend = self.backend.lock().unwrap_or_else(PoisonError::into_inner);\n}\n";
    assert!(lint::lint_source("crates/rss/src/sharded.rs", ordered).ok());

    // Two same-rank shard latches: deadlock-prone, flagged.
    let double = "fn f(&self, a: PageKey, b: PageKey) {\n    let first = self.shard_slot(a).lock().unwrap_or_else(PoisonError::into_inner);\n    let second = self.shard_slot(b).lock().unwrap_or_else(PoisonError::into_inner);\n}\n";
    let report = lint::lint_source("crates/rss/src/sharded.rs", double);
    assert_eq!(rules(&report), vec!["latch-ordering"], "got:\n{}", report.render());

    // A scoped allow marker silences a justified exception.
    let allowed = "fn f(&self, a: PageKey, b: PageKey) {\n    let first = self.shard_slot(a).lock().unwrap_or_else(PoisonError::into_inner);\n    // audit:allow(latch-ordering) — shards ordered by index upstream\n    let second = self.shard_slot(b).lock().unwrap_or_else(PoisonError::into_inner);\n}\n";
    assert!(lint::lint_source("crates/rss/src/sharded.rs", allowed).ok());

    // Files outside the latch scope skip the ordering rules — but a
    // latch-acquiring product file missing from sync::LATCHED_FILES is
    // exactly what the `latch-scope` rule exists to flag.
    let report = lint::lint_source("crates/core/src/foo.rs", inverted);
    assert_eq!(rules(&report), vec!["latch-scope"], "got:\n{}", report.render());
    // Non-product crates (the bench harness) stay unscoped entirely.
    assert!(lint::lint_source("crates/bench/src/bin/foo.rs", inverted).ok());
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

    // The allowed table is the dynamic analog of `audit:allow`: the same
    // divergence under a listed label is suppressed…
    let allowed = [("fig1/join3", "row order differs on this workload — tracked upstream")];
    assert!(check_outcome("fig1/join3", 5, &ok("p", "r"), &ok("P", "r"), &allowed).is_none());
    // …but only for that label.
    assert!(check_outcome("fig1/other", 5, &ok("p", "r"), &ok("P", "r"), &allowed).is_some());

    // Identical outcomes — including identical deterministic failures —
    // are never violations.
    assert!(check_outcome("q", 1, &ok("p", "r"), &ok("p", "r"), &[]).is_none());
    assert!(check_outcome("q", 1, &Err("x".into()), &Err("x".into()), &[]).is_none());
}

#[test]
fn stale_allow_markers_are_flagged() {
    let src = "fn f() {\n    // audit:allow(no-such-rule) — obsolete marker\n    let _x = 1;\n}\n";
    let report = lint::lint_source("crates/core/src/foo.rs", src);
    assert_eq!(rules(&report), vec!["stale-allow"], "got:\n{}", report.render());
}

#[test]
fn lint_flags_unguarded_division() {
    let report = lint::lint_source(
        "crates/core/src/selectivity.rs",
        "fn f(a: f64, b: f64) -> f64 {\n    a / b\n}\n",
    );
    assert_eq!(rules(&report), vec!["div-guard"], "got:\n{}", report.render());

    let guarded = lint::lint_source(
        "crates/core/src/selectivity.rs",
        "fn f(a: f64, b: f64) -> f64 {\n    if b == 0.0 {\n        return 0.0;\n    }\n    a / b\n}\n",
    );
    assert!(guarded.ok(), "got:\n{}", guarded.render());
}

// ---- model engine: injected races must fire, the allow table must
// ---- suppress -----------------------------------------------------------

mod model_negative {
    use std::sync::Arc;
    use sysr_audit::model::{self, apply_allowed, run_violations, ModelConfig};
    use sysr_rss::sync::model::{execute, Policy};
    use sysr_rss::sync::Mutex;

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
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
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

/// Build a throwaway workspace containing one lint violation and check the
/// `sysr-audit` binary exits nonzero on it — and zero once it's allowed.
#[test]
fn binary_exits_nonzero_on_injected_violation() {
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("sysr-audit-neg-{}", std::process::id()));
    let src_dir = dir.join("crates/x/src");
    std::fs::create_dir_all(&src_dir).expect("temp workspace");
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write fixture");

    let bin = env!("CARGO_BIN_EXE_sysr-audit");
    let out =
        Command::new(bin).args(["--lint", "--root"]).arg(&dir).output().expect("run sysr-audit");
    assert!(
        !out.status.success(),
        "expected nonzero exit on injected violation; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no-unwrap"), "violation not reported:\n{stdout}");

    // Suppress it and the same tree goes green.
    std::fs::write(
        src_dir.join("lib.rs"),
        "pub fn f(x: Option<u32>) -> u32 {\n    // audit:allow(no-unwrap) — fixture\n    x.unwrap()\n}\n",
    )
    .expect("rewrite fixture");
    let out =
        Command::new(bin).args(["--lint", "--root"]).arg(&dir).output().expect("run sysr-audit");
    assert!(
        out.status.success(),
        "expected exit 0 after allow marker; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--lint --explain <rule>` prints the rule family's rationale and exits
/// 0; an unknown rule name is a usage error (exit 2).
#[test]
fn binary_explains_rules_and_rejects_unknown_ones() {
    use std::process::Command;

    let bin = env!("CARGO_BIN_EXE_sysr-audit");
    for (rule, _) in lint::RULE_DOCS {
        let out =
            Command::new(bin).args(["--lint", "--explain", rule]).output().expect("run sysr-audit");
        assert!(out.status.success(), "--explain {rule} should exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule), "--explain {rule} must name the rule:\n{stdout}");
        assert!(stdout.len() > 100, "--explain {rule} should print a rationale paragraph");
    }

    let out = Command::new(bin)
        .args(["--lint", "--explain", "no-such-rule"])
        .output()
        .expect("run sysr-audit");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");

    // `--explain` without `--lint` is a usage error too.
    let out = Command::new(bin).args(["--explain", "no-unwrap"]).output().expect("run sysr-audit");
    assert_eq!(out.status.code(), Some(2));
}
