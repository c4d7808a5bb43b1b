//! The concurrent-serving rule: `concurrent-differential`.
//!
//! The storage engine's sharded buffer pool and the latch discipline in
//! DESIGN.md §11 promise that concurrent readers never change *what* a
//! query computes — only how fast. This module re-derives that promise
//! empirically: it builds live databases (real segments, real B-trees,
//! real pages behind the counting buffer pool) whose schemas match the
//! audit corpus catalogs, runs every builtin corpus query once on the
//! calling thread to establish a baseline, then replans and re-executes
//! every query from `THREADS` concurrent threads. Each thread's plan
//! rendering and result rows must match the single-thread baseline
//! **bit-identically** (plan `Debug` output includes every `f64` cost in
//! shortest-roundtrip form).
//!
//! Queries the executor cannot run are still checked: a deterministic
//! error is part of the baseline, and every thread must reproduce it
//! verbatim. A guard violation fires if fewer than `MIN_EXECUTED`
//! corpus queries actually execute, so the rule can never pass vacuously.
//!
//! A failure here means shared state leaked between sessions — a torn
//! page read, a latch-ordering bug manifesting as corruption, or
//! nondeterministic planning. This is the repo's one 8-thread corpus
//! replay; from the `Database` facade side, `tests/plan_cache.rs` checks
//! exact per-session and global cache counters and 8 threads executing
//! one shared cached plan.

use crate::corpus::{builtin_cases, chain_catalog, fig1_catalog, parse_select};
use crate::{AuditReport, Violation};
use sysr_catalog::{Catalog, RelId};
use sysr_core::{ColId, Optimizer, OptimizerConfig, QueryPlan};
use sysr_executor::{execute, ExecEnv};
use sysr_rss::{Storage, Tuple, Value};

/// Rule id reported on violations.
pub const RULE: &str = "concurrent-differential";

/// Concurrent sessions per query — matches the stress suite's fan-out
/// and the facade plan cache's stripe count.
const THREADS: usize = 8;

/// At least this many corpus queries must plan *and* execute
/// successfully, or the rule reports a vacuity violation.
const MIN_EXECUTED: usize = 8;

/// Corpus labels whose divergence is tolerated, each with a written
/// justification. Empty in production — populated only by negative
/// tests proving the suppression path works.
const ALLOWED: &[(&str, &str)] = &[];

/// Buffer-pool pages for the live databases: small enough that the
/// concurrent scans genuinely contend for frames and evict each other.
const POOL_PAGES: usize = 24;

/// What one run of one query produced, rendered for bit-exact
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    /// `Debug` rendering of the chosen plan, elapsed time zeroed.
    pub plan: String,
    /// `Debug` rendering of the result rows, in delivery order.
    pub rows: String,
}

/// A run either executes or fails deterministically; both are compared.
pub type RunOutcome = Result<Executed, String>;

/// Zero wall-clock time in every block so renders compare only the
/// deterministic parts.
fn strip_elapsed(plan: &mut QueryPlan) {
    plan.stats.elapsed_micros = 0;
    for sub in &mut plan.subplans {
        strip_elapsed(sub);
    }
}

/// Look up a relation id by name; the builders cross-check every id
/// assumption against the corpus catalogs instead of hard-coding.
fn rel_id(cat: &Catalog, name: &str) -> Result<RelId, String> {
    cat.relations()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.id)
        .ok_or_else(|| format!("relation {name} missing from catalog"))
}

/// Rows per live table. Small enough to build fast, large enough that
/// every corpus predicate selects a non-empty, non-trivial subset.
const EMP_ROWS: i64 = 400;
const DEPT_ROWS: i64 = 60;
const JOB_ROWS: i64 = 15;

/// A live EMP / DEPT / JOB database matching [`fig1_catalog`]'s schema
/// and object ids: segments 0–2 and index ids 0–3 are created in
/// catalog registration order so the planner's `Access::Index` ids
/// resolve to the right B-trees. The catalog keeps the paper's §8
/// statistics (it is *not* re-gathered), so every thread plans against
/// exactly the same numbers the planning-only audits use.
fn build_fig1() -> Result<(Storage, Catalog), String> {
    let mut st = Storage::new(POOL_PAGES);
    let cat = fig1_catalog();
    let (emp, dept, job) = (rel_id(&cat, "EMP")?, rel_id(&cat, "DEPT")?, rel_id(&cat, "JOB")?);
    for (name, want) in [("EMP", emp), ("DEPT", dept), ("JOB", job)] {
        let seg = st.create_segment();
        let meta = cat.relations().iter().find(|r| r.id == want);
        if meta.map(|r| r.segment) != Some(seg) {
            return Err(format!("segment id for {name} diverged from the corpus catalog"));
        }
    }
    for i in 0..EMP_ROWS {
        let tuple = Tuple::new(vec![
            Value::Str(format!("EMP{i:03}")),
            Value::Int((i * 13) % DEPT_ROWS),
            Value::Int((i * 7) % JOB_ROWS),
            Value::Float(6_000.0 + f64::from((i % 80) as i32) * 100.0),
        ]);
        st.insert(0, emp, &tuple).map_err(|e| format!("EMP insert {i}: {e}"))?;
    }
    for d in 0..DEPT_ROWS {
        // d % 4: the clerk rows' DNO values cycle {31, 46, 1, 16}, so a
        // modulus of 4 guarantees the Fig. 1 join is non-empty (DNO 16).
        let loc = if d % 4 == 0 { "DENVER" } else { "LONDON" };
        let tuple = Tuple::new(vec![
            Value::Int(d),
            Value::Str(format!("DEPT{d:02}")),
            Value::Str(loc.into()),
        ]);
        st.insert(1, dept, &tuple).map_err(|e| format!("DEPT insert {d}: {e}"))?;
    }
    for j in 0..JOB_ROWS {
        let title = if j == 4 { "CLERK".to_string() } else { format!("JOB{j:02}") };
        let tuple = Tuple::new(vec![Value::Int(j), Value::Str(title)]);
        st.insert(2, job, &tuple).map_err(|e| format!("JOB insert {j}: {e}"))?;
    }
    // Index creation order mirrors fig1_catalog's register_index calls,
    // so storage assigns the same ids the catalog advertises (0..=3).
    for (cat_id, seg, rel, cols, unique) in [
        (0u32, 0, emp, vec![1usize], false),
        (1, 0, emp, vec![2], false),
        (2, 1, dept, vec![0], true),
        (3, 2, job, vec![0], true),
    ] {
        let got = st.create_index(seg, rel, cols, unique).map_err(|e| format!("index: {e}"))?;
        if got != cat_id {
            return Err(format!("index id {got} diverged from catalog id {cat_id}"));
        }
    }
    Ok((st, cat))
}

/// Relation cardinalities for the live chain database, indexed by
/// relation position (`R0..`). `A` is the unique key `0..rows`, `B`
/// holds foreign keys into the next relation's `A` range, `V` cycles
/// `0..100` so `R0.V = 7` (the corpus predicate) selects a few rows.
const CHAIN_ROWS: [i64; 4] = [160, 40, 90, 20];

/// A live 4-relation chain database matching [`chain_catalog`]`(4)`:
/// segment `i` holds `R{i}`, indexes `2i` / `2i + 1` are the unique `A`
/// and non-unique `B` trees, in catalog id order.
fn build_chain() -> Result<(Storage, Catalog), String> {
    let n = CHAIN_ROWS.len();
    let mut st = Storage::new(POOL_PAGES);
    let cat = chain_catalog(n);
    for (i, &rows) in CHAIN_ROWS.iter().enumerate() {
        let seg = st.create_segment();
        let rel = rel_id(&cat, &format!("R{i}"))?;
        let next_rows = CHAIN_ROWS[(i + 1) % n];
        for j in 0..rows {
            let tuple = Tuple::new(vec![
                Value::Int(j),
                Value::Int((j * 7 + i as i64) % next_rows),
                Value::Int(j % 100),
            ]);
            st.insert(seg, rel, &tuple).map_err(|e| format!("R{i} insert {j}: {e}"))?;
        }
        let ia = st.create_index(seg, rel, vec![0], true).map_err(|e| format!("R{i}_A: {e}"))?;
        let ib = st.create_index(seg, rel, vec![1], false).map_err(|e| format!("R{i}_B: {e}"))?;
        if ia != (2 * i) as u32 || ib != ia + 1 {
            return Err(format!("R{i} index ids ({ia}, {ib}) diverged from the corpus catalog"));
        }
    }
    Ok((st, cat))
}

/// Plan and execute one query.
fn run_case(
    storage: &Storage,
    catalog: &Catalog,
    sql: &str,
    config: OptimizerConfig,
) -> RunOutcome {
    let stmt = parse_select(sql).map_err(|e| format!("parse: {e}"))?;
    let mut plan = Optimizer::with_config(catalog, config)
        .optimize(&stmt)
        .map_err(|e| format!("optimize: {e}"))?;
    strip_elapsed(&mut plan);
    let env = ExecEnv::new(storage, catalog);
    let result = execute(&env, &plan).map_err(|e| format!("execute: {e}"))?;
    Ok(Executed { plan: format!("{plan:?}"), rows: format!("{:?}", result.rows) })
}

/// Compare one thread's outcome against the single-thread baseline.
/// Public so the negative tests can prove both the firing and the
/// `allowed`-table suppression paths without building a database.
pub fn check_outcome(
    label: &str,
    thread: usize,
    baseline: &RunOutcome,
    observed: &RunOutcome,
    allowed: &[(&str, &str)],
) -> Option<Violation> {
    if baseline == observed {
        return None;
    }
    if allowed.iter().any(|(l, _)| *l == label) {
        return None;
    }
    let detail = match (baseline, observed) {
        (Ok(b), Ok(o)) if b.plan != o.plan => {
            format!("thread {thread} chose a different plan than the single-thread run")
        }
        (Ok(_), Ok(_)) => {
            format!("thread {thread} returned different rows than the single-thread run")
        }
        (Ok(_), Err(e)) => {
            format!("thread {thread} failed where the single-thread run succeeded: {e}")
        }
        (Err(e), Ok(_)) => {
            format!("thread {thread} succeeded where the single-thread run failed ({e})")
        }
        (Err(b), Err(o)) => {
            format!("thread {thread} failed differently: serial `{b}`, concurrent `{o}`")
        }
    };
    Some(Violation::new(RULE, label, detail))
}

/// Replay the executable corpus single-threaded with per-node tracing
/// and audit the batched executor's accounting identities (rule
/// `exec-accounting`): per-node I/O windows sum to the whole-query
/// delta, RSI-call and page-fetch sums match component-wise, root row
/// counts equal delivered rows, and no scan leaf emits more rows than
/// the RSI calls charged to it. Lives here because it reuses the live
/// fig1/chain databases the concurrent rule builds. The identities are
/// global-counter deltas, so this must run without concurrent sessions.
pub fn audit_exec_accounting(config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let (fig1, chain) = match (build_fig1(), build_chain()) {
        (Ok(f), Ok(c)) => (f, c),
        (Err(e), _) | (_, Err(e)) => {
            report.push(Violation::new("exec-accounting", "build", e));
            return report;
        }
    };
    let mut executed = 0usize;
    for case in builtin_cases() {
        let (st, cat) = if case.label.starts_with("chain/") {
            (&chain.0, &chain.1)
        } else {
            (&fig1.0, &fig1.1)
        };
        let Ok(stmt) = parse_select(&case.sql) else { continue };
        let Ok(plan) = Optimizer::with_config(cat, config).optimize(&stmt) else { continue };
        let mut env = ExecEnv::with_tracer(st, cat);
        let start = st.io_stats();
        let Ok(result) = execute(&env, &plan) else { continue };
        let delta = st.io_stats().since(&start);
        let measurements = env.take_measurements();
        executed += 1;
        report.merge(crate::invariants::audit_measurements(
            &measurements,
            plan.total_nodes(),
            &delta,
            &case.label,
        ));
        report.merge(crate::invariants::audit_exec_identities(
            &measurements,
            &plan,
            result.rows.len() as u64,
            &delta,
            &case.label,
        ));
        // Executor-side order check: the plan-root rows must leave the
        // plan tree sorted on the block's full required order. Checked
        // below the block layer — its defensive ORDER BY re-sort would
        // otherwise mask a Sort node (full or partial) emitting
        // misordered rows.
        let required = plan.query.required_order();
        if !required.is_empty() {
            report.checks += 1;
            let keys: Vec<(ColId, bool)> = required.iter().map(|&c| (c, false)).collect();
            let check_env = ExecEnv::new(st, cat);
            match sysr_executor::root_rows_sorted(&check_env, &plan, &keys) {
                Ok(true) => {}
                Ok(false) => report.push(Violation::new(
                    "order-produced",
                    format!("{}/exec-order", case.label),
                    format!("plan-root rows not sorted on the required order {required:?}"),
                )),
                Err(e) => report.push(Violation::new(
                    "order-produced",
                    format!("{}/exec-order", case.label),
                    format!("order re-execution failed: {e}"),
                )),
            }
        }
    }
    report.checks += 1;
    if executed < MIN_EXECUTED {
        report.push(Violation::new(
            "exec-accounting",
            "corpus coverage",
            format!(
                "only {executed} corpus queries traced; need ≥ {MIN_EXECUTED} to be non-vacuous"
            ),
        ));
    }
    report
}

/// Run the rule: baseline every builtin corpus query single-threaded,
/// then require `THREADS` concurrent sessions to reproduce every
/// outcome bit-identically against the *same shared* storage.
pub fn audit_concurrent(config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let fig1 = match build_fig1() {
        Ok(db) => db,
        Err(e) => {
            report.push(Violation::new(RULE, "build fig1", e));
            return report;
        }
    };
    let chain = match build_chain() {
        Ok(db) => db,
        Err(e) => {
            report.push(Violation::new(RULE, "build chain", e));
            return report;
        }
    };
    let pick = |label: &str| -> (&Storage, &Catalog) {
        if label.starts_with("chain/") {
            (&chain.0, &chain.1)
        } else {
            (&fig1.0, &fig1.1)
        }
    };

    // Single-thread baselines, including deterministic failures.
    let mut baselines: Vec<(String, String, RunOutcome)> = Vec::new();
    let mut executed = 0usize;
    for case in builtin_cases() {
        let (st, cat) = pick(&case.label);
        report.checks += 1;
        let outcome = run_case(st, cat, &case.sql, config);
        if outcome.is_ok() {
            executed += 1;
        }
        baselines.push((case.label, case.sql, outcome));
    }
    report.checks += 1;
    if executed < MIN_EXECUTED {
        report.push(Violation::new(
            RULE,
            "corpus coverage",
            format!("only {executed} corpus queries executed; need ≥ {MIN_EXECUTED} for a non-vacuous concurrency check"),
        ));
    }

    // The concurrent pass: every thread replans and re-executes every
    // query against the shared storages and catalogs.
    let results: Vec<Option<Vec<RunOutcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    baselines
                        .iter()
                        .map(|(label, sql, _)| {
                            let (st, cat) = pick(label);
                            run_case(st, cat, sql, config)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    for (thread, outcomes) in results.into_iter().enumerate() {
        let Some(outcomes) = outcomes else {
            report.push(Violation::new(RULE, "scope", format!("worker thread {thread} panicked")));
            continue;
        };
        for ((label, _, baseline), observed) in baselines.iter().zip(&outcomes) {
            report.checks += 1;
            if let Some(v) = check_outcome(label, thread, baseline, observed, ALLOWED) {
                report.push(v);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_concurrent_deterministic() {
        let report = audit_concurrent(OptimizerConfig::default());
        assert!(report.ok(), "{}", report.render());
        let min = (THREADS * MIN_EXECUTED) as u64;
        assert!(report.checks >= min, "only {} checks ran, need ≥ {min}", report.checks);
    }

    #[test]
    fn live_databases_execute_the_flagship_queries() {
        let (st, cat) = build_fig1().expect("fig1 db builds");
        let out = run_case(&st, &cat, crate::corpus::FIG1_SQL, OptimizerConfig::default())
            .expect("Fig. 1 query executes");
        assert!(out.rows.contains("CLERK"), "Fig. 1 join must surface clerks: {}", out.rows);
        let (st, cat) = build_chain().expect("chain db builds");
        let out = run_case(
            &st,
            &cat,
            "SELECT R0.V, R3.V FROM R0, R1, R2, R3 \
             WHERE R0.B = R1.A AND R1.B = R2.A AND R2.B = R3.A AND R0.V = 7",
            OptimizerConfig::default(),
        )
        .expect("chain query executes");
        assert!(out.rows != "[]", "chain predicate must select rows");
    }

    #[test]
    fn check_outcome_flags_each_divergence_kind() {
        let ok =
            |p: &str, r: &str| -> RunOutcome { Ok(Executed { plan: p.into(), rows: r.into() }) };
        assert!(check_outcome("q", 0, &ok("p", "r"), &ok("p", "r"), &[]).is_none());
        let plan_diff = check_outcome("q", 3, &ok("p", "r"), &ok("P", "r"), &[])
            .expect("plan divergence fires");
        assert!(plan_diff.detail.contains("different plan"), "{plan_diff}");
        let row_diff =
            check_outcome("q", 1, &ok("p", "r"), &ok("p", "R"), &[]).expect("row divergence fires");
        assert!(row_diff.detail.contains("different rows"), "{row_diff}");
        let err_diff = check_outcome("q", 2, &ok("p", "r"), &Err("boom".into()), &[])
            .expect("error divergence fires");
        assert!(err_diff.detail.contains("failed where"), "{err_diff}");
        assert!(
            check_outcome("q", 2, &Err("a".into()), &Err("a".into()), &[]).is_none(),
            "identical deterministic failures are not divergence"
        );
    }
}
