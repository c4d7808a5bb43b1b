//! The live rules: `exec-accounting` and `concurrent-differential`.
//!
//! Both run the builtin corpus on live databases built by
//! [`workloads`]: [`workloads::fig1_db`] for the Fig. 1 cases and
//! [`workloads::chain_db`] for the `chain/` cases, whose relation, column
//! and index names match the corpus catalogs. Each database plans on the
//! statistics `UPDATE STATISTICS` gathered from its own pages, over a
//! buffer pool small enough that scans evict each other.
//!
//! [`audit_exec_accounting`] runs every corpus query through
//! [`crate::audit`] single-threaded: static plan and search-trace checks,
//! then a traced execution whose per-node I/O, RSI calls, rows and
//! root order must add up.
//!
//! [`audit_concurrent`] re-derives the promise of the sharded buffer pool
//! and the latch discipline in DESIGN.md §11, that concurrent readers
//! never change *what* a query computes, only how fast. It runs every
//! query once on the calling thread to establish a baseline, then
//! replans and re-executes every query from `THREADS` concurrent threads
//! against the same databases. Each thread's plan rendering and result
//! rows must match the baseline **bit-identically** (plan `Debug` output
//! includes every `f64` cost in shortest-roundtrip form).
//!
//! Queries the executor cannot run are still checked: a deterministic
//! error is part of the baseline, and every thread must reproduce it
//! verbatim. Both rules report a vacuity violation if fewer than
//! `MIN_EXECUTED` corpus queries actually execute.
//!
//! A failure here means shared state leaked between sessions — a torn
//! page read, a latch-ordering bug manifesting as corruption, or
//! nondeterministic planning. This is the repo's one 8-thread corpus
//! replay; from the `Database` facade side, `tests/plan_cache.rs` checks
//! exact per-session and global cache counters and 8 threads executing
//! one shared cached plan.

use crate::corpus::{builtin_cases, parse_select};
use crate::workloads::{self, Fig1Params};
use crate::{AuditReport, Violation};
use system_r::core::{Optimizer, OptimizerConfig, QueryPlan};
use system_r::{Database, DbResult};

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

/// Rows of every live chain relation; `R0.V = 7`, the corpus
/// predicate, selects two of them.
const CHAIN_ROWS: i64 = 160;

/// The live databases the corpus runs on.
struct Live {
    fig1: Database,
    chain: Database,
}

impl Live {
    /// Build both databases and plan with `config` over a
    /// `POOL_PAGES`-page pool.
    fn build(config: OptimizerConfig) -> DbResult<Live> {
        let config = OptimizerConfig { buffer_pages: POOL_PAGES, ..config };
        let mut fig1 = workloads::fig1_db(Fig1Params {
            n_emp: 400,
            n_dept: 60,
            n_job: 15,
            ..Fig1Params::default()
        })?;
        fig1.set_config(config)?;
        let mut chain = workloads::chain_db(CHAIN_ROWS)?;
        chain.set_config(config)?;
        Ok(Live { fig1, chain })
    }

    /// The database a corpus case runs on.
    fn pick(&self, label: &str) -> &Database {
        if label.starts_with("chain/") {
            &self.chain
        } else {
            &self.fig1
        }
    }
}

/// Plan and execute one query, bypassing the plan cache so every run
/// replans.
fn run_case(db: &Database, sql: &str) -> RunOutcome {
    let stmt = parse_select(sql).map_err(|e| format!("parse: {e}"))?;
    let mut plan = Optimizer::with_config(db.catalog(), db.config())
        .optimize(&stmt)
        .map_err(|e| format!("optimize: {e}"))?;
    strip_elapsed(&mut plan);
    let result = db.execute_plan(&plan).map_err(|e| format!("execute: {e}"))?;
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

/// Run every builtin corpus query through [`crate::audit`] on the live
/// databases, single-threaded (rule `exec-accounting` and the static
/// plan rules). The I/O identities are global-counter deltas, so this
/// must run without concurrent sessions.
pub fn audit_exec_accounting(config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    let live = match Live::build(config) {
        Ok(live) => live,
        Err(e) => {
            report.push(Violation::new("exec-accounting", "build", e.to_string()));
            return report;
        }
    };
    let mut executed = 0usize;
    for case in builtin_cases() {
        let Ok(r) = crate::audit_labeled(live.pick(&case.label), &case.sql, &case.label) else {
            continue;
        };
        executed += 1;
        report.merge(r);
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
    let live = match Live::build(config) {
        Ok(live) => live,
        Err(e) => {
            report.push(Violation::new(RULE, "build", e.to_string()));
            return report;
        }
    };

    // Single-thread baselines, including deterministic failures.
    let mut baselines: Vec<(String, String, RunOutcome)> = Vec::new();
    let mut executed = 0usize;
    for case in builtin_cases() {
        report.checks += 1;
        let outcome = run_case(live.pick(&case.label), &case.sql);
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
                        .map(|(label, sql, _)| run_case(live.pick(label), sql))
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
        let live = Live::build(OptimizerConfig::default()).expect("live databases build");
        let out = run_case(&live.fig1, workloads::FIG1_SQL).expect("Fig. 1 query executes");
        assert!(out.rows.contains("CLERK"), "Fig. 1 join must surface clerks: {}", out.rows);
        let chain = builtin_cases().into_iter().find(|c| c.label == "chain/full4");
        let chain = chain.expect("chain/full4 case present");
        let out = run_case(live.pick(&chain.label), &chain.sql).expect("chain query executes");
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
