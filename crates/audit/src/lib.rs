//! # sysr-audit — the checks, the experiments and the shell
//!
//! The optimizer is only trustworthy if its outputs provably respect the
//! paper's own rules: Table 1 selectivities in `[0, 1]`, Table 2 cost
//! admissibility, interesting-order bookkeeping (§4/§5), SARGs pushed
//! below the RSI boundary, and DP optimality against exhaustive
//! enumeration. This crate checks all of that after the fact, as a client
//! of the `system-r` facade; [`audit`] checks one SELECT on a live
//! [`Database`]:
//!
//! * [`invariants`] — the static plan auditor: node well-formedness,
//!   order production, SARG placement, selectivity ranges, cost
//!   monotonicity, search-trace accounting, and executor measurement
//!   accounting.
//! * [`differential`] — the exhaustive oracle: re-enumerates every
//!   ≤ 4-relation query without pruning and asserts the DP winner's cost
//!   equals the true minimum.
//! * [`corpus`] — the built-in check corpus: the paper's Fig. 1 query,
//!   synthetic join catalogs, and seeded random queries via
//!   [`system_r::rss::SplitMix64`]. For 5–6-relation queries (beyond
//!   exhaustive reach) [`differential::audit_order_samples`] draws a
//!   seeded subset of join orders and asserts the DP never loses to any
//!   of them.
//! * [`concurrent`] — the live rules: every builtin corpus query runs
//!   through [`audit`] on databases built by [`workloads`]
//!   (`exec-accounting`), and is replanned and re-executed from 8
//!   concurrent threads, which must reproduce the single-thread plan and
//!   result rows bit-identically (`concurrent-differential`).
//! * [`recovery`] — the persistence rules: saved page files carry valid
//!   checksums and LSN stamps, corruption is detected on open, and a
//!   reopened database returns identical scan results and catalog
//!   statistics.
//! * [`costprops`] — the Table 1/2 cost-property verifier
//!   (`--cost-props`): exhaustive boundary grids plus SplitMix64-seeded
//!   samples check every selectivity factor lands in `[0, 1]` and every
//!   access-path cost formula is non-negative, finite, and monotone on
//!   the domains the paper implies, printing a replayable counterexample
//!   point on failure; `--mutant cost-monotone` plants a non-monotone
//!   formula and demands the verifier catch it.
//! * [`model`] — deterministic schedule exploration: scripted scenarios
//!   of virtual threads run through the `system_r::rss::sync` facade's
//!   cooperative scheduler, their interleavings enumerated under
//!   iterative preemption bounding with deadlock, lock-order-cycle and
//!   scenario-invariant oracles; `--mutant` re-arms previously fixed
//!   races and demands the explorer find them.
//!
//! The `sysr-audit` binary runs every engine (`--all`) and exits nonzero
//! on any violation; `scripts/ci.sh` gates every PR on it. The latch
//! rules are not an engine here: `system_r::rss::sync` checks the latch order
//! at every acquisition in debug builds, and clippy's `disallowed_types`
//! keeps every latch inside that facade. Panic-freedom, indexing, casts
//! and `unsafe` are clippy lints denied at the crate roots.
//!
//! The crate also holds what regenerates the paper's tables, figures and
//! §7 claims: the workload generators ([`workloads`], which are also the
//! fixtures of the audit and of the integration tests), a measurement
//! harness that executes raw plans cold and reports
//! `PAGE FETCHES + W * RSI CALLS` ([`harness`]), and the golden
//! comparator behind `sysr-experiments --check` ([`golden`]). Its other
//! binaries are `sysr-experiments` (one report per `results/<name>.txt`),
//! `bench_concurrency` (multi-session throughput into
//! `BENCH_concurrency.json`) and `sysr`, the interactive shell.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod concurrent;
pub mod corpus;
pub mod costprops;
pub mod differential;
pub mod golden;
pub mod harness;
pub mod invariants;
pub mod model;
pub mod recovery;
pub mod workloads;

use corpus::{parse_select, CorpusCase};
use std::fmt;
use system_r::core::{ColId, Optimizer, OptimizerConfig};
use system_r::executor::{root_rows_sorted, ExecEnv};
use system_r::sql::{parse_statement, Statement};
use system_r::{Database, DbError, DbResult};

/// One broken invariant, pinned to a rule id and location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id, e.g. `cost-admissible`. DESIGN.md §8
    /// catalogues every rule with its paper anchor.
    pub rule: &'static str,
    /// Where: the corpus case / node path, scenario or formula.
    pub location: String,
    /// What went wrong, with the offending values.
    pub detail: String,
}

impl Violation {
    pub fn new(rule: &'static str, location: impl Into<String>, detail: impl Into<String>) -> Self {
        Violation { rule, location: location.into(), detail: detail.into() }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.location, self.detail)
    }
}

/// Outcome of one audit engine run: how much was checked, what failed.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Individual checks evaluated (plans audited, plans re-enumerated,
    /// schedules explored, ...). Reported so "0 violations" can be told apart
    /// from "checked nothing".
    pub checks: u64,
    pub violations: Vec<Violation>,
}

impl AuditReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another engine's report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Human-readable summary, one violation per line.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        let _ = writeln!(
            out,
            "audit: {} checks, {} violation{}",
            self.checks,
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        );
        out
    }
}

/// Audit one SELECT end to end on a live database: optimize it with
/// tracing and check the plan and its search traces statically, then
/// execute it with per-node measurement and check the executor's
/// accounting identities and the order the plan root delivers.
/// `report.ok()` means every check passed.
///
/// The I/O identities compare deltas of database-global counters, so
/// the report is exact only when no other session executes meanwhile.
pub fn audit(db: &Database, sql: &str) -> DbResult<AuditReport> {
    audit_labeled(db, sql, "query")
}

/// [`audit`] with `label` naming the query in violation locations.
pub(crate) fn audit_labeled(db: &Database, sql: &str, label: &str) -> DbResult<AuditReport> {
    let Statement::Select(stmt) = parse_statement(sql)? else {
        return Err(DbError::Unsupported("audit takes a SELECT".into()));
    };
    let config = db.config();
    let (plan, traces) = Optimizer::with_config(db.catalog(), config).optimize_traced(&stmt)?;
    let mut report = invariants::audit_query_plan(db.catalog(), &plan, &config, label);
    report.merge(invariants::audit_traces(&traces, label));
    let (result, measurements, delta) = db.execute_plan_traced(&plan)?;
    report.merge(invariants::audit_measurements(&measurements, plan.total_nodes(), &delta, label));
    report.merge(invariants::audit_exec_identities(
        &measurements,
        &plan,
        result.rows.len() as u64,
        &delta,
        label,
    ));
    // The plan-root rows must leave the plan tree sorted on the block's
    // full required order. Checked below the block layer: its defensive
    // ORDER BY re-sort would otherwise mask a Sort node (full or
    // partial) emitting misordered rows.
    let required = plan.query.required_order();
    if !required.is_empty() {
        report.checks += 1;
        let keys: Vec<(ColId, bool)> = required.iter().map(|&c| (c, false)).collect();
        let env = ExecEnv::new(db.storage(), db.catalog());
        let location = format!("{label}/exec-order");
        match root_rows_sorted(&env, &plan, &keys) {
            Ok(true) => {}
            Ok(false) => report.push(Violation::new(
                "order-produced",
                location,
                format!("plan-root rows not sorted on the required order {required:?}"),
            )),
            Err(e) => report.push(Violation::new(
                "order-produced",
                location,
                format!("order re-execution failed: {e}"),
            )),
        }
    }
    Ok(report)
}

/// `sysr-audit --plans`: optimize every corpus case and audit the plan
/// plus its search traces.
pub fn audit_plans(cases: &[CorpusCase], config: OptimizerConfig) -> AuditReport {
    let mut report = AuditReport::default();
    for case in cases {
        let stmt = match parse_select(&case.sql) {
            Ok(s) => s,
            Err(e) => {
                report.push(Violation::new(
                    "plan-wellformed",
                    &case.label,
                    format!("corpus parse: {e}"),
                ));
                continue;
            }
        };
        match Optimizer::with_config(&case.catalog, config).optimize_traced(&stmt) {
            Ok((plan, traces)) => {
                report.merge(invariants::audit_query_plan(
                    &case.catalog,
                    &plan,
                    &config,
                    &case.label,
                ));
                report.merge(invariants::audit_traces(&traces, &case.label));
            }
            Err(e) => report.push(Violation::new(
                "plan-wellformed",
                &case.label,
                format!("corpus bind: {e}"),
            )),
        }
    }
    report
}

/// `sysr-audit --diff`: the DP-versus-exhaustive oracle over every corpus
/// case, plus `seed`'s sampled join orders of 5–6-relation chains.
pub fn audit_diff(cases: &[CorpusCase], seed: u64, config: OptimizerConfig) -> AuditReport {
    let mut report = differential::audit_differential(cases, config);
    report.merge(differential::audit_order_samples(seed, config));
    report
}
