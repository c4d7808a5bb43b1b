//! # sysr-audit — plan-invariant verifier
//!
//! The optimizer is only trustworthy if its outputs provably respect the
//! paper's own rules: Table 1 selectivities in `[0, 1]`, Table 2 cost
//! admissibility, interesting-order bookkeeping (§4/§5), SARGs pushed
//! below the RSI boundary, and DP optimality against exhaustive
//! enumeration. This crate checks all of that after the fact, on any
//! [`sysr_core::QueryPlan`]:
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
//!   [`sysr_rss::SplitMix64`]. For 5–6-relation queries (beyond
//!   exhaustive reach) [`differential::audit_order_samples`] draws a
//!   seeded subset of join orders and asserts the DP never loses to any
//!   of them.
//! * [`concurrent`] — the serving rules: every builtin corpus query,
//!   replanned and re-executed from 8 concurrent threads against live
//!   shared storage, must reproduce the single-thread plan and result
//!   rows bit-identically (`concurrent-differential`).
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
//!   of virtual threads run through the `sysr_rss::sync` facade's
//!   cooperative scheduler, their interleavings enumerated under
//!   iterative preemption bounding with deadlock, lock-order-cycle and
//!   scenario-invariant oracles; `--mutant` re-arms previously fixed
//!   races and demands the explorer find them.
//!
//! The `sysr-audit` binary runs every engine (`--all`) and exits nonzero
//! on any violation; `scripts/ci.sh` gates every PR on it. The latch
//! rules are not an engine here: `sysr_rss::sync` checks the latch order
//! at every acquisition in debug builds, and clippy's `disallowed_types`
//! keeps every latch inside that facade. Panic-freedom, indexing, casts
//! and `unsafe` are clippy lints denied at the crate roots.

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
pub mod invariants;
pub mod model;
pub mod recovery;

use std::fmt;

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
