//! The model-checker surface, driven from the outside: session
//! statement gating, pool resize under the schedule harness, explored
//! schedule-count determinism, and mutant replay reproducibility.
//!
//! These tests exercise `sysr-audit --model`'s machinery through the
//! public crates (`system_r::audit::model`, `system_r::rss::sync`) the
//! way CI and a debugging developer would: small exploration budgets,
//! bit-identical reruns, and a violating schedule replayed from its
//! printed trace.

mod common;

use common::fig1_db;
use std::sync::Arc;
use system_r::audit::model::{audit_model_with, scenario_named, ModelConfig};
use system_r::rss::sync::model::{execute, Policy};
use system_r::rss::sync::Rank;
use system_r::rss::{
    FileId, MemBackend, PageImage, PageKey, ShardedBufferPool, SharedBackend, PAGE_SIZE,
};
use system_r::DbError;

/// A small deterministic budget: the tests below assert behavior, not
/// coverage, so they need seconds of exploration, not CI's full pass.
fn small_budget() -> ModelConfig {
    ModelConfig { bound: 2, dfs_cap: 300, samples: 8, seed: 11 }
}

#[test]
fn sessions_reject_every_non_select_statement() {
    let db = fig1_db(100, 10, 5);
    let session = db.session();
    for sql in [
        "INSERT INTO EMP (NAME, DNO, JOB, SAL) VALUES ('X', 1, 5, 100)",
        "CREATE TABLE T (K INTEGER)",
        "CREATE INDEX EMP_X ON EMP (SAL)",
    ] {
        for result in [
            session.query(sql).map(drop),
            session.plan(sql).map(drop),
            session.explain(sql).map(drop),
            session.explain_analyze(sql).map(drop),
        ] {
            match result {
                Err(DbError::Unsupported(msg)) => {
                    assert!(msg.contains("SELECT"), "gate names the contract: {msg}")
                }
                other => panic!("{sql:?} through a session: expected Unsupported, got {other:?}"),
            }
        }
    }
    // The gate is statement-level, not an accident of planning: the same
    // SELECT text works.
    assert!(session.query("SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME").is_ok());
}

#[test]
fn query_rejects_explain_wrapped_text_on_both_entry_points() {
    // `query` runs a statement; EXPLAIN text belongs to `explain` /
    // `explain_analyze`, so neither entry point may execute the inner
    // SELECT and hand back its rows.
    let db = fig1_db(100, 10, 5);
    let session = db.session();
    for sql in ["EXPLAIN SELECT NAME FROM EMP", "EXPLAIN ANALYZE SELECT NAME FROM EMP"] {
        let via_session = session.query(sql).map(drop);
        assert!(matches!(via_session, Err(DbError::Unsupported(_))), "{sql:?}: {via_session:?}");
        assert_eq!(via_session, db.query(sql).map(drop), "{sql:?}: same typed error");
        // The plan-only entry points still look through the wrapper.
        assert!(session.plan(sql).is_ok() && session.explain(sql).is_ok(), "{sql:?}");
    }
}

fn seg(page: u32) -> PageKey {
    PageKey::new(FileId::Segment(0), page)
}

fn seeded_backend(pages: u32) -> Arc<SharedBackend> {
    let mut mem = MemBackend::new();
    for p in 0..pages {
        let mut img = [0u8; PAGE_SIZE];
        img[0] = p as u8;
        system_r::rss::pagefile::stamp_page(&mut img, p + 1);
        mem.write_page(seg(p), &PageImage::new(img)).expect("seed backend");
    }
    Arc::new(SharedBackend::ranked(Rank::Backend, Box::new(mem)))
}

use system_r::rss::PageBackend;

/// `resize` takes `&mut self`, so the borrow checker already forbids a
/// true resize/reader race. What the model harness can still check: a
/// resize *phased between* fully-explored concurrent reader schedules
/// preserves residency bounds and page contents, whatever interleaving
/// the readers took.
#[test]
fn resize_between_model_checked_reader_phases_preserves_contents() {
    for forced in [&[][..], &[0, 0, 0, 1, 1, 0][..], &[1, 1, 1, 0, 0, 1][..]] {
        let backend = seeded_backend(6);
        let pool = Arc::new(ShardedBufferPool::new(4));
        let mut bodies: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
        for t in 0..2u32 {
            let (p, b) = (Arc::clone(&pool), Arc::clone(&backend));
            bodies.push(Box::new(move || {
                for page in [t, t + 2, t + 4] {
                    p.read(seg(page), &b).expect("model read");
                }
            }));
        }
        let run = execute(bodies, forced, Policy::NonPreemptive, None);
        assert!(run.deadlock.is_none() && run.lock_cycle.is_none(), "{}", run.render_schedule());

        // Reader phase done: recover exclusive ownership and resize down
        // and up. The virtual threads are joined, so try_unwrap holds.
        let mut pool = Arc::try_unwrap(pool).expect("virtual threads joined");
        pool.resize(2, &backend).expect("shrink");
        assert!(pool.resident_pages() <= pool.capacity(), "shrink evicted to the new bound");
        pool.resize(8, &backend).expect("grow");
        for page in 0..6u32 {
            pool.read(seg(page), &backend).expect("post-resize read");
        }
        assert!(pool.resident_pages() <= pool.capacity());
    }
}

#[test]
fn explored_schedule_counts_are_bit_identical_across_runs() {
    let first = audit_model_with(None, &[], &small_budget());
    let second = audit_model_with(None, &[], &small_budget());
    assert!(first.report.ok(), "{}", first.report.render());
    assert_eq!(first.report.checks, second.report.checks);
    assert_eq!(first.notes, second.notes, "per-scenario counts are deterministic");
}

/// The printed schedule trace is not documentation — it is an input: the
/// `schedule [...]` line replayed as forced choices reproduces the
/// violation in one execution.
#[test]
fn mutant_schedule_trace_replays_to_the_same_violation() {
    let scenario = scenario_named("dirty-victim-flush").expect("registered scenario");
    let explored =
        system_r::audit::model::explore(&scenario, Some("dirty-victim-gate"), &small_budget());
    let (violation, trace) = explored.finding.expect("mutant must be caught");
    assert_eq!(violation.rule, "model-lost-dirty-image");

    let choices: Vec<usize> = trace
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("schedule ["))
        .and_then(|l| l.strip_suffix("]"))
        .map(|l| l.split(", ").filter_map(|n| n.parse().ok()).collect())
        .expect("trace leads with its schedule line");
    assert!(!choices.is_empty());

    let (bodies, log) = (scenario.build)();
    let run = execute(bodies, &choices, Policy::NonPreemptive, Some("dirty-victim-gate"));
    let replayed = system_r::audit::model::run_violations(scenario.name, &run, &log);
    assert_eq!(
        replayed.first().map(|v| v.rule),
        Some("model-lost-dirty-image"),
        "replaying the printed schedule reproduces the violation: {}",
        run.render_schedule()
    );
    assert_eq!(run.render_schedule(), trace, "replay regenerates the identical trace");
}
