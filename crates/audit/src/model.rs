//! `--model`: deterministic schedule exploration over the RSS
//! concurrency layer.
//!
//! The `sync` facade's rank check proves acquisition *order*; it
//! cannot prove the absence of lost-update interleavings — the PR-6
//! dirty-victim/flush race obeyed the latch order perfectly. This engine
//! closes that gap: it drives small scripted scenarios of virtual
//! threads through [`sysr_rss::sync::model`]'s cooperative scheduler and
//! explores their interleavings with a DFS under **iterative preemption
//! bounding** (CHESS-style): all schedules with 0 preemptive context
//! switches first, then 1, then 2, branching at every recorded decision
//! point. Past the DFS budget a deterministic SplitMix64-seeded sample
//! of deep schedules runs as a tail check. Everything is deterministic —
//! explored-schedule counts are bit-identical across runs and machines.
//!
//! Per schedule the harness checks the scenario invariant plus three
//! generic properties: no deadlock (all live threads blocked), no
//! acquisition-order cycle (a dynamic lock-order graph over the latches
//! actually touched), and no worker panic.
//!
//! The scenarios (fresh state per schedule):
//!
//! 1. **dirty-victim-flush** — an evicting reader races `flush()` on a
//!    2-page pool holding an acknowledged dirty page; when `flush`
//!    returns, the page's image must be in the backend
//!    (`model-lost-dirty-image`; exactly the PR-6 race fixed in
//!    cd3b895).
//! 2. **plan-cache-version** — `VersionedCache` lookups race inserts and
//!    catalog version bumps; a lookup under version `v` must never
//!    return a payload stamped otherwise (`model-stale-plan`).
//! 3. **iostats-reset** — window arithmetic over `IoStats` snapshots
//!    races `reset_stats`; a window must clamp, not wrap
//!    (`model-stats-underflow`).
//!
//! The checker proves it has teeth via mutants: `--model --mutant
//! dirty-victim-gate` re-introduces the PR-6 gate reordering (a
//! runtime-gated hook in `ShardedBufferPool::read` that only the model
//! harness can arm) and the explorer must *find* a violating schedule
//! within the bound, printing it as a replayable trace. DESIGN.md §12
//! documents the facade, the bounding, and how to read a trace.

use crate::{AuditReport, Violation};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use sysr_rss::pagefile::stamp_page;
use sysr_rss::sync::model::{execute, preemptions_of, ModelRun, Policy};
use sysr_rss::sync::Rank;
use sysr_rss::{
    FileId, MemBackend, PageBackend, PageImage, PageKey, ShardedBufferPool, SharedBackend,
    SplitMix64, VersionedCache, PAGE_SIZE,
};

/// Violation classes this engine can emit.
pub const RULES: &[&str] = &[
    "model-deadlock",
    "model-lock-cycle",
    "model-lost-dirty-image",
    "model-stale-plan",
    "model-stats-underflow",
    "model-panic",
    "model-mutant-uncaught",
];

/// Compiled-in mutants: `(name, scenario that must catch it)`. Each is a
/// runtime-gated fault hook (see `sync::model::fault`) that re-creates a
/// previously fixed — or deliberately seeded — concurrency bug.
pub const MUTANTS: &[(&str, &str)] = &[("dirty-victim-gate", "dirty-victim-flush")];

/// Justified `(scenario, rule, why)` suppressions. Empty in production —
/// populated only by negative tests proving the suppression path works.
const ALLOWED: &[(&str, &str, &str)] = &[];

/// Exploration budget. Defaults hold the whole `--model` run to a few
/// seconds in release CI while exhausting every scenario's schedule
/// space at preemption bound 2.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Maximum preemptive context switches per schedule (CHESS bound).
    pub bound: usize,
    /// DFS schedule cap per scenario (deterministic truncation).
    pub dfs_cap: usize,
    /// Sampled deep schedules per scenario beyond the DFS.
    pub samples: usize,
    /// Seed for the sampled-schedule SplitMix64 stream.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig { bound: 2, dfs_cap: 1200, samples: 64, seed: 0xA0D17 }
    }
}

/// Result of a `--model` engine run: the report plus human-readable
/// notes (per-scenario schedule counts, the mutant's caught schedule).
#[derive(Debug, Default)]
pub struct ModelOutcome {
    pub report: AuditReport,
    pub notes: Vec<String>,
}

type Bodies = Vec<Box<dyn FnOnce() + Send + 'static>>;
/// The invariant breaches a scenario's virtual threads record. A std
/// mutex, not the facade's: recording a breach must not be a yield point
/// of the schedule it reports on.
#[expect(
    clippy::disallowed_types,
    reason = "the violation log sits outside the model, so it must bypass the facade"
)]
pub type Log = Arc<std::sync::Mutex<Vec<(&'static str, String)>>>;

/// A scripted concurrency scenario: a name (the violation `location`)
/// and a builder producing fresh virtual-thread bodies plus the shared
/// log they record invariant breaches into.
pub struct Scenario {
    pub name: &'static str,
    pub build: fn() -> (Bodies, Log),
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario { name: "dirty-victim-flush", build: build_dirty_victim },
        Scenario { name: "plan-cache-version", build: build_plan_cache },
        Scenario { name: "iostats-reset", build: build_iostats_reset },
    ]
}

fn log_err<T, E: Display>(log: &Log, what: &str, r: Result<T, E>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            push_log(log, "model-panic", format!("{what}: {e}"));
            None
        }
    }
}

fn push_log(log: &Log, rule: &'static str, detail: String) {
    log.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push((rule, detail));
}

fn seg_key(page: u32) -> PageKey {
    PageKey::new(FileId::Segment(0), page)
}

/// A backend pre-loaded with `pages` stamped pages of segment 0, page
/// `p` carrying `p` as its payload marker byte.
fn backend_with(pages: u32, log: &Log) -> Arc<SharedBackend> {
    let mut b = MemBackend::new();
    for p in 0..pages {
        let mut img = [0u8; PAGE_SIZE];
        img[PAGE_SIZE - 1] = p as u8;
        stamp_page(&mut img, p + 1);
        let _ = log_err(log, "backend preload", b.write_page(seg_key(p), &PageImage::new(img)));
    }
    Arc::new(SharedBackend::ranked(Rank::Backend, Box::new(b)))
}

/// Marker byte the dirty-victim scenario writes into page 0.
const DIRTY_MARK: u8 = 0xAB;

/// Scenario 1: a 2-page single-shard pool holds an *acknowledged* dirty
/// write of page 0 (installed by the harness before any virtual thread
/// runs). t0 is an evicting reader whose miss on page 2 makes page 0 the
/// dirty LRU victim; t1 runs `flush()` and then immediately audits the
/// backend: the dirty image must be there the moment `flush` returns,
/// whether it was still resident or mid-eviction in t0.
fn build_dirty_victim() -> (Bodies, Log) {
    let log = Log::default();
    let backend = backend_with(4, &log);
    let pool = Arc::new(ShardedBufferPool::new(2));
    // Setup runs on the harness thread (no model context): page 0 dirty
    // with the marker, page 1 resident clean and more recent, so page 0
    // is the LRU victim of the first miss.
    let _ = log_err(&log, "setup read p0", pool.read(seg_key(0), &backend));
    let mut img = [0u8; PAGE_SIZE];
    img[PAGE_SIZE - 1] = DIRTY_MARK;
    stamp_page(&mut img, 99);
    let img = PageImage::new(img);
    let _ = log_err(&log, "setup dirty p0", pool.write_through(seg_key(0), &img, &backend));
    let _ = log_err(&log, "setup read p1", pool.read(seg_key(1), &backend));

    let mut bodies: Bodies = Vec::new();
    let (p0, b0, l0) = (Arc::clone(&pool), Arc::clone(&backend), Arc::clone(&log));
    bodies.push(Box::new(move || {
        // Evicting reader: the miss installs page 2 and writes the dirty
        // victim (page 0) back after the shard latch drops.
        let _ = log_err(&l0, "t0 read p2", p0.read(seg_key(2), &b0));
    }));
    let (p1, b1, l1) = (pool, backend, log.clone());
    bodies.push(Box::new(move || {
        if log_err(&l1, "t1 flush", p1.flush(&b1)).is_none() {
            return;
        }
        // flush returned: the acknowledged image must be in the backend.
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        let mut b = b1.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if log_err(&l1, "t1 verify read", b.read_page(seg_key(0), &mut buf)).is_some()
            && buf[PAGE_SIZE - 1] != DIRTY_MARK
        {
            push_log(
                &l1,
                "model-lost-dirty-image",
                format!(
                    "flush returned but backend holds page-0 marker {:#04x}, not {:#04x}: \
                     the acknowledged dirty image was lost",
                    buf[PAGE_SIZE - 1],
                    DIRTY_MARK
                ),
            );
        }
    }));
    (bodies, log)
}

/// Scenario 2: `VersionedCache` lookups racing an insert under a bumped
/// catalog version. The cache's contract: a lookup under version `v`
/// returns a payload stamped exactly `v` or nothing. Payloads here *are*
/// their stamp, so any schedule that serves a stale plan is caught by a
/// payload/version mismatch.
fn build_plan_cache() -> (Bodies, Log) {
    let log = Log::default();
    let cache = Arc::new(VersionedCache::<u64>::new());
    let version = Arc::new(StdAtomicU64::new(1));
    cache.insert("q".into(), 1, 1);

    let mut bodies: Bodies = Vec::new();
    let (c0, v0, l0) = (Arc::clone(&cache), Arc::clone(&version), Arc::clone(&log));
    bodies.push(Box::new(move || {
        for _ in 0..2 {
            let v = v0.load(SeqCst);
            match c0.lookup("q", v) {
                Some(payload) if payload != v => push_log(
                    &l0,
                    "model-stale-plan",
                    format!("lookup under version {v} served payload stamped {payload}"),
                ),
                Some(_) => {}
                None => c0.insert("q".into(), v, v),
            }
        }
    }));
    let (c1, v1) = (cache, version);
    bodies.push(Box::new(move || {
        // Catalog bump + re-plan under the new version.
        let v2 = v1.fetch_add(1, SeqCst) + 1;
        c1.insert("q".into(), v2, v2);
    }));
    (bodies, log)
}

/// Scenario 3: EXPLAIN-ANALYZE-style window arithmetic (`IoStats::since`
/// between two snapshots) racing `reset_stats`. A reset landing between
/// the snapshots must clamp the window to zero, never wrap it to
/// `u64::MAX - ε`.
fn build_iostats_reset() -> (Bodies, Log) {
    let log = Log::default();
    let backend = backend_with(2, &log);
    let pool = Arc::new(ShardedBufferPool::new(8));
    let _ = log_err(&log, "setup read p0", pool.read(seg_key(0), &backend));

    let mut bodies: Bodies = Vec::new();
    let (p0, b0, l0) = (Arc::clone(&pool), Arc::clone(&backend), Arc::clone(&log));
    bodies.push(Box::new(move || {
        let s0 = p0.stats();
        let _ = log_err(&l0, "t0 read p1", p0.read(seg_key(1), &b0));
        let _ = log_err(&l0, "t0 rehit p0", p0.read(seg_key(0), &b0));
        let w = p0.stats().since(&s0);
        // One miss + up to two hits happened in this window; anything
        // beyond a handful means the subtraction wrapped.
        if w.page_fetches() > 4 || w.buffer_hits > 4 || w.backend_reads > 4 {
            push_log(
                &l0,
                "model-stats-underflow",
                format!(
                    "window wrapped: fetches {} hits {} backend reads {}",
                    w.page_fetches(),
                    w.buffer_hits,
                    w.backend_reads
                ),
            );
        }
    }));
    let p1 = pool;
    bodies.push(Box::new(move || {
        p1.reset_stats();
    }));
    (bodies, log)
}

/// Is `(scenario, rule)` suppressed by the allowed table?
fn is_allowed(scenario: &str, rule: &str, allowed: &[(&str, &str, &str)]) -> bool {
    allowed.iter().any(|(s, r, _)| *s == scenario && *r == rule)
}

/// Split raw findings into violations and suppressed-by-table count,
/// used directly by negative tests.
pub fn apply_allowed(
    scenario: &str,
    found: Vec<Violation>,
    allowed: &[(&str, &str, &str)],
) -> (Vec<Violation>, u64) {
    let mut kept = Vec::new();
    let mut suppressed = 0;
    for v in found {
        if is_allowed(scenario, v.rule, allowed) {
            suppressed += 1;
        } else {
            kept.push(v);
        }
    }
    (kept, suppressed)
}

/// Findings of one executed schedule: generic properties from the run
/// plus scenario-recorded invariant breaches. No suppression applied.
pub fn run_violations(scenario: &str, run: &ModelRun, log: &Log) -> Vec<Violation> {
    let mut found = Vec::new();
    if let Some(d) = &run.deadlock {
        found.push(Violation::new("model-deadlock", scenario, d.clone()));
    }
    if let Some(c) = &run.lock_cycle {
        found.push(Violation::new("model-lock-cycle", scenario, c.clone()));
    }
    for p in &run.panics {
        found.push(Violation::new("model-panic", scenario, p.clone()));
    }
    let mut recorded = log.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for (rule, detail) in recorded.drain(..) {
        let rule = RULES.iter().find(|r| **r == rule).copied().unwrap_or("model-panic");
        found.push(Violation::new(rule, scenario, detail));
    }
    found
}

/// Outcome of exploring one scenario's schedule space.
pub struct Explored {
    /// Schedules executed by the bounded DFS.
    pub dfs: usize,
    /// Deep schedules executed by the seeded random sampler.
    pub sampled: usize,
    /// First violating schedule found, with its replayable trace.
    pub finding: Option<(Violation, String)>,
}

/// Explore `scenario`'s schedules: iterative preemption bounding (all
/// 0-preemption schedules, then 1, then `cfg.bound`), branching at every
/// recorded decision with an enabled alternative, then `cfg.samples`
/// SplitMix64-seeded deep schedules. Stops at the first violation.
pub fn explore(scenario: &Scenario, fault: Option<&'static str>, cfg: &ModelConfig) -> Explored {
    let mut dfs = 0;
    let mut sampled = 0;
    let mut finding = None;
    // buckets[p] holds unexplored forced prefixes with exactly p
    // preemptions; processing in bucket order is the iterative bound.
    let mut buckets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); cfg.bound + 1];
    if let Some(b) = buckets.first_mut() {
        b.push(Vec::new());
    }
    'outer: for p in 0..=cfg.bound {
        let mut i = 0;
        // New prefixes may land in the bucket being drained (a switch to
        // a thread the default policy abandoned adds no preemption).
        while i < buckets.get(p).map_or(0, Vec::len) {
            let prefix = match buckets.get(p).and_then(|b| b.get(i)) {
                Some(pre) => pre.clone(),
                None => break,
            };
            i += 1;
            if dfs >= cfg.dfs_cap {
                break 'outer;
            }
            let (bodies, log) = (scenario.build)();
            let run = execute(bodies, &prefix, Policy::NonPreemptive, fault);
            dfs += 1;
            let found = run_violations(scenario.name, &run, &log);
            if let Some(v) = found.into_iter().next() {
                finding = Some((v, run.render_schedule()));
                break 'outer;
            }
            for d in prefix.len()..run.decisions.len() {
                let Some(decision) = run.decisions.get(d) else { break };
                if decision.enabled.len() < 2 {
                    continue;
                }
                let base = preemptions_of(&run.decisions, d);
                let prev = d.checked_sub(1).and_then(|j| run.choices.get(j)).copied();
                for &alt in &decision.enabled {
                    if alt == decision.chosen {
                        continue;
                    }
                    let extra = usize::from(
                        prev.is_some_and(|pv| pv != alt && decision.enabled.contains(&pv)),
                    );
                    let cost = base + extra;
                    if cost <= cfg.bound {
                        let mut next =
                            run.choices.get(..d).map(<[usize]>::to_vec).unwrap_or_default();
                        next.push(alt);
                        if let Some(b) = buckets.get_mut(cost) {
                            b.push(next);
                        }
                    }
                }
            }
        }
    }
    if finding.is_none() {
        let mut rng = SplitMix64::new(cfg.seed ^ scenario.name.len() as u64);
        for _ in 0..cfg.samples {
            let (bodies, log) = (scenario.build)();
            let run = execute(bodies, &[], Policy::Random(rng.next_u64()), fault);
            sampled += 1;
            let found = run_violations(scenario.name, &run, &log);
            if let Some(v) = found.into_iter().next() {
                finding = Some((v, run.render_schedule()));
                break;
            }
        }
    }
    Explored { dfs, sampled, finding }
}

/// The `--model` engine with explicit allowed table and budget —
/// [`audit_model`] is the production entry point.
pub fn audit_model_with(
    mutant: Option<&str>,
    allowed: &[(&str, &str, &str)],
    cfg: &ModelConfig,
) -> ModelOutcome {
    let mut out = ModelOutcome::default();
    if let Some(name) = mutant {
        let Some((fault, scn_name)) = MUTANTS.iter().find(|(m, _)| *m == name).copied() else {
            out.report.push(Violation::new(
                "model-mutant-uncaught",
                "mutant catalogue",
                format!(
                    "unknown mutant {name:?}; known: {:?}",
                    MUTANTS.iter().map(|(m, _)| *m).collect::<Vec<_>>()
                ),
            ));
            return out;
        };
        // Mutant mode inverts the oracle: the explorer must FIND a
        // violating schedule — that is the check that the checker has
        // teeth. Success prints the schedule; failure is a violation.
        for scn in scenarios().iter().filter(|s| s.name == scn_name) {
            let explored = explore(scn, Some(fault), cfg);
            out.report.checks += (explored.dfs + explored.sampled) as u64;
            match explored.finding {
                Some((v, schedule)) => {
                    out.notes.push(format!(
                        "mutant {name} caught by scenario {scn_name} after {} schedules \
                         (bound {}): [{}] {}\n{}",
                        explored.dfs + explored.sampled,
                        cfg.bound,
                        v.rule,
                        v.detail,
                        schedule.trim_end()
                    ));
                }
                None => out.report.push(Violation::new(
                    "model-mutant-uncaught",
                    scn_name,
                    format!(
                        "mutant {name} armed but no violating schedule found in {} dfs + {} \
                         sampled schedules (bound {})",
                        explored.dfs, explored.sampled, cfg.bound
                    ),
                )),
            }
        }
        return out;
    }
    for scn in scenarios() {
        let explored = explore(&scn, None, cfg);
        out.report.checks += (explored.dfs + explored.sampled) as u64;
        let found = explored.finding.map(|(v, schedule)| {
            Violation::new(
                v.rule,
                v.location.clone(),
                format!("{}\n{}", v.detail, schedule.trim_end()),
            )
        });
        let (kept, suppressed) = apply_allowed(scn.name, found.into_iter().collect(), allowed);
        out.report.checks += suppressed;
        for v in kept {
            out.report.push(v);
        }
        out.notes.push(format!(
            "model: scenario {}: {} dfs + {} sampled schedules, bound {}",
            scn.name, explored.dfs, explored.sampled, cfg.bound
        ));
    }
    out
}

/// Run the schedule explorer: every scenario at the default budget, or —
/// with a mutant armed — prove the named seeded bug is caught.
pub fn audit_model(mutant: Option<&str>) -> ModelOutcome {
    audit_model_with(mutant, ALLOWED, &ModelConfig::default())
}

/// The scenario registry by name, for tests driving [`explore`]
/// directly.
pub fn scenario_named(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelConfig {
        ModelConfig { bound: 2, dfs_cap: 400, samples: 16, seed: 7 }
    }

    #[test]
    fn current_code_passes_all_scenarios() {
        let out = audit_model_with(None, &[], &small());
        assert!(out.report.ok(), "{}", out.report.render());
        assert!(out.report.checks > 100, "explored a real schedule space");
        assert_eq!(out.notes.len(), 3);
    }

    #[test]
    fn exploration_counts_are_deterministic() {
        let a = audit_model_with(None, &[], &small());
        let b = audit_model_with(None, &[], &small());
        assert_eq!(a.report.checks, b.report.checks);
        assert_eq!(a.notes, b.notes);
    }

    #[test]
    fn dirty_victim_gate_mutant_is_caught_with_a_schedule() {
        let out = audit_model_with(Some("dirty-victim-gate"), &[], &small());
        assert!(
            out.report.ok(),
            "mutant mode succeeds by finding the bug: {}",
            out.report.render()
        );
        let note = out.notes.first().map(String::as_str).unwrap_or("");
        assert!(note.contains("model-lost-dirty-image"), "{note}");
        assert!(note.contains("schedule ["), "replayable schedule printed: {note}");
    }

    #[test]
    fn unknown_mutant_is_a_violation() {
        let out = audit_model_with(Some("no-such-mutant"), &[], &small());
        assert!(!out.report.ok());
        assert_eq!(out.report.violations.first().map(|v| v.rule), Some("model-mutant-uncaught"));
    }

    #[test]
    fn allowed_table_suppresses_by_scenario_and_rule() {
        let v = Violation::new("model-lost-dirty-image", "dirty-victim-flush", "x");
        let table = [("dirty-victim-flush", "model-lost-dirty-image", "negative-test fixture")];
        let (kept, suppressed) = apply_allowed("dirty-victim-flush", vec![v.clone()], &table);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
        let (kept, suppressed) = apply_allowed("plan-cache-version", vec![v], &table);
        assert_eq!(kept.len(), 1, "suppression is per-scenario");
        assert_eq!(suppressed, 0);
    }
}
