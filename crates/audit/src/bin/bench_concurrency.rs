//! Concurrent-serving throughput benchmark: M sessions hammering one
//! shared `Database` through the facade's `Session` handles, written to
//! `BENCH_concurrency.json` at the repo root for CI and EXPERIMENTS.md.
//!
//! Each session plans and executes the same query mix (the Fig. 1 join
//! plus single-table shapes, and a 4-relation chain join), so the run
//! exercises every shared structure the concurrency work touched: the
//! sharded buffer pool, the striped statement-plan cache, and the
//! latch-guarded storage backend.
//!
//! The container this repo is developed in exposes **one hardware
//! thread**, so neither this binary nor `--check` asserts a speedup —
//! qps at M > 1 measures latch overhead and fairness under
//! oversubscription, not parallelism. On a multi-core machine the same
//! numbers show scaling; EXPERIMENTS.md discusses both readings.
//!
//! Modes:
//! * default — full measurement over M ∈ {1, 2, 4, 8};
//! * `--smoke` — few repetitions, same schema, writes the `.smoke` file;
//! * `--check` — validate an existing `BENCH_concurrency.json`.

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

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use sysr_audit::workloads::{fig1_db, synth_chain_db, Fig1Params, FIG1_SQL};
use system_r::Database;

/// Session counts measured; the ISSUE's M ∈ {1, 2, 4, 8}.
const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct BenchRow {
    workload: &'static str,
    sessions: usize,
    /// Total queries completed across all sessions.
    queries: usize,
    elapsed_ms: u64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Cores actually available to this process; recorded so a reader knows
/// whether the numbers can even show parallel speedup.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The q-th percentile of a latency sample (nearest-rank on the sorted
/// sample; `q` in [0, 1]).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round();
    let idx = if rank < 0.0 { 0 } else { rank as usize }.min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(0)
}

/// Run `sessions` concurrent sessions, each iterating the query mix
/// `iters` times against the shared database, and fold the per-query
/// latencies into one row.
fn run_workload(
    db: &Database,
    workload: &'static str,
    queries: &[&str],
    sessions: usize,
    iters: usize,
) -> Result<BenchRow, String> {
    let (h0, m0) = db.plan_cache_stats();
    let t0 = Instant::now();
    let per_session: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let session = db.session();
                    let mut lats = Vec::with_capacity(iters * queries.len());
                    for _ in 0..iters {
                        for sql in queries {
                            let q0 = Instant::now();
                            let rows = session.query(sql).map_err(|e| e.to_string())?;
                            std::hint::black_box(rows);
                            lats.push(micros(q0.elapsed()));
                        }
                    }
                    Ok(lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "worker panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed = t0.elapsed();
    let (h1, m1) = db.plan_cache_stats();

    let mut lats: Vec<u64> = per_session.into_iter().flatten().collect();
    lats.sort_unstable();
    let total = lats.len();
    let qps = if elapsed.as_secs_f64() > 0.0 { total as f64 / elapsed.as_secs_f64() } else { 0.0 };
    Ok(BenchRow {
        workload,
        sessions,
        queries: total,
        elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        qps,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        cache_hits: h1.saturating_sub(h0),
        cache_misses: m1.saturating_sub(m0),
    })
}

fn render_json(rows: &[BenchRow], smoke: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"sysr-bench-concurrency/v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"hardware_threads\": {},", hardware_threads());
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"sessions\": {}, \"queries\": {}, \
             \"elapsed_ms\": {}, \"qps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}}}{comma}",
            r.workload,
            r.sessions,
            r.queries,
            r.elapsed_ms,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.cache_hits,
            r.cache_misses
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn repo_root() -> PathBuf {
    // crates/audit/../.. — compile-time anchor, stable under any CWD.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Validate a previously written `BENCH_concurrency.json`: schema, one
/// row per workload × session count, positive qps. Deliberately no
/// speedup assertion — see the module docs (single-hardware-thread
/// container).
fn check(path: &std::path::Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{} unreadable: {e}", path.display()))?;
    for key in ["\"schema\": \"sysr-bench-concurrency/v1\"", "\"hardware_threads\"", "\"rows\""] {
        if !text.contains(key) {
            return Err(format!("{} is missing {key}", path.display()));
        }
    }
    for workload in ["fig1", "chain4"] {
        for sessions in SESSION_COUNTS {
            let row = format!("\"workload\": \"{workload}\", \"sessions\": {sessions},");
            if !text.contains(&row) {
                return Err(format!(
                    "{} has no row for {workload} at {sessions} sessions",
                    path.display()
                ));
            }
        }
    }
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"workload\":") {
            continue;
        }
        for field in ["\"queries\":", "\"qps\":", "\"p50_us\":", "\"p99_us\":"] {
            let Some(pos) = line.find(field) else {
                return Err(format!("bench row missing {field}: {line}"));
            };
            let digits: String = line[pos + field.len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if digits.is_empty() || digits.parse::<f64>().map_or(true, |v| v <= 0.0) {
                return Err(format!("bench row field {field} is not a positive number: {line}"));
            }
        }
    }
    if text.matches('{').count() != text.matches('}').count() {
        return Err(format!("{} has unbalanced braces (truncated?)", path.display()));
    }
    Ok(())
}

fn run(smoke: bool) -> Result<(), String> {
    let fig1 = fig1_db(Fig1Params { n_emp: 600, buffer_pages: 24, ..Fig1Params::default() })
        .map_err(|e| format!("build fig1 workload: {e}"))?;
    let fig1_queries: Vec<&str> = vec![
        FIG1_SQL,
        "SELECT NAME FROM EMP WHERE JOB = 7",
        "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO ORDER BY DEPT.DNO",
        "SELECT NAME FROM EMP WHERE DNO BETWEEN 5 AND 15",
    ];
    let (chain, chain_sql) =
        synth_chain_db(4, 250).map_err(|e| format!("build chain workload: {e}"))?;
    let chain_queries: Vec<&str> = vec![&chain_sql];

    let iters = if smoke { 2 } else { 25 };
    let mut rows = Vec::new();
    for sessions in SESSION_COUNTS {
        for (db, workload, queries) in
            [(&fig1, "fig1", &fig1_queries), (&chain, "chain4", &chain_queries)]
        {
            let row = run_workload(db, workload, queries, sessions, iters)?;
            println!(
                "{workload}/m{sessions}: {} queries in {} ms — {:.1} qps, p50 {} us, p99 {} us \
                 (cache {}h/{}m)",
                row.queries,
                row.elapsed_ms,
                row.qps,
                row.p50_us,
                row.p99_us,
                row.cache_hits,
                row.cache_misses
            );
            rows.push(row);
        }
    }

    let json = render_json(&rows, smoke);
    // Smoke runs (CI) exercise the pipeline without clobbering the
    // committed full-rep numbers.
    let path = repo_root().join(if smoke {
        "BENCH_concurrency.smoke.json"
    } else {
        "BENCH_concurrency.json"
    });
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    check(&path)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => check(&repo_root().join("BENCH_concurrency.json")),
        Some("--smoke") => run(true),
        None => run(false),
        Some(other) => Err(format!("unknown flag {other}; use --smoke or --check")),
    }
}
