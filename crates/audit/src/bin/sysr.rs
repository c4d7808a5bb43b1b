//! `sysr` — an interactive shell for the System R reproduction.
//!
//! ```sh
//! cargo run --release -p sysr-audit --bin sysr
//! ```
//!
//! Statements end with `;` and may span lines. Backslash commands:
//!
//! * `\stats`   — I/O counters since the last `\reset`
//! * `\reset`   — zero the I/O counters
//! * `\evict`   — drop all buffered pages (next query runs cold)
//! * `\save <dir>` — save the database (page files + catalogs) to a directory
//! * `\open <dir>` — open a database previously saved with `\save`
//! * `\tables`  — list relations with their statistics
//! * `\cache`   — statement-plan-cache counters and current size
//! * `\w <f>`   — set the CPU weighting factor W
//! * `\trace <select>` — show the optimizer's join-order search trace
//! * `\audit [select]` — audit one SELECT end to end; with no argument,
//!   run what `sysr-audit --plans --diff` runs over its corpus
//! * `\demo`    — replace the database with the paper's Fig. 1 example
//! * `\q`       — quit
//!
//! Prefix any SELECT with `EXPLAIN` to see the chosen plan and its
//! predicted cost instead of running it, or with `EXPLAIN ANALYZE` to run
//! it and see measured rows and page fetches next to the predictions.

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

use std::io::{BufRead, Write};
use sysr_audit::workloads::{fig1_db, Fig1Params, FIG1_SQL};
use sysr_audit::{audit, audit_diff, audit_plans, corpus};
use system_r::{Database, DbError};

fn main() {
    let mut db = Database::new();
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    println!("system-r shell — Selinger et al. (1979) reproduction. \\q to quit, \\demo for sample data.");
    prompt(buffer.is_empty());
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            if !command(&mut db, trimmed) {
                return;
            }
            prompt(true);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let sql = std::mem::take(&mut buffer);
            run(&mut db, &sql);
        }
        prompt(buffer.is_empty());
    }
}

fn prompt(fresh: bool) {
    print!("{}", if fresh { "sysr> " } else { "  ... " });
    let _ = std::io::stdout().flush();
}

fn run(db: &mut Database, sql: &str) {
    let started = std::time::Instant::now();
    match db.execute_script(sql) {
        Ok(result) => {
            // EXPLAIN results carry the plan as a single text cell.
            if result.columns == ["PLAN"] {
                if let Some(row) = result.rows.first() {
                    println!("{}", row[0].as_str().unwrap_or(""));
                }
            } else if result.columns.is_empty() {
                println!("ok ({:.1} ms)", started.elapsed().as_secs_f64() * 1e3);
            } else {
                print!("{result}");
                println!("({:.1} ms)", started.elapsed().as_secs_f64() * 1e3);
            }
        }
        Err(e) => report(e),
    }
}

fn report(e: DbError) {
    eprintln!("error: {e}");
}

/// Handle a backslash command; returns false to quit.
fn command(db: &mut Database, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "\\q" | "\\quit" | "\\exit" => return false,
        "\\stats" => {
            let io = db.io_stats();
            println!("{io}");
            println!(
                "weighted cost (W={}): {:.1}",
                db.config().w,
                system_r::core::Cost::from_io(&io).total(db.config().w)
            );
            let (hits, misses) = db.plan_cache_stats();
            println!("plan cache: {hits} hits, {misses} misses, {} cached", db.plan_cache_len());
        }
        "\\cache" => {
            let (hits, misses) = db.plan_cache_stats();
            println!("plan cache: {hits} hits, {misses} misses, {} cached", db.plan_cache_len());
        }
        "\\reset" => {
            db.reset_io_stats();
            println!("counters zeroed");
        }
        "\\evict" => match db.evict_buffers() {
            Ok(()) => println!("buffer pool emptied"),
            Err(e) => report(e),
        },
        "\\save" => match parts.next() {
            Some(dir) => match db.save(dir) {
                Ok(()) => println!("saved to {dir}"),
                Err(e) => report(e),
            },
            None => eprintln!("usage: \\save <directory>"),
        },
        "\\open" => match parts.next() {
            Some(dir) => match Database::open_with_config(dir, db.config()) {
                Ok(opened) => {
                    *db = opened;
                    println!("opened {dir} ({} relations)", db.catalog().relations().len());
                }
                Err(e) => report(e),
            },
            None => eprintln!("usage: \\open <directory>"),
        },
        "\\tables" => {
            for rel in db.catalog().relations() {
                let idx: Vec<String> = db
                    .catalog()
                    .indexes_on(rel.id)
                    .map(|i| {
                        format!(
                            "{}{}{}({})",
                            i.name,
                            if i.unique { " UNIQUE" } else { "" },
                            if i.clustered { " CLUSTERED" } else { "" },
                            i.stats.icard
                        )
                    })
                    .collect();
                println!(
                    "{}: NCARD={} TCARD={} P={:.2} width≈{:.0}B {}",
                    rel.name,
                    rel.stats.ncard,
                    rel.stats.tcard,
                    rel.stats.pfrac,
                    rel.stats.avg_width,
                    if idx.is_empty() { String::new() } else { format!("indexes: {}", idx.join(", ")) }
                );
            }
        }
        "\\w" => match parts.next().and_then(|s| s.parse::<f64>().ok()) {
            Some(w) => {
                let mut cfg = db.config();
                cfg.w = w;
                match db.set_config(cfg) {
                    Ok(()) => println!("W = {w}"),
                    Err(e) => report(e),
                }
            }
            None => eprintln!("usage: \\w <float>"),
        },
        "\\trace" => {
            let sql = cmd["\\trace".len()..].trim().trim_end_matches(';');
            if sql.is_empty() {
                eprintln!("usage: \\trace <select>");
            } else {
                match db.search_trace(sql) {
                    Ok(text) => print!("{text}"),
                    Err(e) => report(e),
                }
            }
        }
        "\\audit" => {
            let sql = cmd["\\audit".len()..].trim().trim_end_matches(';');
            if sql.is_empty() {
                let (seed, config) = (corpus::DEFAULT_SEED, db.config());
                let cases = corpus::cases(seed, corpus::DEFAULT_RANDOM);
                let mut report = audit_plans(&cases, config);
                report.merge(audit_diff(&cases, seed, config));
                print!("{}", report.render());
            } else {
                match audit(db, sql) {
                    Ok(r) => print!("{}", r.render()),
                    Err(e) => report(e),
                }
            }
        }
        "\\demo" => {
            // The paper's Fig. 1 database, planned under the shell's knobs.
            let config = db.config();
            let p = Fig1Params {
                n_emp: 10_000,
                n_dept: 50,
                n_job: 4,
                buffer_pages: config.buffer_pages,
                ..Fig1Params::default()
            };
            match fig1_db(p).and_then(|mut demo| demo.set_config(config).map(|()| demo)) {
                Ok(demo) => {
                    *db = demo;
                    println!("Fig. 1 demo loaded: EMP (10k), DEPT (50), JOB (4); try:\n  EXPLAIN {FIG1_SQL};");
                }
                Err(e) => report(e),
            }
        }
        other => eprintln!("unknown command {other}; try \\q \\stats \\reset \\evict \\save \\open \\tables \\cache \\w \\trace \\audit \\demo"),
    }
    true
}
