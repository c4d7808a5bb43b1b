//! `sysr` — an interactive shell for the System R reproduction.
//!
//! ```sh
//! cargo run --release --bin sysr
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
//! * `\audit [select]` — verify the plan invariants (see `sysr-audit`);
//!   with no argument, run the audit over its built-in corpus
//! * `\demo`    — load the paper's Fig. 1 example database
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
                audit_builtin_corpus(db.config());
            } else {
                match db.audit(sql) {
                    Ok(r) => print!("{}", r.render()),
                    Err(e) => report(e),
                }
            }
        }
        "\\demo" => match load_demo(db) {
            Ok(()) => println!("Fig. 1 demo loaded: EMP (10k), DEPT (50), JOB (4); try:\n  EXPLAIN SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB WHERE TITLE='CLERK' AND LOC='DENVER' AND EMP.DNO=DEPT.DNO AND EMP.JOB=JOB.JOB;"),
            Err(e) => report(e),
        },
        other => eprintln!("unknown command {other}; try \\q \\stats \\reset \\evict \\save \\open \\tables \\cache \\w \\trace \\audit \\demo"),
    }
    true
}

/// `\audit` with no SQL: run the plan auditor and differential oracle
/// over `sysr-audit`'s built-in corpus under the shell's current config.
fn audit_builtin_corpus(config: system_r::Config) {
    use system_r::audit::{corpus, differential, invariants, AuditReport};
    use system_r::core::Optimizer;
    let mut report = AuditReport::default();
    for case in corpus::builtin_cases() {
        match corpus::parse_select(&case.sql) {
            Ok(stmt) => {
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
                    Err(e) => eprintln!("{}: bind error: {e}", case.label),
                }
            }
            Err(e) => eprintln!("{}: parse error: {e}", case.label),
        }
        report.merge(differential::differential_case(&case, config));
    }
    print!("{}", report.render());
}

fn load_demo(db: &mut Database) -> Result<(), DbError> {
    use system_r::tuple;
    db.execute("CREATE TABLE EMP (NAME VARCHAR(20), DNO INTEGER, JOB INTEGER, SAL FLOAT)")?;
    db.execute("CREATE TABLE DEPT (DNO INTEGER, DNAME VARCHAR(20), LOC VARCHAR(20))")?;
    db.execute("CREATE TABLE JOB (JOB INTEGER, TITLE VARCHAR(20))")?;
    db.execute("INSERT INTO JOB VALUES (5,'CLERK'), (6,'TYPIST'), (9,'SALES'), (12,'MECHANIC')")?;
    let cities = ["DENVER", "SAN JOSE", "TUCSON", "BOSTON"];
    db.insert_rows(
        "DEPT",
        (0..50).map(|d| tuple![d, format!("DEPT-{d:02}"), cities[(d % 4) as usize]]),
    )?;
    let jobs = [5i64, 6, 9, 12];
    db.insert_rows(
        "EMP",
        (0..10_000).map(|i| {
            tuple![
                format!("EMP-{i:05}"),
                (i * 7919) % 50,
                jobs[(i % 4) as usize],
                10_000.0 + (i % 500) as f64 * 50.0
            ]
        }),
    )?;
    db.execute("CREATE INDEX EMP_DNO ON EMP (DNO)")?;
    db.execute("CREATE INDEX EMP_JOB ON EMP (JOB)")?;
    db.execute("CREATE UNIQUE INDEX DEPT_DNO ON DEPT (DNO)")?;
    db.execute("CREATE UNIQUE INDEX JOB_JOB ON JOB (JOB)")?;
    db.execute("UPDATE STATISTICS")?;
    Ok(())
}
