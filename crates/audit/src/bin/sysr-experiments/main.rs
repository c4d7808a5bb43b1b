//! Regenerate and check the paper's tables, figures and claims: one
//! report per `results/<name>.txt`.
//!
//! ```sh
//! cargo run --release -p sysr-audit --bin sysr-experiments -- <name> > results/<name>.txt
//! cargo run --release -p sysr-audit --bin sysr-experiments -- --check [name…]
//! ```
//!
//! A report prints its deterministic section (plans, predicted costs, F
//! values, plan counts, measured fetch/RSI/cost-unit counts) and, after
//! the line `-- timing (not checked) --`, whatever read a clock.
//! `--check` runs the named reports (all of them by default) and compares
//! each deterministic section byte for byte with the committed file; on a
//! mismatch it names the file and the first differing line and exits 1.
//! Without names it also fails on a `results/*.txt` that no report
//! writes.

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

mod claims;
mod sweeps;
mod tables;

use std::process::ExitCode;
use sysr_audit::golden;

/// What a report function returns; any error aborts the report.
pub type Res = Result<(), Box<dyn std::error::Error>>;

type ReportFn = fn(&mut Report) -> Res;

/// A report's two sections, written with `writeln!`.
#[derive(Default)]
pub struct Report {
    /// Checked byte for byte by `--check`.
    pub out: String,
    /// Printed after the timing marker and never checked.
    pub timing: String,
}

/// Every report, by the name of the `results/` file it writes.
const REPORTS: &[(&str, ReportFn)] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("fig_search_tree", tables::fig_search_tree),
    ("exp_optimality", claims::exp_optimality),
    ("exp_opt_cost", claims::exp_opt_cost),
    ("exp_scaling", claims::exp_scaling),
    ("exp_scaling_no_heuristic", claims::exp_scaling_no_heuristic),
    ("exp_join_methods", claims::exp_join_methods),
    ("exp_nested", claims::exp_nested),
    ("exp_interesting_orders", sweeps::exp_interesting_orders),
    ("exp_w_sweep", sweeps::exp_w_sweep),
    ("exp_skew", sweeps::exp_skew),
    ("exp_buffer_sweep", sweeps::exp_buffer_sweep),
];

fn run(name: &str) -> Result<String, String> {
    let (_, report) = REPORTS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("no report named `{name}`"))?;
    let mut r = Report::default();
    report(&mut r).map_err(|e| format!("{name}: {e}"))?;
    Ok(golden::render(&r.out, &r.timing))
}

/// Run `names` (every report if empty) and compare each with its
/// committed file; the errors, one per failing report.
fn check(names: &[String]) -> Vec<String> {
    let all: Vec<String> = REPORTS.iter().map(|(n, _)| n.to_string()).collect();
    let mut errors = Vec::new();
    if names.is_empty() {
        // An unreadable `results/` fails every report below anyway.
        for entry in std::fs::read_dir(golden::results_dir()).into_iter().flatten().flatten() {
            let path = entry.path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
            if path.extension().is_some_and(|x| x == "txt") && !all.iter().any(|n| n == stem) {
                errors.push(format!("{}: no report writes this file", path.display()));
            }
        }
    }
    for name in if names.is_empty() { &all } else { names } {
        let path = golden::results_dir().join(format!("{name}.txt"));
        match run(name).and_then(|text| golden::check(&path, &text)) {
            Ok(()) => println!("ok  {name}"),
            Err(e) => errors.push(e),
        }
    }
    errors
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((flag, names)) if flag == "--check" => {
            let errors = check(names);
            for e in &errors {
                eprintln!("FAIL {e}");
            }
            ExitCode::from(u8::from(!errors.is_empty()))
        }
        Some((name, [])) if !name.starts_with('-') => match run(name) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            let names: Vec<&str> = REPORTS.iter().map(|(n, _)| *n).collect();
            eprintln!("usage: sysr-experiments <report> | --check [report…]");
            eprintln!("reports: {}", names.join(", "));
            ExitCode::from(2)
        }
    }
}
