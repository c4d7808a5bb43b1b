//! `benchmark` — the repo's one end-to-end benchmark (see README.md in
//! this directory and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--trace 1]     # every workload, one child process each
//! benchmark --smoke         # the same at a tenth of the size, ≤ 15 s
//! benchmark --check         # smoke runs, names compared with BENCHMARK.json
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod gen;
mod json;
mod measure;
mod oracle;
mod trace;
mod workloads;

use json::{Json, Metric};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// The seed the README's recorded runs used.
const DEFAULT_SEED: u64 = 1979;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.5;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = workloads::NAMES.iter().find(|n| **n == name.as_str());
                args.workload = Some(known.copied().ok_or_else(|| {
                    format!("unknown workload {name}; one of {}", workloads::NAMES.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Scratch space beside the built binary (`<target>/benchmark/`), so
/// everything the benchmark writes stays inside the build directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe.parent().and_then(|p| p.parent()).ok_or("binary has no target directory")?;
    Ok(target.join("benchmark"))
}

fn print_folded(name: &str, unit: &str, f: measure::Folded) {
    println!("{name:<30} {:>14.4} {unit:<6} (min {:.4}, max {:.4})", f.median, f.min, f.max);
}

/// Run one workload in this process; `Ok(correct)`.
fn run_workload(name: &'static str, args: &Args) -> Result<bool, String> {
    // Keeps the sibling CPU busy from set-up to exit; see `Shield`.
    let _shield = measure::Shield::start();
    let scratch = scratch_dir()?;
    let data_dir = scratch.join(format!("data-{name}-{}", std::process::id()));
    let reps = if args.smoke || args.trace { 1 } else { SETUP_REPS };
    let mut w = Workload::build(name, args.seed, &data_dir, reps, args.smoke)
        .map_err(|e| format!("set-up: {e}"))?;
    println!(
        "workload {name} seed {} data checksum {:016x} setup {:.4} s (median of {} set-ups)",
        args.seed, w.data_checksum, w.setup.total_s, w.setups
    );

    let (tally, mut metrics) = if args.trace {
        let trace_file = scratch.join(format!("trace-{name}.json"));
        let report = trace::run(&mut w, args.seed, args.smoke, &trace_file)
            .map_err(|e| format!("traced run: {e}"))?;
        println!("{} spans written to {}", report.spans, trace_file.display());
        for (name, unit, value) in &report.metrics {
            println!("{name:<30} {value:>14.4} {unit}");
        }
        let metrics: Vec<Metric> = report
            .metrics
            .iter()
            .map(|&(name, unit, value)| Metric { name, unit, value })
            .collect();
        (report.tally, metrics)
    } else {
        let seconds =
            args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
        let report = measure::run(&mut w, seconds);
        println!(
            "{} rounds × {} cycles, {} samples, mean {:.4} us",
            measure::ROUNDS,
            report.cycles_per_round,
            report.samples,
            report.mean_us
        );
        print_folded("stmt_per_s", "1/s", report.stmt_per_s);
        print_folded("p50_us", "us", report.p50_us);
        for (template, folded) in &report.template_p50_us {
            print_folded(&format!("tpl.{template}.p50_us"), "us", *folded);
        }
        println!("{:<30} {:>14.4} us     ({})", "tail_us", report.tail.1, report.tail.0);
        print_folded("calib_mops", "Mop/s", report.calib_mops);
        println!("noisy_host {}", report.noisy_host);
        let metrics = vec![
            Metric { name: "setup_s", unit: "s", value: w.setup.total_s },
            Metric { name: "stmt_per_s", unit: "1/s", value: report.stmt_per_s.median },
            Metric { name: "p50_us", unit: "us", value: report.p50_us.median },
        ];
        (report.tally, metrics)
    };

    let dir = w.db.dir();
    drop(w);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let peak_rss_mb = measure::peak_rss_mb();
    println!("{:<30} {peak_rss_mb:>14.4} MB", "peak_rss_mb");
    if !args.trace {
        // Read once the database is gone: the process is at its peak by then.
        metrics.push(Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb });
    }
    let correct = tally.failed == 0;
    println!("{}", json::result_line(correct, tally.attempted, tally.failed, &metrics));
    Ok(correct)
}

/// Re-execute this binary for one workload, so peak RSS and allocator
/// state are per workload. Returns the child's standard output.
fn run_child(name: &str, args: &Args, trace: bool, smoke: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("workload {name} exited with {}:\n{stdout}{stderr}", output.status));
    }
    Ok(stdout)
}

fn run_all(args: &Args) -> Result<bool, String> {
    for name in workloads::NAMES {
        print!("{}", run_child(name, args, args.trace, args.smoke)?);
    }
    Ok(true)
}

fn names(declared: &Json, section: &str) -> BTreeSet<String> {
    let items = declared.get(section).map(Json::as_array).unwrap_or_default();
    items.iter().filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from)).collect()
}

/// `--check`: every workload and metric name the benchmark emits equals
/// the set `BENCHMARK.json` (in the current directory) declares, with the
/// declared units, and every end-to-end metric declares a bound.
fn check(args: &Args) -> Result<bool, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut problems = Vec::new();
    let ours: BTreeSet<String> = workloads::NAMES.iter().map(|n| (*n).to_string()).collect();
    if names(&declared, "workloads") != ours {
        problems.push(format!("workloads differ: declared {:?}", names(&declared, "workloads")));
    }
    for m in declared.get("end_to_end").map(Json::as_array).unwrap_or_default() {
        let bound = m.get("bound").and_then(Json::as_f64);
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            problems.push(format!("end_to_end metric without a bound in (0, 0.25]: {m:?}"));
        }
    }
    for name in workloads::NAMES {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let stdout = run_child(name, args, trace, true)?;
            let line = stdout.lines().last().unwrap_or_default();
            let result = json::parse(line).map_err(|e| format!("{name} result line: {e}"))?;
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                problems.push(format!("{name} --trace {}: no metrics object", u8::from(trace)));
                continue;
            };
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            if emitted != names(&declared, section) {
                let declared = names(&declared, section);
                problems.push(format!(
                    "{name} {section}: emitted but not declared {:?}, declared but not emitted {:?}",
                    emitted.difference(&declared).collect::<Vec<_>>(),
                    declared.difference(&emitted).collect::<Vec<_>>()
                ));
            }
            for m in declared.get(section).map(Json::as_array).unwrap_or_default() {
                let unit = m.get("unit").and_then(Json::as_str);
                let emitted_unit = m
                    .get("name")
                    .and_then(Json::as_str)
                    .and_then(|n| metrics.get(n))
                    .and_then(|e| e.get("unit"))
                    .and_then(Json::as_str);
                if unit.is_none() || (emitted_unit.is_some() && unit != emitted_unit) {
                    problems.push(format!("{name} {section}: unit mismatch for {m:?}"));
                }
            }
            if result.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{name} --trace {}: not correct", u8::from(trace)));
            }
        }
    }
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!("check: {} problem(s)", problems.len());
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        _ if args.check => check(&args),
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
