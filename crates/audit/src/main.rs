//! `sysr-audit` — run the plan auditor.
//!
//! ```text
//! sysr-audit --all               # every engine below (CI mode)
//! sysr-audit --plans             # plan invariants over the built-in corpus
//! sysr-audit --diff              # DP-vs-exhaustive oracle + sampled 5-6-way orders
//! sysr-audit --concurrent        # 8-thread serving must match single-thread plans + rows
//! sysr-audit --exec              # traced corpus replay: batched-executor accounting identities
//! sysr-audit --recovery          # page-checksum + reopen-equivalence rules
//! sysr-audit --cost-props        # Table 1/2 formula property verifier
//! sysr-audit --model             # bounded schedule exploration of the RSS latches
//! sysr-audit --mutant <name>     # with --model/--cost-props: the seeded bug must be *found*
//! sysr-audit --seed <n>          # seed for the random corpus (default 0xA0D17)
//! sysr-audit --random <n>        # number of random cases (default 12)
//! ```
//!
//! Exit status: 0 when every check passes, 1 on any violation, 2 on bad
//! usage. Output is one violation per line plus a summary — grep-friendly
//! for CI logs.

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

use std::process::ExitCode;
use sysr_audit::corpus::{builtin_cases, parse_select, random_chain_cases, CorpusCase};
use sysr_audit::invariants::{audit_query_plan, audit_traces};
use sysr_audit::{differential, AuditReport, Violation};
use sysr_core::{Optimizer, OptimizerConfig};

struct Options {
    plans: bool,
    diff: bool,
    concurrent: bool,
    exec: bool,
    recovery: bool,
    cost_props: bool,
    model: bool,
    mutant: Option<String>,
    seed: u64,
    random: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        plans: false,
        diff: false,
        concurrent: false,
        exec: false,
        recovery: false,
        cost_props: false,
        model: false,
        mutant: None,
        seed: 0xA0D17,
        random: 12,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                opts.plans = true;
                opts.diff = true;
                opts.concurrent = true;
                opts.exec = true;
                opts.recovery = true;
                opts.cost_props = true;
                opts.model = true;
            }
            "--plans" => opts.plans = true,
            "--diff" => opts.diff = true,
            "--concurrent" => opts.concurrent = true,
            "--exec" => opts.exec = true,
            "--recovery" => opts.recovery = true,
            "--cost-props" => opts.cost_props = true,
            "--model" => opts.model = true,
            "--mutant" => {
                opts.mutant = Some(it.next().ok_or("--mutant needs a name")?.clone());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--random" => {
                let v = it.next().ok_or("--random needs a number")?;
                opts.random = v.parse().map_err(|_| format!("bad count {v}"))?;
            }
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(name) = &opts.mutant {
        // Dispatch the drill by which engine owns the named mutant:
        // cost-formula mutants run under --cost-props, schedule mutants
        // (and unknown names, which --model reports) under --model.
        let is_cost = sysr_audit::costprops::MUTANTS.iter().any(|(n, _)| n == name);
        if is_cost && !opts.cost_props {
            return Err(format!("--mutant {name} needs --cost-props"));
        }
        if !is_cost && !opts.model && !opts.cost_props {
            return Err("--mutant only makes sense with --model or --cost-props".into());
        }
    }
    if !(opts.plans
        || opts.diff
        || opts.concurrent
        || opts.exec
        || opts.recovery
        || opts.cost_props
        || opts.model)
    {
        return Err("pick at least one of --all / --plans / --diff / --concurrent / --exec / \
             --recovery / --cost-props / --model"
            .into());
    }
    Ok(opts)
}

/// Optimize every corpus case and audit the plan plus its search traces.
fn audit_corpus_plans(cases: &[CorpusCase], config: OptimizerConfig) -> AuditReport {
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
        let optimizer = Optimizer::with_config(&case.catalog, config);
        match optimizer.optimize_traced(&stmt) {
            Ok((plan, traces)) => {
                report.merge(audit_query_plan(&case.catalog, &plan, &config, &case.label));
                report.merge(audit_traces(&traces, &case.label));
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg == "help" {
                eprintln!("usage: sysr-audit [--all|--plans|--diff|--concurrent|--exec|--recovery|--cost-props|--model] [--mutant NAME] [--seed N] [--random N]");
                return ExitCode::SUCCESS;
            }
            eprintln!("sysr-audit: {msg}");
            return ExitCode::from(2);
        }
    };

    let config = OptimizerConfig::default();
    let mut cases = builtin_cases();
    cases.extend(random_chain_cases(opts.seed, opts.random));

    let mut report = AuditReport::default();
    if opts.plans {
        let r = audit_corpus_plans(&cases, config);
        println!("plans: {} checks, {} violations", r.checks, r.violations.len());
        report.merge(r);
    }
    if opts.diff {
        let mut r = differential::audit_differential(&cases, config);
        r.merge(differential::audit_order_samples(opts.seed, config));
        println!("differential: {} checks, {} violations", r.checks, r.violations.len());
        report.merge(r);
    }
    if opts.concurrent {
        let r = sysr_audit::concurrent::audit_concurrent(config);
        println!("concurrent: {} checks, {} violations", r.checks, r.violations.len());
        report.merge(r);
    }
    if opts.exec {
        let r = sysr_audit::concurrent::audit_exec_accounting(config);
        println!("exec-accounting: {} checks, {} violations", r.checks, r.violations.len());
        report.merge(r);
    }
    if opts.recovery {
        let r = sysr_audit::recovery::audit_recovery();
        println!("recovery: {} checks, {} violations", r.checks, r.violations.len());
        report.merge(r);
    }
    // A named mutant drills the engine that owns it; unknown names go to
    // whichever selected engine can report them as uncaught.
    let is_cost_mutant =
        |n: &&str| sysr_audit::costprops::MUTANTS.iter().any(|(m, _)| m == n) || !opts.model;
    let cost_mutant = opts.mutant.as_deref().filter(is_cost_mutant);
    let model_mutant = if cost_mutant.is_some() { None } else { opts.mutant.as_deref() };
    if opts.cost_props {
        let out = sysr_audit::costprops::audit_cost_props(cost_mutant);
        println!(
            "cost-props: {} checks, {} violations",
            out.report.checks,
            out.report.violations.len()
        );
        for note in &out.notes {
            println!("  {}", note.replace('\n', "\n  "));
        }
        report.merge(out.report);
    }
    if opts.model {
        let out = sysr_audit::model::audit_model(model_mutant);
        println!(
            "model: {} schedules explored, {} violations",
            out.report.checks,
            out.report.violations.len()
        );
        for note in &out.notes {
            println!("  {}", note.replace('\n', "\n  "));
        }
        report.merge(out.report);
    }

    print!("{}", report.render());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
