//! Negative coverage for the cost-property verifier (`--cost-props`).
//!
//! The planted mutant flips a process-global `AtomicBool` inside
//! `system_r::core::cost`, so everything here runs in one sequential test fn
//! in its own integration-test binary: sharing a process with other
//! tests that evaluate the cost model would leak the armed fault into
//! their formulas.

use sysr_audit::costprops::{audit_cost_props, MUTANTS};
use system_r::core::cost::mutant;

#[test]
fn mutant_drill_fires_when_armed_and_is_caught_by_the_verifier() {
    // 1. Arm the fault by hand: a plain verification run must now fail —
    //    this is what "the verifier was lobotomized" would NOT look like.
    mutant::arm_cost_monotone(true);
    let broken = audit_cost_props(None);
    mutant::arm_cost_monotone(false);
    assert!(
        broken.report.violations.iter().any(|v| v.rule == "cost-monotone"),
        "armed mutant must break monotonicity:\n{}",
        broken.report.render()
    );
    // The counterexample is replayable: it names the formula, the axis,
    // and the full evaluation point.
    let v =
        broken.report.violations.iter().find(|v| v.rule == "cost-monotone").expect("checked above");
    assert!(v.detail.contains("TCARD="), "counterexample must print the point: {v}");

    // 2. The drill proper: `--mutant cost-monotone` arms, verifies, and
    //    reports *success* (a caught-mutant note, no violations).
    let drill = audit_cost_props(Some("cost-monotone"));
    assert!(drill.report.ok(), "caught mutant is a pass:\n{}", drill.report.render());
    assert!(
        drill.notes.iter().any(|n| n.contains("caught")),
        "drill must note the catch: {:?}",
        drill.notes
    );

    // 3. The fault is disarmed afterwards: a clean run stays green.
    let clean = audit_cost_props(None);
    assert!(clean.report.ok(), "post-drill run must be clean:\n{}", clean.report.render());
    assert!(clean.report.checks > 1_000, "verifier barely checked anything");

    // 4. An unknown mutant name is itself a violation — the drill cannot
    //    silently "pass" by asking for a fault that was never planted.
    let unknown = audit_cost_props(Some("no-such-mutant"));
    assert!(
        unknown.report.violations.iter().any(|v| v.rule == "cost-mutant-uncaught"),
        "unknown mutant must be reported:\n{}",
        unknown.report.render()
    );
    assert!(!MUTANTS.is_empty(), "mutant registry must stay populated");
}
