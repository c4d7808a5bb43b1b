//! Cost-property verifier: domain checks over every Table 1 selectivity
//! and Table 2 cost formula (`sysr-audit --cost-props`).
//!
//! The plan auditor ([`crate::invariants`]) checks the formulas' *outputs
//! on real plans*; this engine checks the formulas *themselves*, over
//! adversarial input domains no corpus query reaches: zero and huge
//! cardinalities, fractional selectivities at both ends, page counts
//! straddling every branch switch, and SplitMix64-sampled interior
//! points. Three property families (DESIGN.md §15 has the full
//! formula × property × domain table):
//!
//! * **`cost-nonneg`** — pages and RSI components are `≥ 0` on the whole
//!   domain (a negative cost would make the DP chase nonsense plans);
//! * **`cost-finite`** — no input in the domain produces NaN or ±inf
//!   (NaN comparisons silently break the DP's `min`);
//! * **`cost-monotone`** — each formula is non-decreasing in the
//!   arguments the paper's semantics require (more tuples cannot cost
//!   less), on the *documented* domain — e.g. `nonclustered_nonmatching`
//!   is only monotone in TCARD while `TCARD ≤ NCARD`, and
//!   `distinct_pages` only above one whole tuple; §15 explains why the
//!   unrestricted claims are false;
//! * **`sel-range`** — Table 1 selectivities stay in `[0, 1]` and finite
//!   on catalogs with adversarial statistics (ICARD = 0, inverted key
//!   ranges, NaN widths), `1/ICARD` is non-increasing in ICARD, and
//!   range interpolation moves the right way.
//!
//! Every violation prints the exact input point (and the run's seed), so
//! a failure replays as a one-line unit test.
//!
//! The **`--mutant cost-monotone`** drill (the PR-7 pattern) arms a
//! planted non-monotone variant of `clustered_matching` — page cost dips
//! back down past TCARD = 500 — and demands this verifier catch it: a
//! lobotomized checker turns the drill into a `cost-mutant-uncaught`
//! violation and a nonzero exit.

use crate::{corpus, AuditReport, Violation};
use sysr_catalog::{IndexStats, RelStats};
use sysr_core::cost::{
    distinct_pages, mutant, partial_sort_delta, temp_pages, SORT_RUN_MEMORY_ROWS,
};
use sysr_core::{bind_select, estimate_qcard, Cost, CostModel, Selectivity};
use sysr_rss::SplitMix64;

/// Rules this engine can emit.
pub const RULES: &[&str] =
    &["cost-nonneg", "cost-finite", "cost-monotone", "sel-range", "cost-mutant-uncaught"];

/// Mutants `--mutant <name>` can arm: `(name, what the fault does)`.
pub const MUTANTS: &[(&str, &str)] = &[(
    "cost-monotone",
    "clustered_matching page cost dips back down past TCARD = 500 \
     (non-monotone in the relation cardinality)",
)];

/// Tuning knobs, fixed by default so runs are reproducible.
#[derive(Debug, Clone, Copy)]
pub struct CostPropsConfig {
    /// SplitMix64-sampled interior points per property, on top of the
    /// exhaustive boundary grids.
    pub samples: u32,
    /// PRNG seed; printed with every counterexample.
    pub seed: u64,
}

impl Default for CostPropsConfig {
    fn default() -> Self {
        CostPropsConfig { samples: 256, seed: 0xA0D17 }
    }
}

/// Outcome: the report plus human-readable notes (drill results).
#[derive(Debug, Clone, Default)]
pub struct CostPropsOutcome {
    pub report: AuditReport,
    pub notes: Vec<String>,
}

/// Run the verifier; `mutant` optionally arms a planted fault first and
/// then *requires* the checks to catch it.
pub fn audit_cost_props(mutant_name: Option<&str>) -> CostPropsOutcome {
    audit_cost_props_with(mutant_name, CostPropsConfig::default())
}

pub fn audit_cost_props_with(mutant_name: Option<&str>, cfg: CostPropsConfig) -> CostPropsOutcome {
    let mut out = CostPropsOutcome::default();
    match mutant_name {
        None => run_all(&mut out.report, cfg),
        Some(name) if MUTANTS.iter().any(|(n, _)| *n == name) => {
            mutant::arm_cost_monotone(true);
            run_all(&mut out.report, cfg);
            mutant::arm_cost_monotone(false);
            let caught: Vec<Violation> =
                out.report.violations.drain(..).filter(|v| v.rule == "cost-monotone").collect();
            match caught.first() {
                Some(first) => {
                    out.notes.push(format!(
                        "mutant `{name}` caught: {} counterexample{} — first: {first}",
                        caught.len(),
                        if caught.len() == 1 { "" } else { "s" },
                    ));
                }
                None => out.report.push(Violation::new(
                    "cost-mutant-uncaught",
                    format!("mutant/{name}"),
                    "planted non-monotone cost formula survived every domain check; \
                     the verifier has lost its teeth",
                )),
            }
        }
        Some(name) => out.report.push(Violation::new(
            "cost-mutant-uncaught",
            format!("mutant/{name}"),
            format!(
                "unknown mutant; available: {}",
                MUTANTS.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
            ),
        )),
    }
    out
}

fn run_all(report: &mut AuditReport, cfg: CostPropsConfig) {
    table2_pointwise(report, cfg);
    table2_monotone(report, cfg);
    sort_properties(report, cfg);
    table1_selectivities(report);
}

// ---------------------------------------------------------------------------
// Domain sampling
// ---------------------------------------------------------------------------

/// Boundary grids. TCARD straddles 500 on both sides so the planted
/// `--mutant cost-monotone` dip is caught deterministically, not only by
/// luck of the sampler.
const F_GRID: &[f64] = &[0.0, 1e-9, 0.001, 0.1, 0.5, 1.0];
const NINDX_GRID: &[f64] = &[0.0, 1.0, 2.0, 30.0, 1e6];
const TCARD_GRID: &[f64] = &[0.0, 1.0, 2.0, 100.0, 450.0, 500.0, 1000.0, 1e6];
const P_GRID: &[f64] = &[0.0, 0.01, 0.1, 0.5, 1.0];
const ROWS_GRID: &[f64] = &[0.0, 1.0, 2.0, 1023.0, 1024.0, 1025.0, 10_250.0, 1e7];
const WIDTH_GRID: &[f64] = &[1.0, 50.0, 4080.0, 5000.0];
const RUNS_GRID: &[f64] = &[1.0, 2.0, 10.0, 1e4];
const BUFFER_GRID: &[usize] = &[0, 64, 1_000_000_000];

/// One sampled Table 2 input point. `ncard ≥ tcard` by construction —
/// a relation has at least as many tuples as pages holding them; the
/// formulas whose monotonicity depends on that are documented in §15.
#[derive(Debug, Clone, Copy)]
struct Point {
    f: f64,
    nindx: f64,
    tcard: f64,
    ncard: f64,
    p: f64,
    rsicard: f64,
    buffer: usize,
}

impl std::fmt::Display for Point {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            out,
            "F={} NINDX={} TCARD={} NCARD={} P={} RSICARD={} buffer={}",
            self.f, self.nindx, self.tcard, self.ncard, self.p, self.rsicard, self.buffer
        )
    }
}

fn grid_points() -> Vec<Point> {
    let mut out = Vec::new();
    for &f in F_GRID {
        for &nindx in NINDX_GRID {
            for &tcard in TCARD_GRID {
                for (mult, buffer) in
                    [(1.0, BUFFER_GRID[0]), (25.0, BUFFER_GRID[1]), (1.0, BUFFER_GRID[2])]
                {
                    out.push(Point {
                        f,
                        nindx,
                        tcard,
                        ncard: (tcard * mult).max(tcard),
                        p: P_GRID[(out.len()) % P_GRID.len()],
                        rsicard: f * (tcard * mult).max(1.0),
                        buffer,
                    });
                }
            }
        }
    }
    out
}

fn sample_point(rng: &mut SplitMix64) -> Point {
    let tcard = (rng.f64() * 1e6).floor();
    let mult = 1.0 + (rng.f64() * 50.0).floor();
    Point {
        f: rng.f64(),
        nindx: (rng.f64() * 1e4).floor(),
        tcard,
        ncard: tcard * mult,
        p: rng.f64(),
        rsicard: (rng.f64() * 1e5).floor(),
        buffer: *rng.pick(BUFFER_GRID).unwrap_or(&64),
    }
}

// ---------------------------------------------------------------------------
// Table 2: pointwise non-negativity and finiteness
// ---------------------------------------------------------------------------

/// Every Table 2 formula output at one point, labeled.
fn formulas_at(pt: &Point) -> Vec<(&'static str, Cost)> {
    let m = CostModel::new(0.02, pt.buffer);
    vec![
        ("unique_index_eq", m.unique_index_eq()),
        ("clustered_matching", m.clustered_matching(pt.f, pt.nindx, pt.tcard, pt.rsicard)),
        (
            "nonclustered_matching",
            m.nonclustered_matching(pt.f, pt.nindx, pt.ncard, pt.tcard, pt.rsicard),
        ),
        (
            "nonclustered_matching_paper",
            m.nonclustered_matching_paper(pt.f, pt.nindx, pt.ncard, pt.tcard, pt.rsicard),
        ),
        ("clustered_nonmatching", m.clustered_nonmatching(pt.nindx, pt.tcard, pt.rsicard)),
        (
            "nonclustered_nonmatching",
            m.nonclustered_nonmatching(pt.nindx, pt.ncard, pt.tcard, pt.rsicard),
        ),
        ("segment_scan", m.segment_scan(pt.tcard, pt.p, pt.rsicard)),
        ("merge_inner_sorted", m.merge_inner_sorted(pt.tcard, pt.ncard.max(1.0), pt.rsicard)),
        ("distinct_pages", Cost::new(distinct_pages(pt.f * pt.ncard, pt.tcard), 0.0)),
        ("temp_pages", Cost::new(temp_pages(pt.ncard, 50.0), 0.0)),
    ]
}

fn table2_pointwise(report: &mut AuditReport, cfg: CostPropsConfig) {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut points = grid_points();
    for _ in 0..cfg.samples {
        points.push(sample_point(&mut rng));
    }
    for pt in &points {
        for (name, c) in formulas_at(pt) {
            report.checks += 2;
            if !(c.pages.is_finite() && c.rsi.is_finite()) {
                report.push(Violation::new(
                    "cost-finite",
                    format!("table2/{name}"),
                    format!("non-finite cost {c} at {pt} (seed 0x{:X})", cfg.seed),
                ));
            }
            if c.pages < 0.0 || c.rsi < 0.0 {
                report.push(Violation::new(
                    "cost-nonneg",
                    format!("table2/{name}"),
                    format!("negative cost {c} at {pt} (seed 0x{:X})", cfg.seed),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Table 2: monotonicity
// ---------------------------------------------------------------------------

/// Check that `eval` is non-decreasing along `axis` values at `pt`, i.e.
/// for every adjacent pair of the sorted axis grid.
fn check_monotone(
    report: &mut AuditReport,
    cfg: CostPropsConfig,
    name: &str,
    axis: &str,
    pt: &Point,
    grid: &[f64],
    eval: impl Fn(f64) -> f64,
) {
    let mut values: Vec<f64> = grid.to_vec();
    values.sort_by(f64::total_cmp);
    for pair in values.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let (clo, chi) = (eval(lo), eval(hi));
        report.checks += 1;
        // Tolerate float roundoff at the 1e-9-relative level; real
        // regressions (branch switches, the planted mutant) are gross.
        if clo > chi + 1e-9 * clo.abs().max(1.0) {
            report.push(Violation::new(
                "cost-monotone",
                format!("table2/{name}"),
                format!(
                    "not monotone in {axis}: cost({axis}={lo}) = {clo} > \
                     cost({axis}={hi}) = {chi} at {pt} (seed 0x{:X})",
                    cfg.seed
                ),
            ));
        }
    }
}

fn table2_monotone(report: &mut AuditReport, cfg: CostPropsConfig) {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED);
    let mut points = grid_points();
    for _ in 0..cfg.samples / 4 {
        points.push(sample_point(&mut rng));
    }
    let tcard_axis: Vec<f64> = TCARD_GRID.to_vec();
    let f_axis: Vec<f64> = F_GRID.to_vec();
    for pt in &points {
        let m = CostModel::new(0.02, pt.buffer);
        // clustered_matching: page cost `F·(NINDX + TCARD)` must grow
        // with TCARD and with F. This is the axis the planted mutant
        // bends (dip past TCARD = 500), so the TCARD grid brackets 500.
        check_monotone(report, cfg, "clustered_matching", "TCARD", pt, &tcard_axis, |t| {
            m.clustered_matching(pt.f, pt.nindx, t, pt.rsicard).pages
        });
        check_monotone(report, cfg, "clustered_matching", "F", pt, &f_axis, |f| {
            m.clustered_matching(f, pt.nindx, pt.tcard, pt.rsicard).pages
        });
        check_monotone(report, cfg, "clustered_nonmatching", "TCARD", pt, &tcard_axis, |t| {
            m.clustered_nonmatching(pt.nindx, t, pt.rsicard).pages
        });
        // nonclustered_matching: monotone in F. Domain: F·NCARD ≥ 1 and
        // TCARD ≥ 1 (below one whole tuple `distinct_pages`'s p ≤ 1
        // branch rounds up to a full page and big ≥ small fails — §15).
        if pt.tcard >= 1.0 && pt.ncard >= 2.0 {
            let f_dom: Vec<f64> = f_axis.iter().copied().filter(|f| f * pt.ncard >= 1.0).collect();
            check_monotone(report, cfg, "nonclustered_matching", "F", pt, &f_dom, |f| {
                m.nonclustered_matching(f, pt.nindx, pt.ncard, pt.tcard, pt.rsicard).pages
            });
        }
        // nonclustered_nonmatching: monotone in TCARD only while
        // TCARD ≤ NCARD (the buffered variant's `NINDX + TCARD` must not
        // overtake the unbuffered `NINDX + NCARD` — §15).
        let t_dom: Vec<f64> = tcard_axis.iter().copied().filter(|t| *t <= pt.ncard).collect();
        check_monotone(report, cfg, "nonclustered_nonmatching", "TCARD", pt, &t_dom, |t| {
            m.nonclustered_nonmatching(pt.nindx, pt.ncard, t, pt.rsicard).pages
        });
        // segment_scan: more tuple pages cost more; a denser segment
        // (larger P = TCARD / non-empty pages) costs no more.
        check_monotone(report, cfg, "segment_scan", "TCARD", pt, &tcard_axis, |t| {
            m.segment_scan(t, pt.p, pt.rsicard).pages
        });
        // Density: a sparser segment (smaller P, same TCARD) touches at
        // least as many pages. Expressed as monotone in the axis
        // q = 1 - P so `check_monotone`'s non-decreasing contract fits.
        let q_axis: Vec<f64> = P_GRID.iter().filter(|p| **p > 0.0).map(|p| 1.0 - p).collect();
        check_monotone(report, cfg, "segment_scan", "1-P", pt, &q_axis, |q| {
            m.segment_scan(pt.tcard, 1.0 - q, pt.rsicard).pages
        });
        // distinct_pages (Cardenas): monotone in tuples everywhere, in
        // pages only above one whole tuple (§15); bounded by both.
        check_monotone(report, cfg, "distinct_pages", "tuples", pt, &tcard_axis, |t| {
            distinct_pages(t, pt.tcard)
        });
        if pt.f * pt.ncard >= 1.0 {
            check_monotone(report, cfg, "distinct_pages", "pages", pt, &tcard_axis, |p| {
                distinct_pages(pt.f * pt.ncard, p)
            });
            report.checks += 1;
            let dp = distinct_pages(pt.f * pt.ncard, pt.tcard);
            if dp > pt.f * pt.ncard + 1e-9 || dp > pt.tcard + 1e-9 {
                report.push(Violation::new(
                    "cost-monotone",
                    "table2/distinct_pages",
                    format!(
                        "distinct_pages = {dp} exceeds its bounds min(tuples, pages) \
                         at {pt} (seed 0x{:X})",
                        cfg.seed
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sort family: TEMPPAGES and the partial-sort refinements
// ---------------------------------------------------------------------------

fn sort_properties(report: &mut AuditReport, cfg: CostPropsConfig) {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x50F7);
    let mut cases: Vec<(f64, f64, f64)> = Vec::new();
    for &rows in ROWS_GRID {
        for &width in WIDTH_GRID {
            for &runs in RUNS_GRID {
                cases.push((rows, width, runs));
            }
        }
    }
    for _ in 0..cfg.samples {
        cases.push((
            (rng.f64() * 1e6).floor(),
            1.0 + (rng.f64() * 5000.0).floor(),
            1.0 + (rng.f64() * 100.0).floor(),
        ));
    }
    for &(rows, width, runs) in &cases {
        let at = format!("rows={rows} width={width} run_count={runs} (seed 0x{:X})", cfg.seed);
        let tp_full = temp_pages(rows, width);
        let (delta, tp_partial) = partial_sort_delta(rows, width, runs);

        // TEMPPAGES: finite, non-negative, whole pages, monotone in rows.
        report.checks += 3;
        if !tp_full.is_finite() || tp_full < 0.0 {
            report.push(Violation::new(
                "cost-finite",
                "table2/temp_pages",
                format!("TEMPPAGES = {tp_full} at {at}"),
            ));
        }
        if tp_full.fract() != 0.0 {
            report.push(Violation::new(
                "cost-nonneg",
                "table2/temp_pages",
                format!("fractional page count {tp_full} at {at}"),
            ));
        }
        if temp_pages(rows + 1.0, width) + 1e-9 < tp_full {
            report.push(Violation::new(
                "cost-monotone",
                "table2/temp_pages",
                format!("TEMPPAGES decreased when a row was added at {at}"),
            ));
        }

        // Partial sort: finite/non-negative delta; CPU never exceeds the
        // full sort's one-RSI-per-row; no spill for in-memory runs; one
        // run degenerates to exactly the full sort's charge; and spilling
        // per run wastes at most one partially-filled page per run.
        report.checks += 4;
        if !delta.is_finite() || delta.pages < 0.0 || delta.rsi < 0.0 {
            report.push(Violation::new(
                "cost-finite",
                "table2/partial_sort_delta",
                format!("delta = {delta} at {at}"),
            ));
        }
        if delta.rsi > rows + 1e-9 {
            report.push(Violation::new(
                "cost-monotone",
                "table2/partial_sort_delta",
                format!("partial-sort CPU {} exceeds full-sort charge {rows} at {at}", delta.rsi),
            ));
        }
        if rows > 0.0 && rows / runs.clamp(1.0, rows) <= SORT_RUN_MEMORY_ROWS && tp_partial != 0.0 {
            report.push(Violation::new(
                "cost-monotone",
                "table2/partial_sort_delta",
                format!("in-memory runs spilled {tp_partial} temp pages at {at}"),
            ));
        }
        if tp_partial > tp_full + runs.clamp(1.0, rows.max(1.0)) + 1e-9 {
            report.push(Violation::new(
                "cost-monotone",
                "table2/partial_sort_delta",
                format!(
                    "per-run spill {tp_partial} exceeds whole-input TEMPPAGES {tp_full} \
                     + one page per run at {at}"
                ),
            ));
        }
        report.checks += 1;
        let (delta1, tp1) = partial_sort_delta(rows, width, 1.0);
        let expect_tp = if rows <= SORT_RUN_MEMORY_ROWS { 0.0 } else { tp_full };
        if rows > 0.0 && (tp1 != expect_tp || (delta1.rsi - rows).abs() > 1e-9) {
            report.push(Violation::new(
                "cost-monotone",
                "table2/partial_sort_delta",
                format!(
                    "run_count = 1 must equal the full sort: got tp = {tp1} \
                     (want {expect_tp}), cpu = {} (want {rows}) at {at}",
                    delta1.rsi
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Table 1: selectivities on adversarial catalogs
// ---------------------------------------------------------------------------

/// Queries whose factors together exercise every Table 1 formula family
/// against the Fig. 1 catalog: equality (indexed and not), ranges with
/// and without interpolation, BETWEEN, IN-list, OR/AND/NOT composition.
const SEL_QUERIES: &[&str] = &[
    "SELECT NAME FROM EMP WHERE DNO = 17",
    "SELECT NAME FROM EMP WHERE SAL > 9000",
    "SELECT NAME FROM EMP WHERE DNO > 40",
    "SELECT NAME FROM EMP WHERE DNO BETWEEN 10 AND 20",
    "SELECT NAME FROM EMP WHERE DNO IN (1, 2, 3, 4, 5, 6, 7, 8)",
    "SELECT NAME FROM EMP WHERE NOT (DNO = 3 OR JOB = 4) AND SAL > 100",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO",
    "SELECT NAME FROM EMP WHERE JOB <> 5",
];

/// Catalog mutations that must not push any selectivity out of `[0, 1]`
/// or any QCARD out of finite non-negative territory.
fn adversarial_catalogs() -> Vec<(&'static str, sysr_catalog::Catalog)> {
    let mut out = vec![("fig1", corpus::fig1_catalog())];

    let mut zero_icard = corpus::fig1_catalog();
    for id in 0..4u32 {
        zero_icard.set_index_stats(
            id,
            IndexStats {
                icard: 0,
                nindx: 0,
                leaf_pages: 0,
                low_key: None,
                high_key: None,
                valid: true,
            },
        );
    }
    out.push(("fig1/icard0", zero_icard));

    let mut inverted = corpus::fig1_catalog();
    for id in 0..4u32 {
        inverted.set_index_stats(
            id,
            IndexStats {
                icard: 7,
                nindx: 1,
                leaf_pages: 1,
                low_key: Some(sysr_rss::Value::Int(1000)),
                high_key: Some(sysr_rss::Value::Int(-1000)),
                valid: true,
            },
        );
    }
    out.push(("fig1/inverted-keys", inverted));

    let mut huge = corpus::fig1_catalog();
    for rel in 0..3u16 {
        huge.set_relation_stats(
            rel,
            RelStats {
                ncard: u64::MAX,
                tcard: u64::MAX / 7,
                pfrac: f64::MIN_POSITIVE,
                avg_width: f64::NAN,
                valid: true,
            },
        );
    }
    out.push(("fig1/huge-ncard", huge));

    let mut empty = corpus::fig1_catalog();
    for rel in 0..3u16 {
        empty.set_relation_stats(
            rel,
            RelStats { ncard: 0, tcard: 0, pfrac: 0.0, avg_width: 0.0, valid: true },
        );
    }
    out.push(("fig1/empty", empty));
    out
}

fn table1_selectivities(report: &mut AuditReport) {
    for (cat_label, cat) in adversarial_catalogs() {
        for sql in SEL_QUERIES {
            let at = format!("table1/{cat_label}: {sql}");
            let stmt = match corpus::parse_select(sql) {
                Ok(s) => s,
                Err(e) => {
                    report.push(Violation::new("sel-range", at, format!("parse failed: {e}")));
                    continue;
                }
            };
            let bound = match bind_select(&cat, &stmt) {
                Ok(b) => b,
                Err(e) => {
                    report.push(Violation::new("sel-range", at, format!("bind failed: {e:?}")));
                    continue;
                }
            };
            let sel = Selectivity::new(&cat, &bound);
            for factor in &bound.factors {
                report.checks += 1;
                let f = sel.factor(factor);
                if !(0.0..=1.0).contains(&f) || !f.is_finite() {
                    report.push(Violation::new(
                        "sel-range",
                        at.clone(),
                        format!("selectivity F = {f} outside [0, 1]"),
                    ));
                }
            }
            report.checks += 1;
            let qcard = estimate_qcard(&cat, &bound);
            if !qcard.is_finite() || qcard < 0.0 {
                report.push(Violation::new(
                    "sel-range",
                    at,
                    format!("QCARD = {qcard} is not finite and non-negative"),
                ));
            }
        }
    }

    // 1/ICARD is non-increasing in ICARD: the same equality predicate on
    // a higher-cardinality index must not become *more* selective.
    let mut prev: Option<(u64, f64)> = None;
    for icard in [1u64, 10, 1_000, 1_000_000, u64::MAX] {
        let mut cat = corpus::fig1_catalog();
        cat.set_index_stats(
            0,
            IndexStats {
                icard,
                nindx: 30,
                leaf_pages: 29,
                low_key: Some(sysr_rss::Value::Int(0)),
                high_key: Some(sysr_rss::Value::Int(1_000_000)),
                valid: true,
            },
        );
        let f = eq_sel_on_emp_dno(&cat, report);
        report.checks += 1;
        if let Some((picard, pf)) = prev {
            if f > pf + 1e-12 {
                report.push(Violation::new(
                    "sel-range",
                    "table1/eq-icard",
                    format!(
                        "F(DNO = c) rose from {pf} (ICARD {picard}) to {f} (ICARD {icard}); \
                         1/ICARD must be non-increasing"
                    ),
                ));
            }
        }
        prev = Some((icard, f));
    }

    // Range interpolation: F(DNO > v) is non-increasing in v across the
    // key range (and clamped beyond it).
    let mut prev_f: Option<(i64, f64)> = None;
    for v in [-50i64, 0, 250, 500, 999, 2000] {
        let cat = corpus::fig1_catalog();
        let sql = format!("SELECT NAME FROM EMP WHERE DNO > {v}");
        let Some(f) = factor_f(&cat, &sql, report) else { continue };
        report.checks += 1;
        if let Some((pv, pf)) = prev_f {
            if f > pf + 1e-12 {
                report.push(Violation::new(
                    "sel-range",
                    "table1/range-interpolation",
                    format!("F(DNO > {v}) = {f} exceeds F(DNO > {pv}) = {pf}"),
                ));
            }
        }
        prev_f = Some((v, f));
    }
}

/// Selectivity of the first factor of `sql`, or a `sel-range` violation.
fn factor_f(cat: &sysr_catalog::Catalog, sql: &str, report: &mut AuditReport) -> Option<f64> {
    let stmt = corpus::parse_select(sql).ok()?;
    let bound = bind_select(cat, &stmt).ok()?;
    let sel = Selectivity::new(cat, &bound);
    match bound.factors.first() {
        Some(f) => Some(sel.factor(f)),
        None => {
            report.push(Violation::new(
                "sel-range",
                format!("table1: {sql}"),
                "query bound with no factors; selectivity probe is vacuous",
            ));
            None
        }
    }
}

fn eq_sel_on_emp_dno(cat: &sysr_catalog::Catalog, report: &mut AuditReport) -> f64 {
    factor_f(cat, "SELECT NAME FROM EMP WHERE DNO = 17", report).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_is_green() {
        let out = audit_cost_props(None);
        assert!(out.report.ok(), "{}", out.report.render());
        assert!(out.report.checks > 1_000, "checked only {}", out.report.checks);
    }

    #[test]
    fn every_rule_is_registered() {
        // Violations minted here must print under ids the DESIGN §15
        // table can account for.
        for rule in RULES {
            assert!(
                rule.starts_with("cost-") || rule.starts_with("sel-"),
                "unexpected rule family: {rule}"
            );
        }
    }

    #[test]
    fn unknown_mutant_is_a_violation() {
        let out = audit_cost_props(Some("no-such-fault"));
        assert_eq!(out.report.violations.len(), 1);
        assert_eq!(out.report.violations[0].rule, "cost-mutant-uncaught");
    }
}
