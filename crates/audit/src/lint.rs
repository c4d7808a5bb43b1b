//! The in-tree source lint pass, token-level edition.
//!
//! A zero-dependency linter for the rules this project cares about but
//! `clippy` does not enforce in the shape we need (scoped to specific
//! crates/files, suppressible in-tree, concurrency-aware). Rules run over
//! the token stream and block model from [`crate::lexer`], so a pattern
//! inside a string literal or a comment can never fire a rule — the old
//! line-regex pass was one clever substring away from a false positive.
//!
//! ## Rule catalogue
//!
//! * **`no-unwrap`** (panic-freedom) — no `.unwrap()`, `.expect("…")`,
//!   `panic!`, `unreachable!`, `todo!` or `unimplemented!` in library
//!   source outside `#[cfg(test)]`. The optimizer and executor must
//!   surface errors as values; the paper's OPTIMIZER never aborts the
//!   RDS. Applies to every `crates/*/src` file minus per-(file, rule)
//!   exemptions in the `EXEMPT` table.
//! * **`no-index`** (panic-freedom) — bare slice/array indexing
//!   `expr[idx]` in `crates/{core,rss,executor,catalog,sql}`. Indexing
//!   with literals/ALL_CAPS constants, loop-bound variables (the index
//!   identifiers are all bound by an enclosing `for` in the same fn),
//!   `%`-reduced or `.min(`/`.clamp(`-bounded expressions is recognised
//!   as bounded and allowed; anything else needs an annotation or a
//!   per-file exemption with a justification.
//! * **`unsafe-audit`** — every `unsafe` keyword outside tests must have
//!   a `// SAFETY:` comment on the same line or within the two lines
//!   above it stating why the contract holds.
//! * **`latch-discipline`** — in the latch-bearing storage files, no
//!   lock/borrow guard (`.lock()`, `.borrow()`, `.borrow_mut()` bound
//!   via `let`) may be live across a `PageBackend` I/O call
//!   (`read_page`/`write_page`/`sync`) on a *different* receiver, or
//!   across `.join(`/`.spawn(`. Guard liveness is tracked from the
//!   binding to the enclosing block close or an explicit `drop(guard)`.
//!   A producer chain ending in anything but `unwrap`/`expect`/
//!   `unwrap_or_else`/`?` (e.g. `.lock()….clone()`) is a temporary, not
//!   a guard. This is the static face of the System R RSS latch rule:
//!   page latches are short-duration and never held across I/O waits.
//! * **`latch-ordering`** — in the same files, latch acquisitions must
//!   follow the documented total order *shard (rank 0) → write-back
//!   gate (rank 1) → backend (rank 2)* (DESIGN.md §11). Receivers are
//!   classified by identifier (`shard`/`slot`/`stripe` → 0, `gate` → 1,
//!   `backend` → 2); taking a latch whose rank is not strictly greater
//!   than every live ranked guard — the backend-then-shard inversion, a
//!   second shard while one is held, a double backend lock — is a
//!   deadlock ingredient and is flagged. Unranked receivers are outside
//!   the order and ignored. Both latch rules scope to the files listed
//!   in [`sysr_rss::sync::LATCHED_FILES`] — one table shared with the
//!   `sync` facade and the `--model` schedule explorer.
//! * **`latch-scope`** — a product-crate file that acquires a latch
//!   (`.lock(`) without being listed in that shared table is flagged:
//!   an unlisted latch-bearing file would silently escape the two rules
//!   above and the model checker's coverage.
//! * **`cast-soundness`** — `as` casts in the cost-critical files
//!   (`cost.rs`, `selectivity.rs`, `enumerate.rs`) are classified by
//!   inferred source type and target width. Provably value-preserving
//!   widenings (same-signedness int widening, unsigned→wider-signed,
//!   int→float within the mantissa, `f32`→`f64`, literal sources) pass;
//!   narrowing, float→int, and unknown-source casts must be annotated
//!   after a range check. Replaces the blunt `no-as-cast` rule.
//! * **`div-guard`** — every `/` in `cost.rs` / `selectivity.rs` must
//!   have a visible guard (zero test, `.max(..)` clamp, literal or
//!   ALL_CAPS denominator) within the preceding few lines; unguarded
//!   division is how NaN enters the cost model.
//! * **`stale-allow`** — every `audit:allow(<rule>)` marker in the tree
//!   must name a rule this linter still ships; renamed or deleted rules
//!   make the suppression dead weight and hide the next real finding.
//!
//! Suppression: a `// audit:allow(<rule>)` comment on the offending line
//! or within the two lines directly above it (statements wrap). Markers
//! are read from comment tokens only — a marker spelled inside a string
//! literal does not suppress anything.

use crate::lexer::{self, FileModel, TokKind, Token, NUMERIC_TYPES};
use crate::{AuditReport, Violation};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// How many preceding lines a `div-guard` guard may appear on.
const GUARD_WINDOW: usize = 6;

/// Every rule id the lint pass can emit. `stale-allow` validates
/// suppression markers against this list.
pub const RULES: &[&str] = &[
    "no-unwrap",
    "no-index",
    "unsafe-audit",
    "latch-discipline",
    "latch-ordering",
    "latch-scope",
    "cast-soundness",
    "div-guard",
    "stale-allow",
    "lint-io",
];

/// One-paragraph rationale per rule family, printed by
/// `sysr-audit --lint --explain <rule>`. Every id in [`RULES`] has an
/// entry (enforced by a test), so `--explain` can never 404 on a rule
/// the linter actually emits.
pub const RULE_DOCS: &[(&str, &str)] = &[
    (
        "no-unwrap",
        "The serving path must not abort: a panic inside a query tears down the \
         whole session (and under concurrent serving, poisons shared state). \
         `unwrap()`/`expect()` outside tests therefore fail the lint; fallible \
         code returns `Result`/`Option` and the caller decides. Experiment \
         binaries are exempt per-file because a failed setup invalidates the \
         measurement run anyway.",
    ),
    (
        "no-index",
        "`v[i]` panics on a bad index, and most index arithmetic in a database \
         kernel mixes ids from different spaces (slots, pages, subset ranks). \
         Product crates use `.get(..)` with an error path; files whose indices \
         are provably self-issued (B-tree node search, slotted-page layout) \
         carry a written per-file exemption instead of inline markers.",
    ),
    (
        "unsafe-audit",
        "Every `unsafe` block must sit in a file that opts in and carry a \
         `// SAFETY:` comment directly above it stating the invariant that \
         makes it sound. Unsafe code without a written obligation is \
         unreviewable; the lint makes the obligation part of the diff.",
    ),
    (
        "latch-discipline",
        "Latch guards must be dropped before crossing an await/IO boundary or \
         calling back into another latched component; holding a latch across \
         such a call is how the historical flush/write-back deadlock entered. \
         Files that acquire latches are enumerated by the code under audit \
         (`sysr_rss::sync::LATCHED_FILES`), not by this linter.",
    ),
    (
        "latch-ordering",
        "All latches are ranked (shard < write-back gate < page backend); \
         acquisitions in one expression must follow strictly ascending rank, \
         which makes lock-order cycles — and therefore deadlocks — \
         unconstructible. The model checker (`--model`) explores schedules \
         against the same rank table.",
    ),
    (
        "latch-scope",
        "A file outside `LATCHED_FILES` must not acquire latches at all: the \
         latch rules only audit files on that list, so an acquisition \
         elsewhere would silently escape both lint and model checking. This \
         rule closes that gap by failing the out-of-scope acquisition itself.",
    ),
    (
        "cast-soundness",
        "Numeric casts silently truncate, wrap, or round: `u64 as f64` loses \
         integers above 2^53, exactly where cardinality estimates (NCARD of a \
         big relation, products of them) live. In the numeric planning core \
         every `as` cast must be *provably* value-preserving: a widening by \
         type, or an operand whose interval — computed flow-sensitively from \
         literals, `.len()`, `.min()`/`.clamp()` bounds, const arithmetic, and \
         `if`/`match` guards — fits the target width (±2^53 for `f64`). \
         Everything else goes through the checked lifts in `sysr_core::num` \
         (`card_f64`, `len_f64`, `pages_ceil`, `dense_id`), which saturate at \
         the representable boundary instead of corrupting the cost model.",
    ),
    (
        "div-guard",
        "An unguarded `/` is how NaN and ±inf enter Table 2 cost arithmetic, \
         and NaN comparisons silently break the DP's min(). Every division in \
         the cost/selectivity files must show its guard nearby: a zero test, a \
         `.max(..)` clamp, or a literal/ALL_CAPS-const denominator that is \
         structurally nonzero.",
    ),
    (
        "stale-allow",
        "`// audit:allow(<rule>)` markers are suppressions with a blast \
         radius: one naming a rule this linter no longer ships is dead weight \
         that reads like protection and provides none. Markers are validated \
         against the live rule list so renames and removals surface here \
         instead of hiding the next real finding.",
    ),
    (
        "lint-io",
        "The linter walks `crates/*/src` itself; a file it cannot read is a \
         finding, not a skip — otherwise a permissions mistake could silently \
         shrink audit coverage to nothing while still reporting green.",
    ),
];

/// Per-(file, rule) exemptions: `(repo-relative path, rules, why)`.
///
/// Deliberately per-file *and* per-rule: the measurement harness's
/// experiment binaries may unwrap (a failed setup invalidates the run
/// anyway) but still get the unsafe/latch/stale checks; the B-tree's
/// node-local index arithmetic is bounds-established-by-search and would
/// drown the `no-index` signal in annotations. New files are linted in
/// full by default until someone consciously adds a row here with a
/// justification.
///
/// Inline `audit:allow(no-unwrap)` markers are swept periodically: the
/// binder's scope-stack accessor and the SQL lexer's char-boundary
/// advance were converted to error returns (their markers deleted); the
/// corpus `must()` helper keeps its marker with a written argument for
/// why aborting is correct there. The sweep left no marker without a
/// current justification.
///
/// The inline `audit:allow(no-index)` markers were swept with the
/// batched-RSI change: every one outside this crate's own fixtures was
/// converted to a checked form — `Tuple::project` and `SplitMix64::pick`
/// now return `Option`, the key interner's lookups answer the
/// conservative `false`/empty key on a foreign id, and the catalog,
/// binder, lexer, page store, and tuple cursor sites use `.get(..)`
/// with their existing error paths. Only the per-file exemptions below
/// remain.
const EXEMPT: &[(&str, &[&str], &str)] = &[
    (
        "crates/bench/src/bin/exp_buffer_sweep.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/exp_interesting_orders.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/exp_optimality.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/exp_scaling.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/exp_skew.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/exp_w_sweep.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/fig_search_tree.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/table1.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/bench/src/bin/table2.rs",
        &["no-unwrap"],
        "measurement harness: failed setup invalidates the run",
    ),
    (
        "crates/rss/src/btree.rs",
        &["no-index"],
        "B-tree node arithmetic: indices come from binary search within \
         node bounds established one line earlier",
    ),
    (
        "crates/rss/src/segment.rs",
        &["no-index"],
        "slotted-page layout: offsets are derived from the page header \
         and validated by the page checksum",
    ),
    (
        "crates/sql/src/parser.rs",
        &["no-index"],
        "recursive-descent cursor: token positions are bounded by the \
         EOF sentinel the lexer always appends",
    ),
    (
        "crates/core/src/enumerate.rs",
        &["no-index"],
        "join-order DP: solution tables, item lists, and order-class \
         slots are indexed by subset ranks and slot ids minted by the \
         same enumeration pass",
    ),
    (
        "crates/core/src/order.rs",
        &["no-index"],
        "order-class union-find: parent entries are ids the structure \
         itself issued, and required-prefix slices are length-guarded",
    ),
    (
        "crates/core/src/access.rs",
        &["no-index"],
        "access-path generation: table and factor ids come from the \
         bound query the candidate arrays were built from",
    ),
    (
        "crates/core/src/arena.rs",
        &["no-index"],
        "solution arena: handles are indices the arena issued; commit \
         remaps within the bounds it just reserved",
    ),
    (
        "crates/executor/src/block.rs",
        &["no-index"],
        "block runtime: subquery ids and outer-row depths index \
         parallel arrays sized from the same analyzed plan",
    ),
    (
        "crates/executor/src/exec.rs",
        &["no-index"],
        "plan interpreter: table/factor ids index arrays sized from \
         the same plan; group slices come from an in-bounds scan",
    ),
    (
        "crates/rss/src/page.rs",
        &["no-index"],
        "slotted-page byte layout: offsets come from the page's own \
         slot directory within a fixed PAGE_SIZE buffer",
    ),
    (
        "crates/rss/src/storage.rs",
        &["no-index"],
        "segment bookkeeping: page and slot positions are issued by \
         this allocator and revalidated by verify_page on read",
    ),
];

/// Files (by name) subject to the `cast-soundness` rule: the whole
/// numeric planning core. All names are unique across `crates/*/src`, so
/// matching by file name cannot pull in an unrelated file.
const CAST_SCOPED_FILES: &[&str] = &[
    "cost.rs",
    "selectivity.rs",
    "enumerate.rs",
    "arena.rs",
    "intern.rs",
    "access.rs",
    "join.rs",
    "num.rs",
    "analyze.rs",
    "nested.rs",
];

/// Files (by name) subject to the `div-guard` rule.
const DIV_SCOPED_FILES: &[&str] = &["cost.rs", "selectivity.rs"];

/// Crates whose sources are subject to the `no-index` rule.
const INDEX_SCOPED_CRATES: &[&str] = &["core", "rss", "executor", "catalog", "sql"];

/// Files subject to the `latch-discipline` and `latch-ordering` rules.
/// The table is *owned by the code under audit*
/// ([`sysr_rss::sync::LATCHED_FILES`]) so the facade, the lint, and the
/// model checker share one source of truth; a latch-acquiring file in a
/// product crate that is missing from it fails `latch-scope` below
/// rather than silently escaping the latch rules.
fn latch_scoped(label: &str) -> bool {
    sysr_rss::sync::LATCHED_FILES.contains(&label)
}

/// The latch rank order (DESIGN.md §11): receivers classified by these
/// identifier fragments must be acquired in strictly ascending rank.
/// Shard latches are rank 0 (at most one at a time — hence *strictly*);
/// the buffer pool's dirty write-back gate is rank 1; the page-backend
/// latch is rank 2, the maximum.
const LATCH_RANKS: &[(&str, u8)] =
    &[("shard", 0), ("slot", 0), ("stripe", 0), ("gate", 1), ("backend", 2)];

/// Guard producers: a `let g = x.<producer>()…;` binding makes `g` a
/// tracked latch guard.
const GUARD_PRODUCERS: &[&str] = &["lock", "borrow", "borrow_mut"];

/// Method idents allowed after a guard producer without demoting the
/// binding to a temporary (they forward the guard itself).
const GUARD_CHAIN_OK: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Calls a live guard must not span: backend I/O (receiver-checked) and
/// thread joins/spawns (any guard).
const IO_TRIGGERS: &[&str] = &["read_page", "write_page", "sync"];
const THREAD_TRIGGERS: &[&str] = &["join", "spawn"];

/// Lint every `crates/*/src/**/*.rs` under `root` (the repo root).
pub fn lint_workspace(root: &Path) -> AuditReport {
    let mut report = AuditReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect(),
        Err(e) => {
            report.push(Violation::new(
                "lint-io",
                crates_dir.display().to_string(),
                format!("cannot read crates directory: {e}"),
            ));
            return report;
        }
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            lint_tree(&src, root, &mut report);
        }
    }
    report
}

fn lint_tree(dir: &Path, root: &Path, report: &mut AuditReport) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            lint_tree(&path, root, report);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let label = path_label(&path, root);
            match fs::read_to_string(&path) {
                Ok(text) => report.merge(lint_source(&label, &text)),
                Err(e) => report.push(Violation::new(
                    "lint-io",
                    path.display().to_string(),
                    format!("cannot read: {e}"),
                )),
            }
        }
    }
}

fn path_label(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path).display().to_string();
    rel.replace('\\', "/")
}

/// Is `rule` exempt for the file at `label`?
fn exempt(label: &str, rule: &str) -> bool {
    EXEMPT.iter().any(|(file, rules, _)| *file == label && rules.contains(&rule))
}

/// Per-file lint context shared by the rule families.
struct Ctx<'a> {
    label: &'a str,
    model: &'a FileModel,
    /// line (1-based) → rules allowed by a marker on that line.
    allows: HashMap<u32, Vec<String>>,
}

impl Ctx<'_> {
    /// Is `rule` suppressed at `line`? A marker covers its own line and
    /// the two lines below it (rustfmt often splits the annotated
    /// statement across lines, and the marker usually sits above).
    fn allowed(&self, rule: &str, line: u32) -> bool {
        (line.saturating_sub(2)..=line)
            .filter_map(|l| self.allows.get(&l))
            .any(|rules| rules.iter().any(|r| r == rule))
    }

    fn at(&self, line: u32) -> String {
        format!("{}:{line}", self.label)
    }
}

/// Lint one file's source text. `label` is the repo-relative path used in
/// violation locations (its file name and crate select the scoped rules).
pub fn lint_source(label: &str, text: &str) -> AuditReport {
    let mut report = AuditReport::default();
    report.checks += text.lines().count() as u64;

    let model = lexer::scan(lexer::lex(text));
    let ctx = Ctx { label, model: &model, allows: allow_markers(&model.tokens) };

    stale_allow_rule(&ctx, &mut report);
    if !exempt(label, "no-unwrap") {
        no_unwrap_rule(&ctx, &mut report);
    }
    if index_scoped(label) && !exempt(label, "no-index") {
        no_index_rule(&ctx, &mut report);
    }
    if !exempt(label, "unsafe-audit") {
        unsafe_audit_rule(&ctx, &mut report);
    }
    let file_name = label.rsplit('/').next().unwrap_or(label);
    if latch_scoped(label) && !exempt(label, "latch-discipline") {
        latch_discipline_rule(&ctx, &mut report);
    }
    if latch_scoped(label) && !exempt(label, "latch-ordering") {
        latch_ordering_rule(&ctx, &mut report);
    }
    if index_scoped(label) && !latch_scoped(label) && !exempt(label, "latch-scope") {
        latch_scope_rule(&ctx, &mut report);
    }
    if CAST_SCOPED_FILES.contains(&file_name) && !exempt(label, "cast-soundness") {
        cast_soundness_rule(&ctx, &mut report);
    }
    if DIV_SCOPED_FILES.contains(&file_name) && !exempt(label, "div-guard") {
        div_guard_rule(&ctx, text, &mut report);
    }
    report
}

fn index_scoped(label: &str) -> bool {
    INDEX_SCOPED_CRATES.iter().any(|c| label.starts_with(&format!("crates/{c}/")))
}

// ---------------------------------------------------------------------------
// Suppression markers
// ---------------------------------------------------------------------------

/// Collect comma-separated `audit:allow` suppression markers from
/// comment tokens only.
/// Only rule-shaped names (`[a-z][a-z0-9-]*`) count as markers at all, so
/// doc prose like `audit:allow(<rule>)` is neither a suppression nor a
/// stale-allow finding.
fn allow_markers(tokens: &[Token]) -> HashMap<u32, Vec<String>> {
    let mut out: HashMap<u32, Vec<String>> = HashMap::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        for (off, names) in markers_in(&t.text) {
            // Multi-line block comments: attribute by offset line.
            let line = t.line + t.text[..off].matches('\n').count() as u32;
            out.entry(line).or_default().extend(names);
        }
    }
    out
}

/// `(byte offset, rule names)` for each `audit:allow(…)` marker (one or
/// more comma-separated rule names) in one comment's text.
fn markers_in(comment: &str) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    let mut base = 0usize;
    let mut rest = comment;
    while let Some(pos) = rest.find("audit:allow(") {
        let start = base + pos;
        rest = &rest[pos + "audit:allow(".len()..];
        base = start + "audit:allow(".len();
        if let Some(end) = rest.find(')') {
            let names: Vec<String> = rest[..end]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| rule_shaped(r))
                .collect();
            if !names.is_empty() {
                out.push((start, names));
            }
            rest = &rest[end + 1..];
            base += end + 1;
        } else {
            break;
        }
    }
    out
}

fn rule_shaped(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// `stale-allow`: every marker must name a rule this linter ships.
fn stale_allow_rule(ctx: &Ctx, report: &mut AuditReport) {
    let mut lines: Vec<(&u32, &Vec<String>)> = ctx.allows.iter().collect();
    lines.sort();
    for (line, rules) in lines {
        for rule in rules {
            if !RULES.contains(&rule.as_str()) {
                report.push(Violation::new(
                    "stale-allow",
                    ctx.at(*line),
                    format!(
                        "suppression names unknown rule `{rule}`; the rule was renamed or \
                         removed — update or delete the marker"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// no-unwrap (panic-freedom: calls)
// ---------------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn no_unwrap_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.model.in_test(i) {
            continue;
        }
        let prev_dot = lexer::prev_code(toks, i).is_some_and(|p| toks[p].text == ".");
        let next_is = |s: &str| lexer::next_code(toks, i + 1).is_some_and(|n| toks[n].text == s);
        let offending = match t.text.as_str() {
            "unwrap" => prev_dot && next_is("("),
            // `.expect("…")` only: the SQL parser's `expect(&TokenKind)`
            // is a grammar check, not a panic site.
            "expect" => {
                prev_dot
                    && next_is("(")
                    && lexer::next_code(toks, i + 1)
                        .and_then(|n| lexer::next_code(toks, n + 1))
                        .is_some_and(|a| matches!(toks[a].kind, TokKind::Str | TokKind::RawStr))
            }
            m if PANIC_MACROS.contains(&m) => !prev_dot && next_is("!"),
            _ => false,
        };
        if offending && !ctx.allowed("no-unwrap", t.line) {
            report.push(Violation::new(
                "no-unwrap",
                ctx.at(t.line),
                format!(
                    "`{}` in library code; return an error or annotate \
                     `// audit:allow(no-unwrap)` with a safety argument",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-index (panic-freedom: slice indexing)
// ---------------------------------------------------------------------------

fn no_index_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Open && t.text == "[") || ctx.model.in_test(i) {
            continue;
        }
        // Expression-position `[`: directly after an identifier or a
        // closing delimiter (`v[…]`, `f()[…]`, `m[a][b]`, `x?[…]`).
        let Some(p) = lexer::prev_code(toks, i) else { continue };
        let is_index = match toks[p].kind {
            TokKind::Ident => !is_keyword(&toks[p].text),
            TokKind::Close => toks[p].text == ")" || toks[p].text == "]",
            TokKind::Punct => toks[p].text == "?",
            _ => false,
        };
        if !is_index {
            continue;
        }
        let close = lexer::matching_close(toks, i);
        if index_is_bounded(ctx, i, close) {
            continue;
        }
        if ctx.allowed("no-index", t.line) {
            continue;
        }
        report.push(Violation::new(
            "no-index",
            ctx.at(t.line),
            "bare slice indexing can panic; use `.get(..)`, a bounded idiom \
             (loop-bound/`%`/`.min(`), or annotate `// audit:allow(no-index)` \
             with the bounds argument",
        ));
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "mut" | "ref" | "in" | "if" | "else" | "match" | "return" | "break" | "continue"
    )
}

/// Does the index expression in `(open, close)` stay in bounds by one of
/// the recognised idioms?
fn index_is_bounded(ctx: &Ctx, open: usize, close: usize) -> bool {
    let toks = &ctx.model.tokens;
    let content = &toks[open + 1..close];
    // `v[i % n]` and `v[i.min(hi)]` / `.clamp(` are bounded by construction.
    if content.iter().any(|t| {
        (t.kind == TokKind::Punct && t.text == "%")
            || (t.kind == TokKind::Ident && (t.text == "min" || t.text == "clamp"))
    }) {
        return true;
    }
    // Otherwise every lowercase identifier must be loop-bound here;
    // literals, ALL_CAPS constants and ranges are inherently fine.
    let scope = ctx.model.fn_of(open);
    content
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .filter(|t| t.text.chars().any(|c| c.is_ascii_lowercase()))
        .all(|t| {
            scope.is_some_and(|f| {
                f.loop_bindings
                    .iter()
                    .any(|(name, o, c)| name == &t.text && *o <= open && open <= *c)
            })
        })
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

fn unsafe_audit_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for &i in &ctx.model.unsafe_sites {
        if ctx.model.in_test(i) {
            continue;
        }
        let line = toks[i].line;
        let documented = toks.iter().any(|t| {
            t.is_comment() && t.text.contains("SAFETY:") && t.line <= line && t.line + 2 >= line
        });
        if documented || ctx.allowed("unsafe-audit", line) {
            continue;
        }
        report.push(Violation::new(
            "unsafe-audit",
            ctx.at(line),
            "`unsafe` without a `// SAFETY:` comment on the same line or \
             the two lines above; state why the contract holds",
        ));
    }
}

// ---------------------------------------------------------------------------
// latch-discipline
// ---------------------------------------------------------------------------

/// One tracked guard binding: name and the token range it is live over.
struct Guard {
    name: String,
    /// Live after its binding statement's `;`.
    from: usize,
    /// Dead at the enclosing block's `}` or an explicit `drop(name)`.
    to: usize,
    line: u32,
    /// Position in the latch order ([`LATCH_RANKS`]) classified from the
    /// producer call's receiver; `None` when the receiver is unranked.
    rank: Option<u8>,
}

fn latch_discipline_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for f in &ctx.model.fns {
        if ctx.model.in_test(f.body.0) {
            continue;
        }
        let guards = collect_guards(toks, f.body);
        if guards.is_empty() {
            continue;
        }
        for i in f.body.0..=f.body.1.min(toks.len() - 1) {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let prev_dot = lexer::prev_code(toks, i).is_some_and(|p| toks[p].text == ".");
            let next_paren = lexer::next_code(toks, i + 1).is_some_and(|n| toks[n].text == "(");
            if !prev_dot || !next_paren {
                continue;
            }
            let live: Vec<&Guard> = guards.iter().filter(|g| g.from < i && i < g.to).collect();
            if live.is_empty() {
                continue;
            }
            if IO_TRIGGERS.contains(&t.text.as_str()) {
                // The receiver identifier: `recv.read_page(` — I/O *through*
                // the guard is the point of holding it; I/O past some other
                // live guard is the hazard.
                let receiver = lexer::prev_code(toks, i)
                    .and_then(|dot| lexer::prev_code(toks, dot))
                    .map(|r| toks[r].text.clone())
                    .unwrap_or_default();
                for g in &live {
                    if g.name != receiver && !ctx.allowed("latch-discipline", t.line) {
                        report.push(Violation::new(
                            "latch-discipline",
                            ctx.at(t.line),
                            format!(
                                "`{}` guard `{}` (bound line {}) held across `{}` on `{}`; \
                                 drop the guard or borrow per call — latches never span I/O",
                                f.name, g.name, g.line, t.text, receiver
                            ),
                        ));
                    }
                }
            } else if THREAD_TRIGGERS.contains(&t.text.as_str())
                && !ctx.allowed("latch-discipline", t.line)
            {
                for g in &live {
                    report.push(Violation::new(
                        "latch-discipline",
                        ctx.at(t.line),
                        format!(
                            "`{}` guard `{}` (bound line {}) held across `.{}(`; a thread \
                             blocked on the same lock deadlocks the join",
                            f.name, g.name, g.line, t.text
                        ),
                    ));
                }
            }
        }
    }
}

/// The [`LATCH_RANKS`] rank of the receiver of the producer call at
/// `producer`: `recv.lock(` classifies `recv`; `recv(args).lock(`
/// classifies the callee `recv` (the `shard_slot(key)?.lock()` shape).
fn receiver_rank(toks: &[Token], producer: usize) -> Option<u8> {
    let dot = lexer::prev_code(toks, producer)?;
    if toks[dot].text != "." {
        return None;
    }
    let mut r = lexer::prev_code(toks, dot)?;
    if toks[r].kind == TokKind::Punct && toks[r].text == "?" {
        r = lexer::prev_code(toks, r)?;
    }
    let name = match toks[r].kind {
        TokKind::Ident => &toks[r].text,
        TokKind::Close if toks[r].text == ")" => {
            let open = matching_open(toks, r)?;
            let callee = lexer::prev_code(toks, open)?;
            if toks[callee].kind != TokKind::Ident {
                return None;
            }
            &toks[callee].text
        }
        _ => return None,
    };
    let lowered = name.to_ascii_lowercase();
    LATCH_RANKS.iter().find(|(frag, _)| lowered.contains(frag)).map(|&(_, rank)| rank)
}

/// `latch-ordering`: every latch acquisition must carry a rank strictly
/// greater than every ranked guard still live — shard (0) before
/// gate (1) before backend (2), never two of the same rank. Catches the
/// backend-then-shard inversion and double acquisitions within one
/// rank; unranked receivers are outside the order and ignored.
fn latch_ordering_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for f in &ctx.model.fns {
        if ctx.model.in_test(f.body.0) {
            continue;
        }
        let guards = collect_guards(toks, f.body);
        for i in f.body.0..=f.body.1.min(toks.len() - 1) {
            let t = &toks[i];
            if t.kind != TokKind::Ident || !GUARD_PRODUCERS.contains(&t.text.as_str()) {
                continue;
            }
            let prev_dot = lexer::prev_code(toks, i).is_some_and(|p| toks[p].text == ".");
            let next_paren = lexer::next_code(toks, i + 1).is_some_and(|n| toks[n].text == "(");
            if !prev_dot || !next_paren {
                continue;
            }
            let Some(rank) = receiver_rank(toks, i) else { continue };
            for g in guards.iter().filter(|g| g.from < i && i < g.to) {
                let Some(grank) = g.rank else { continue };
                if rank <= grank && !ctx.allowed("latch-ordering", t.line) {
                    report.push(Violation::new(
                        "latch-ordering",
                        ctx.at(t.line),
                        format!(
                            "`{}` acquires a rank-{rank} latch while rank-{grank} guard `{}` \
                             (bound line {}) is live; the latch order is shard(0) → gate(1) → \
                             backend(2), strictly ascending — release `{}` first",
                            f.name, g.name, g.line, g.name
                        ),
                    ));
                }
            }
        }
    }
}

/// `latch-scope`: a product-crate file that acquires a latch
/// (token-level `.lock(` outside tests) but is not listed in
/// [`sysr_rss::sync::LATCHED_FILES`] would silently escape
/// `latch-discipline` and `latch-ordering` — flag it so the author adds
/// the file to the shared table (pulling it into the latch rules and the
/// model checker's scope) or justifies an exemption.
fn latch_scope_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "lock" || ctx.model.in_test(i) {
            continue;
        }
        let prev_dot = lexer::prev_code(toks, i).is_some_and(|p| toks[p].text == ".");
        let next_paren = lexer::next_code(toks, i + 1).is_some_and(|n| toks[n].text == "(");
        if prev_dot && next_paren && !ctx.allowed("latch-scope", t.line) {
            report.push(Violation::new(
                "latch-scope",
                ctx.at(t.line),
                "latch acquisition in a file missing from sync::LATCHED_FILES; add the file to \
                 the table so latch-discipline/latch-ordering and the model checker cover it"
                    .to_string(),
            ));
            return;
        }
    }
}

/// Find `let [mut] NAME = …<producer>()…;` guard bindings in a fn body.
fn collect_guards(toks: &[Token], body: (usize, usize)) -> Vec<Guard> {
    let mut out = Vec::new();
    let (lo, hi) = body;
    let mut i = lo;
    while i <= hi && i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        let let_idx = i;
        let Some(mut j) = lexer::next_code(toks, i + 1) else { break };
        if toks[j].text == "mut" {
            match lexer::next_code(toks, j + 1) {
                Some(n) => j = n,
                None => break,
            }
        }
        if toks[j].kind != TokKind::Ident {
            i = j;
            continue;
        }
        let name = toks[j].text.clone();
        let eq = lexer::next_code(toks, j + 1);
        if eq.is_none_or(|e| toks[e].text != "=") {
            i = j;
            continue;
        }
        // Statement end: the `;` at the let's depth.
        let depth = toks[let_idx].depth;
        let mut end = j;
        while end <= hi && end < toks.len() {
            if toks[end].kind == TokKind::Punct && toks[end].text == ";" && toks[end].depth == depth
            {
                break;
            }
            end += 1;
        }
        if let Some(producer) = guard_producer(toks, j, end) {
            // Liveness: to the enclosing block's `}` (the first close brace
            // shallower than the binding) or an explicit `drop(name)`.
            let mut to = hi;
            for k in end..=hi.min(toks.len() - 1) {
                let t = &toks[k];
                if t.kind == TokKind::Close && t.text == "}" && t.depth < depth {
                    to = k;
                    break;
                }
                if t.kind == TokKind::Ident
                    && t.text == "drop"
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                    && toks.get(k + 2).is_some_and(|n| n.text == name)
                {
                    to = k;
                    break;
                }
            }
            let rank = receiver_rank(toks, producer);
            out.push(Guard { name, from: end, to, line: toks[let_idx].line, rank });
        }
        i = end + 1;
    }
    out
}

/// Does the initializer in tokens `(name_idx, stmt_end)` produce a guard?
/// The chain must *end* in a producer call, optionally followed only by
/// `unwrap`/`expect`/`unwrap_or_else` or `?` — `.lock()….clone()` copies
/// data out and drops the guard at the statement end. Returns the index
/// of that final producer call's identifier.
fn guard_producer(toks: &[Token], name_idx: usize, stmt_end: usize) -> Option<usize> {
    let mut i = name_idx;
    let mut producer: Option<usize> = None;
    while i < stmt_end {
        if toks[i].kind == TokKind::Ident
            && GUARD_PRODUCERS.contains(&toks[i].text.as_str())
            && lexer::prev_code(toks, i).is_some_and(|p| toks[p].text == ".")
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
        {
            producer = Some(i);
        }
        i += 1;
    }
    let close = lexer::matching_close(toks, producer? + 1);
    // Inspect the chain after the last producer call.
    let mut k = close + 1;
    while k < stmt_end {
        let t = &toks[k];
        if t.is_comment() || (t.kind == TokKind::Punct && (t.text == "." || t.text == "?")) {
            k += 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && GUARD_CHAIN_OK.contains(&t.text.as_str())
            && toks.get(k + 1).is_some_and(|n| n.text == "(")
        {
            k = lexer::matching_close(toks, k + 1) + 1;
            continue;
        }
        return None; // any other trailing method/expr demotes to temporary
    }
    producer
}

// ---------------------------------------------------------------------------
// cast-soundness
// ---------------------------------------------------------------------------

/// Width/class facts for a primitive numeric type. `usize`/`isize` are
/// treated as 64-bit (every target this project builds on).
pub(crate) fn numeric_facts(ty: &str) -> Option<(u32, bool, bool)> {
    // (bits, signed, float)
    Some(match ty {
        "u8" => (8, false, false),
        "u16" => (16, false, false),
        "u32" => (32, false, false),
        "u64" | "usize" => (64, false, false),
        "u128" => (128, false, false),
        "i8" => (8, true, false),
        "i16" => (16, true, false),
        "i32" => (32, true, false),
        "i64" | "isize" => (64, true, false),
        "i128" => (128, true, false),
        "f32" => (32, true, true),
        "f64" => (64, true, true),
        _ => return None,
    })
}

/// Integer bits a float's mantissa represents exactly.
fn mantissa_bits(ty: &str) -> u32 {
    if ty == "f32" {
        24
    } else {
        53
    }
}

/// Is `src as dst` provably value-preserving?
pub(crate) fn widening_ok(src: &str, dst: &str) -> bool {
    let (Some((sb, ss, sf)), Some((db, ds, df))) = (numeric_facts(src), numeric_facts(dst)) else {
        return false;
    };
    match (sf, df) {
        (false, false) => (ss == ds && db >= sb) || (!ss && ds && db > sb),
        (false, true) => sb <= mantissa_bits(dst),
        (true, true) => db >= sb,
        (true, false) => false,
    }
}

fn cast_soundness_rule(ctx: &Ctx, report: &mut AuditReport) {
    let toks = &ctx.model.tokens;
    let env = crate::intervals::FileEnv::new(ctx.model);
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "as") || ctx.model.in_test(i) {
            continue;
        }
        let Some(n) = lexer::next_code(toks, i + 1) else { continue };
        let dst = crate::intervals::resolve_ty(toks[n].text.as_str());
        if toks[n].kind != TokKind::Ident || !NUMERIC_TYPES.contains(&dst) {
            continue; // `as` in `use … as` or a non-numeric cast
        }
        let src = cast_source(ctx, i).map(|s| crate::intervals::resolve_ty(&s).to_string());
        // Fast paths by source type alone; otherwise ask the interval
        // engine to prove the operand's value range fits `dst`.
        let verdict = match src.as_deref() {
            Some("literal") => Ok(()),
            Some(s) if widening_ok(s, dst) => Ok(()),
            _ => crate::intervals::prove_cast(ctx.model, &env, i, dst).map_err(|why| {
                match src.as_deref() {
                    Some(s) => format!("`{s} as {dst}` can lose value ({why})"),
                    None => why,
                }
            }),
        };
        if let Err(why) = verdict {
            if !ctx.allowed("cast-soundness", t.line) {
                report.push(Violation::new(
                    "cast-soundness",
                    ctx.at(t.line),
                    format!(
                        "{why}; bound the value (`.min()`/`.clamp()`/guard), use a \
                         checked `sysr_core::num` lift, or widen instead"
                    ),
                ));
            }
        }
    }
}

/// Infer the source type of the cast at `as_idx`: suffixed or plain
/// literals, chained casts, `.len()` (usize), or a typed binding in the
/// enclosing fn (`let x: u32`, `fn f(x: u32)`). `None` when unprovable.
fn cast_source(ctx: &Ctx, as_idx: usize) -> Option<String> {
    let toks = &ctx.model.tokens;
    let p = lexer::prev_code(toks, as_idx)?;
    match toks[p].kind {
        TokKind::Int | TokKind::Float => {
            let suffix = NUMERIC_TYPES.iter().find(|ty| toks[p].text.ends_with(*ty));
            Some(suffix.map_or_else(|| "literal".to_string(), |ty| ty.to_string()))
        }
        TokKind::Ident => {
            let name = toks[p].text.as_str();
            // chained cast: `x as u32 as u64`
            if NUMERIC_TYPES.contains(&name)
                && lexer::prev_code(toks, p).is_some_and(|q| toks[q].text == "as")
            {
                return Some(name.to_string());
            }
            let scope = ctx.model.fn_of(as_idx)?;
            scope.typed.iter().find(|(n, _)| n == name).map(|(_, ty)| ty.clone())
        }
        TokKind::Close if toks[p].text == ")" => {
            let open = matching_open(toks, p)?;
            let callee = lexer::prev_code(toks, open)?;
            let dot = lexer::prev_code(toks, callee)?;
            if toks[callee].text == "len" && toks[dot].text == "." {
                Some("usize".to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Backwards scan for the `(` matching the `)` at `close`.
fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let mut nest = 0i64;
    for j in (0..=close).rev() {
        match toks[j].text.as_str() {
            ")" if toks[j].kind == TokKind::Close => nest += 1,
            "(" if toks[j].kind == TokKind::Open => {
                nest -= 1;
                if nest == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// div-guard (ported onto token-reconstructed lines)
// ---------------------------------------------------------------------------

fn div_guard_rule(ctx: &Ctx, text: &str, report: &mut AuditReport) {
    let stripped = stripped_lines(text, &ctx.model.tokens);
    let in_test = test_line_mask(ctx.model, stripped.len());
    for (i, is_test) in in_test.iter().enumerate().take(stripped.len()) {
        if *is_test {
            continue;
        }
        let line = (i + 1) as u32;
        if has_unguarded_division(i, &stripped) && !ctx.allowed("div-guard", line) {
            report.push(Violation::new(
                "div-guard",
                ctx.at(line),
                "f64 division with no visible zero-guard in the preceding lines; \
                 guard the denominator or annotate `// audit:allow(div-guard)`",
            ));
        }
    }
}

/// Rebuild per-line code text from the token stream: comments vanish,
/// literal interiors blank out, everything else sits at its source
/// column — so the line-window div heuristics see exactly the code.
fn stripped_lines(text: &str, tokens: &[Token]) -> Vec<String> {
    let n = text.lines().count();
    let mut out = vec![String::new(); n];
    for t in tokens {
        if t.is_comment() {
            continue;
        }
        let Some(buf) = out.get_mut((t.line as usize).saturating_sub(1)) else { continue };
        let col = t.col as usize;
        while buf.len() < col {
            buf.push(' ');
        }
        match t.kind {
            TokKind::Str | TokKind::RawStr | TokKind::Char => buf.push_str("\"\""),
            _ => buf.push_str(&t.text),
        }
    }
    out
}

/// Lines (0-based) covered by `#[cfg(test)]` items.
fn test_line_mask(model: &FileModel, n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    for &(a, b) in &model.test_ranges {
        let (Some(ta), Some(tb)) = (model.tokens.get(a), model.tokens.get(b)) else { continue };
        for line in ta.line..=tb.line {
            if let Some(m) = mask.get_mut((line as usize).saturating_sub(1)) {
                *m = true;
            }
        }
    }
    mask
}

/// Division on line `i` with no guard in sight. Guards recognised in the
/// line itself or the preceding [`GUARD_WINDOW`] lines: comparison
/// against zero, `.max(`/`.clamp(`/`is_finite`/`is_nan`. Literal and
/// ALL_CAPS-constant denominators are inherently safe.
fn has_unguarded_division(i: usize, stripped: &[String]) -> bool {
    let code = &stripped[i];
    let mut found = false;
    for (pos, _) in code.match_indices('/') {
        // `x /= y` divides too — its denominator sits after the `=`.
        let denom = code[pos + 1..].trim_start().trim_start_matches('=').trim_start();
        if denom.is_empty() {
            continue;
        }
        if denominator_is_safe(denom) {
            continue;
        }
        found = true;
    }
    if !found {
        return false;
    }
    let lo = i.saturating_sub(GUARD_WINDOW);
    !stripped[lo..=i].iter().any(|l| {
        l.contains("== 0")
            || l.contains("!= 0")
            || l.contains("> 0")
            || l.contains(">= 1")
            || l.contains("<= 0")
            || l.contains("< 1")
            || l.contains("<= 1")
            || l.contains(".max(")
            || l.contains(".clamp(")
            || l.contains("is_finite")
            || l.contains("is_nan")
    })
}

/// A denominator that cannot be zero/NaN by construction: a numeric
/// literal (leading digit) or an ALL_CAPS constant.
fn denominator_is_safe(denom: &str) -> bool {
    let tok: String =
        denom.chars().take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.').collect();
    if tok.is_empty() {
        return false;
    }
    if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return true; // literal like 2.0
    }
    let ident: String = tok.chars().take_while(|c| *c != '.').collect();
    !ident.is_empty()
        && ident.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(label: &str, src: &str) -> Vec<String> {
        lint_source(label, src).violations.iter().map(|v| v.rule.to_string()).collect()
    }

    #[test]
    fn unwrap_flagged_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        assert_eq!(lint("crates/core/src/a.rs", src), vec!["no-unwrap"]);
    }

    #[test]
    fn panic_family_flagged() {
        for mac in ["panic!(\"boom\")", "unreachable!()", "todo!()", "unimplemented!()"] {
            let src = format!("fn f() {{\n    {mac}\n}}\n");
            assert_eq!(lint("crates/core/src/a.rs", &src), vec!["no-unwrap"], "{mac}");
        }
    }

    #[test]
    fn unwrap_in_cfg_test_ignored() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_and_previous_line() {
        let same = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // audit:allow(no-unwrap)\n}\n";
        assert!(lint("crates/core/src/a.rs", same).is_empty());
        let prev = "fn f(x: Option<u8>) -> u8 {\n    // audit:allow(no-unwrap) — checked above\n    x.unwrap()\n}\n";
        assert!(lint("crates/core/src/a.rs", prev).is_empty());
    }

    #[test]
    fn unwrap_inside_string_literal_ignored() {
        let src = "fn f() -> &'static str {\n    \"call .unwrap() never\"\n}\n";
        assert!(lint("crates/core/src/a.rs", src).is_empty());
        let raw = "fn f() -> &'static str {\n    r#\"panic!(never) .unwrap()\"#\n}\n";
        assert!(lint("crates/core/src/a.rs", raw).is_empty());
    }

    #[test]
    fn allow_marker_inside_string_does_not_suppress() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    let _s = \"audit:allow(no-unwrap)\";\n    x.unwrap()\n}\n";
        assert_eq!(lint("crates/core/src/a.rs", src), vec!["no-unwrap"]);
    }

    #[test]
    fn method_named_expect_without_string_ignored() {
        let src = "fn f(p: &mut P) {\n    p.expect(&TokenKind::LParen);\n}\n";
        assert!(lint("crates/sql/src/a.rs", src).is_empty());
    }

    #[test]
    fn index_flagged_and_bounded_idioms_pass() {
        let bad = "fn f(v: &[u8], i: usize) -> u8 {\n    v[i]\n}\n";
        assert_eq!(lint("crates/core/src/a.rs", bad), vec!["no-index"]);
        // not scoped outside the five crates
        assert!(lint("crates/bench/src/a.rs", bad).is_empty());
        let loop_bound = "fn f(v: &[u8]) -> u32 {\n    let mut s = 0;\n    for i in 0..v.len() {\n        s += v[i] as u32;\n    }\n    s\n}\n";
        assert!(lint("crates/core/src/a.rs", loop_bound).is_empty());
        let modulo = "fn f(v: &[u8], i: usize) -> u8 {\n    v[i % v.len()]\n}\n";
        assert!(lint("crates/core/src/a.rs", modulo).is_empty());
        let constant = "fn f(v: &[u8]) -> u8 {\n    v[0] + v[HEADER_BYTES]\n}\n";
        assert!(lint("crates/core/src/a.rs", constant).is_empty());
        let range = "fn f(v: &[u8]) -> &[u8] {\n    &v[..]\n}\n";
        assert!(lint("crates/core/src/a.rs", range).is_empty());
        let allowed = "fn f(v: &[u8], i: usize) -> u8 {\n    // audit:allow(no-index) i < len by caller contract\n    v[i]\n}\n";
        assert!(lint("crates/core/src/a.rs", allowed).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(lint("crates/rss/src/a.rs", bad), vec!["unsafe-audit"]);
        let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(lint("crates/rss/src/a.rs", good).is_empty());
    }

    /// The latch fixtures use `.lock().unwrap()` — filter to the rule
    /// under test so the expected `no-unwrap` hits don't obscure it.
    fn latch(label: &str, src: &str) -> Vec<String> {
        lint_source(label, src)
            .violations
            .iter()
            .filter(|v| v.rule == "latch-discipline")
            .map(|v| v.rule.to_string())
            .collect()
    }

    #[test]
    fn latch_guard_across_backend_io_flagged() {
        let bad = "fn save(&self, dst: &mut dyn PageBackend) {\n    let mut src = self.backend.lock().unwrap();\n    dst.write_page(key, &buf);\n}\n";
        assert_eq!(latch("crates/rss/src/storage.rs", bad), vec!["latch-discipline"]);
        // I/O through the guard itself is the point of holding it.
        let through = "fn load(&self) {\n    let mut src = self.backend.lock().unwrap();\n    src.read_page(key, &mut buf);\n}\n";
        assert!(latch("crates/rss/src/storage.rs", through).is_empty());
        // dropping the guard first is the fix
        let dropped = "fn save(&self, dst: &mut dyn PageBackend) {\n    let mut src = self.backend.lock().unwrap();\n    drop(src);\n    dst.write_page(key, &buf);\n}\n";
        assert!(latch("crates/rss/src/storage.rs", dropped).is_empty());
        // a lock().….clone() chain copies data out: temporary, not a guard
        let temp = "fn snap(&self, dst: &mut dyn PageBackend) {\n    let items = self.level.lock().unwrap().clone();\n    dst.write_page(key, &buf);\n}\n";
        assert!(latch("crates/rss/src/storage.rs", temp).is_empty());
        // unscoped files are not checked
        assert!(latch("crates/rss/src/other.rs", bad).is_empty());
    }

    #[test]
    fn latch_guard_across_join_flagged() {
        let bad = "fn run(&self) {\n    let level = self.shared.lock().unwrap();\n    handle.join();\n}\n";
        assert_eq!(latch("crates/rss/src/storage.rs", bad), vec!["latch-discipline"]);
    }

    /// The ordering fixtures also use `.lock().unwrap()` — filter to the
    /// rule under test.
    fn ordering(label: &str, src: &str) -> Vec<String> {
        lint_source(label, src)
            .violations
            .iter()
            .filter(|v| v.rule == "latch-ordering")
            .map(|v| v.rule.to_string())
            .collect()
    }

    #[test]
    fn backend_then_shard_inversion_flagged() {
        let bad = "fn f(&self) {\n    let mut backend = self.backend.lock().unwrap();\n    let mut shard = self.shard.lock().unwrap();\n    shard.touch(&mut backend);\n}\n";
        assert_eq!(ordering("crates/rss/src/sharded.rs", bad), vec!["latch-ordering"]);
        // the documented order passes: shard first, backend second
        let good = "fn f(&self) {\n    let mut shard = self.shard.lock().unwrap();\n    let mut backend = self.backend.lock().unwrap();\n    shard.touch(&mut backend);\n}\n";
        assert!(ordering("crates/rss/src/sharded.rs", good).is_empty());
        // unscoped files are not checked
        assert!(ordering("crates/rss/src/other.rs", bad).is_empty());
    }

    #[test]
    fn same_rank_double_acquisition_flagged() {
        let two_shards = "fn f(&self) {\n    let a = self.shard_a.lock().unwrap();\n    let b = self.shard_b.lock().unwrap();\n    merge(a, b);\n}\n";
        assert_eq!(ordering("crates/rss/src/sharded.rs", two_shards), vec!["latch-ordering"]);
        let two_backends = "fn f(&self) {\n    let a = self.backend.lock().unwrap();\n    let b = other.backend.lock().unwrap();\n    copy(a, b);\n}\n";
        assert_eq!(ordering("crates/rss/src/storage.rs", two_backends), vec!["latch-ordering"]);
    }

    #[test]
    fn releasing_before_reacquire_passes() {
        let dropped = "fn f(&self) {\n    let shard = self.backend.lock().unwrap();\n    drop(shard);\n    let b = self.backend.lock().unwrap();\n    b.touch();\n}\n";
        assert!(ordering("crates/rss/src/sharded.rs", dropped).is_empty());
        // a scoped block releases the first guard the same way
        let scoped = "fn f(&self) {\n    {\n        let shard = self.shard.lock().unwrap();\n        shard.touch();\n    }\n    let b = self.shard.lock().unwrap();\n    b.touch();\n}\n";
        assert!(ordering("crates/rss/src/sharded.rs", scoped).is_empty());
    }

    #[test]
    fn callee_receiver_is_classified() {
        // `shard_slot(key)?.lock()` ranks by the callee ident
        let bad = "fn f(&self, key: PageKey) {\n    let g = self.backend.lock().unwrap();\n    let s = self.shard_slot(key)?.lock().unwrap();\n    s.touch(g);\n}\n";
        assert_eq!(ordering("crates/rss/src/sharded.rs", bad), vec!["latch-ordering"]);
        // unranked receivers are outside the order
        let unranked = "fn f(&self) {\n    let g = self.counters.lock().unwrap();\n    let h = self.totals.lock().unwrap();\n    g.merge(h);\n}\n";
        assert!(ordering("crates/rss/src/sharded.rs", unranked).is_empty());
    }

    #[test]
    fn latch_ordering_suppressible_with_marker() {
        let allowed = "fn f(&self) {\n    let mut backend = self.backend.lock().unwrap();\n    // audit:allow(latch-ordering) — startup path, single-threaded by construction\n    let mut shard = self.shard.lock().unwrap();\n    shard.touch(&mut backend);\n}\n";
        assert!(ordering("crates/rss/src/sharded.rs", allowed).is_empty());
    }

    fn scope(label: &str, src: &str) -> Vec<String> {
        lint_source(label, src)
            .violations
            .iter()
            .filter(|v| v.rule == "latch-scope")
            .map(|v| v.rule.to_string())
            .collect()
    }

    #[test]
    fn latch_in_unlisted_product_file_fails_latch_scope() {
        let src = "fn f(&self) {\n    let g = self.counters.lock().unwrap_or_else(PoisonError::into_inner);\n    g.bump();\n}\n";
        assert_eq!(scope("crates/rss/src/other.rs", src), vec!["latch-scope"]);
        assert_eq!(scope("crates/executor/src/pipeline.rs", src), vec!["latch-scope"]);
        // Listed files are covered by the real latch rules instead.
        assert!(scope("crates/rss/src/storage.rs", src).is_empty());
        // Non-product crates (the audit harness itself) are out of scope.
        assert!(scope("crates/audit/src/model.rs", src).is_empty());
        // A lock-free file needs no listing.
        assert!(scope("crates/rss/src/other.rs", "fn f() -> u32 {\n    7\n}\n").is_empty());
    }

    #[test]
    fn latch_scope_ignores_tests_and_respects_allow() {
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let g = m.lock().unwrap();\n        drop(g);\n    }\n}\n";
        assert!(scope("crates/rss/src/other.rs", in_test).is_empty());
        let allowed = "fn f(&self) {\n    // audit:allow(latch-scope) — private latch, provably local\n    let g = self.counters.lock().unwrap_or_else(PoisonError::into_inner);\n    g.bump();\n}\n";
        assert!(scope("crates/rss/src/other.rs", allowed).is_empty());
    }

    #[test]
    fn latch_rules_scope_by_full_path_not_file_name() {
        // A stray `storage.rs` elsewhere in a product crate is not in
        // LATCHED_FILES: the latch rules skip it and latch-scope flags it.
        let bad = "fn f(&self) {\n    let mut backend = self.backend.lock().unwrap();\n    let mut shard = self.shard.lock().unwrap();\n    shard.touch(&mut backend);\n}\n";
        assert!(ordering("crates/executor/src/storage.rs", bad).is_empty());
        assert_eq!(scope("crates/executor/src/storage.rs", bad), vec!["latch-scope"]);
    }

    #[test]
    fn cast_widening_passes_narrowing_flagged() {
        let widen = "fn f(x: u32) -> u64 {\n    x as u64\n}\n";
        assert!(lint("crates/core/src/cost.rs", widen).is_empty());
        let int_to_float = "fn f(x: u32) -> f64 {\n    x as f64\n}\n";
        assert!(lint("crates/core/src/cost.rs", int_to_float).is_empty());
        let narrow = "fn f(x: u64) -> u32 {\n    x as u32\n}\n";
        assert_eq!(lint("crates/core/src/cost.rs", narrow), vec!["cast-soundness"]);
        let big_to_float = "fn f(x: u64) -> f64 {\n    x as f64\n}\n";
        assert_eq!(lint("crates/core/src/cost.rs", big_to_float), vec!["cast-soundness"]);
        let len_cast = "fn f(v: &[u8]) -> f64 {\n    v.len() as f64\n}\n";
        assert_eq!(lint("crates/core/src/cost.rs", len_cast), vec!["cast-soundness"]);
        let unknown = "fn f(x: SomeOpaque) -> u32 {\n    x.raw() as u32\n}\n";
        assert_eq!(lint("crates/core/src/cost.rs", unknown), vec!["cast-soundness"]);
        // not scoped outside the cost-critical files
        assert!(lint("crates/core/src/plan.rs", narrow).is_empty());
    }

    #[test]
    fn division_needs_guard_in_scoped_files() {
        let bad = "fn f(a: f64, b: f64) -> f64 {\n    a / b\n}\n";
        assert_eq!(lint("crates/core/src/cost.rs", bad), vec!["div-guard"]);
        let guarded = "fn f(a: f64, b: f64) -> f64 {\n    if b > 0.0 {\n        a / b\n    } else {\n        0.0\n    }\n}\n";
        assert!(lint("crates/core/src/cost.rs", guarded).is_empty());
        let clamped = "fn f(a: f64, b: f64) -> f64 {\n    a / b.max(1.0)\n}\n";
        assert!(lint("crates/core/src/cost.rs", clamped).is_empty());
        let literal = "fn f(a: f64) -> f64 {\n    a / 2.0\n}\n";
        assert!(lint("crates/core/src/cost.rs", literal).is_empty());
        let constant = "fn f(a: f64) -> f64 {\n    a / TEMP_PAGE_BYTES\n}\n";
        assert!(lint("crates/core/src/cost.rs", constant).is_empty());
    }

    #[test]
    fn stale_allow_flagged() {
        let src = "fn f() {\n    // audit:allow(no-as-cast) legacy name\n    let x = 1;\n}\n";
        assert_eq!(lint("crates/core/src/a.rs", src), vec!["stale-allow"]);
        // doc prose with a placeholder is not a marker
        let doc = "//! suppress via `audit:allow(<rule>)` markers\nfn f() {}\n";
        assert!(lint("crates/core/src/a.rs", doc).is_empty());
    }

    #[test]
    fn exemptions_are_per_file_and_rule() {
        assert!(exempt("crates/bench/src/bin/table1.rs", "no-unwrap"));
        assert!(!exempt("crates/bench/src/bin/table1.rs", "unsafe-audit"));
        assert!(!exempt("crates/bench/src/bin/exp_nested.rs", "no-unwrap"));
        assert!(!exempt("crates/bench/src/bin/exp_opt_cost.rs", "no-unwrap"));
    }

    #[test]
    fn every_exemption_names_known_rules() {
        for (file, rules, why) in EXEMPT {
            assert!(!why.is_empty(), "{file}: exemption needs a justification");
            for rule in *rules {
                assert!(RULES.contains(rule), "{file}: unknown rule {rule}");
            }
        }
    }

    #[test]
    fn lint_counts_lines_checked() {
        let r = lint_source("crates/core/src/a.rs", "fn a() {}\nfn b() {}\n");
        assert_eq!(r.checks, 2);
    }
}
