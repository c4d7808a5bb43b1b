//! The in-tree latch lint: the rules clippy cannot say.
//!
//! Panic-freedom, bare indexing, lossy casts and undocumented `unsafe`
//! are clippy lints denied at the crate roots (DESIGN.md §8.2). What is
//! left here is concurrency-aware and project-specific: it needs the
//! latch rank order of DESIGN.md §11 and the [`sysr_rss::sync::LATCHED_FILES`]
//! table shared with the `sync` facade and the `--model` explorer. Rules
//! run over the token stream and block model from [`crate::lexer`], so a
//! pattern inside a string literal or a comment can never fire a rule.
//!
//! ## Rule catalogue
//!
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
//! * **`stale-allow`** — every `audit:allow` marker in the tree must
//!   name one of the three latch rules; any other name is dead weight
//!   that reads like protection and hides the next real finding.
//! * **`lint-io`** — a source file the walk cannot read is a finding,
//!   not a skip.
//!
//! Suppression: a `// audit:allow(latch-ordering)`-style comment on the
//! offending line or within the two lines directly above it (statements
//! wrap). Markers are read from comment tokens only — a marker spelled
//! inside a string literal does not suppress anything.

use crate::lexer::{self, FileModel, TokKind, Token};
use crate::{AuditReport, Violation};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The rules an `audit:allow` marker may name. `stale-allow` flags any
/// other name.
const SUPPRESSIBLE: &[&str] = &["latch-discipline", "latch-ordering", "latch-scope"];

/// Product crates: a latch acquired in one of these outside
/// [`sysr_rss::sync::LATCHED_FILES`] fails `latch-scope`.
const PRODUCT_CRATES: &[&str] = &["core", "rss", "executor", "catalog", "sql"];

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
/// violation locations (it selects the scoped rules).
pub fn lint_source(label: &str, text: &str) -> AuditReport {
    let mut report = AuditReport::default();
    report.checks += text.lines().count() as u64;

    let model = lexer::scan(lexer::lex(text));
    let ctx = Ctx { label, model: &model, allows: allow_markers(&model.tokens) };

    stale_allow_rule(&ctx, &mut report);
    if latch_scoped(label) {
        latch_discipline_rule(&ctx, &mut report);
        latch_ordering_rule(&ctx, &mut report);
    } else if PRODUCT_CRATES.iter().any(|c| label.starts_with(&format!("crates/{c}/"))) {
        latch_scope_rule(&ctx, &mut report);
    }
    report
}

// ---------------------------------------------------------------------------
// Suppression markers
// ---------------------------------------------------------------------------

/// Collect comma-separated `audit:allow` suppression markers from
/// comment tokens only.
/// Only rule-shaped names (`[a-z][a-z0-9-]*`) count as markers at all, so
/// doc prose with a placeholder name is neither a suppression nor a
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

/// `(byte offset, rule names)` for each `audit:allow` marker (one or
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

/// `stale-allow`: every marker must name a latch rule.
fn stale_allow_rule(ctx: &Ctx, report: &mut AuditReport) {
    let mut lines: Vec<(&u32, &Vec<String>)> = ctx.allows.iter().collect();
    lines.sort();
    for (line, rules) in lines {
        for rule in rules {
            if !SUPPRESSIBLE.contains(&rule.as_str()) {
                report.push(Violation::new(
                    "stale-allow",
                    ctx.at(*line),
                    format!(
                        "suppression names `{rule}`, which is not a latch rule; delete the \
                         marker, or use `#[expect(clippy::…, reason = \"…\")]` for a clippy lint"
                    ),
                ));
            }
        }
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
        if !eq.is_some_and(|e| toks[e].text == "=") {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The rules one fixture fires, restricted to `rule`: several latch
    /// rules can see the same fixture.
    fn only(rule: &str, label: &str, src: &str) -> Vec<String> {
        lint_source(label, src)
            .violations
            .iter()
            .filter(|v| v.rule == rule)
            .map(|v| v.rule.to_string())
            .collect()
    }

    fn latch(label: &str, src: &str) -> Vec<String> {
        only("latch-discipline", label, src)
    }

    fn ordering(label: &str, src: &str) -> Vec<String> {
        only("latch-ordering", label, src)
    }

    fn scope(label: &str, src: &str) -> Vec<String> {
        only("latch-scope", label, src)
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
        // a marker spelled inside a string literal suppresses nothing
        let in_string = "fn f(&self) {\n    let mut backend = self.backend.lock().unwrap();\n    let _s = \"audit:allow(latch-ordering)\";\n    let mut shard = self.shard.lock().unwrap();\n}\n";
        assert_eq!(ordering("crates/rss/src/sharded.rs", in_string), vec!["latch-ordering"]);
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
    fn stale_allow_flags_every_non_latch_rule() {
        // Built with `format!` so the retired rule names below are not
        // themselves markers in this file's comments.
        for rule in ["no-unwrap", "cast-soundness", "no-such-rule"] {
            let src =
                format!("fn f() {{\n    // audit:{}({rule}) legacy\n    let x = 1;\n}}\n", "allow");
            let report = lint_source("crates/core/src/a.rs", &src);
            let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
            assert_eq!(rules, vec!["stale-allow"], "{rule}");
        }
        // doc prose with a placeholder is not a marker
        let doc = format!("//! suppress via `audit:{}(<rule>)` markers\nfn f() {{}}\n", "allow");
        assert!(lint_source("crates/core/src/a.rs", &doc).ok());
    }

    #[test]
    fn lint_counts_lines_checked() {
        let r = lint_source("crates/core/src/a.rs", "fn a() {}\nfn b() {}\n");
        assert_eq!(r.checks, 2);
    }
}
