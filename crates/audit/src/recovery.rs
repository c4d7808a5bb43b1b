//! Recovery-invariant rules: the persistent page files behind the buffer
//! pool must round-trip a database exactly.
//!
//! Two rules, run against a scratch database the auditor builds — a bulk
//! load, then rounds of batched deletes, updates and re-inserts, so the
//! page files hold what *deferred* statement-end flushes wrote — saves,
//! and reopens in a temp directory:
//!
//! * **`page-checksum`** — every frame of every saved `*.pages` file
//!   either is an all-zero gap or carries a valid stamp (v2 digest)
//!   ([`system_r::rss::pagefile::verify_page`]) and an LSN ≥ 1; and a
//!   deliberately corrupted page file must fail `Storage::open` with a
//!   clean [`system_r::rss::RssError`], never a panic or a silent success.
//! * **`reopen-equivalence`** — after `save_to` + `Storage::open`, the
//!   segment scan returns the same tuples, a full index scan returns the
//!   same tuples in the same key order, and the persisted catalog
//!   statistics (`NCARD` / `TCARD` / `ICARD` / `NINDX`) both survive the
//!   `catalog.meta` round-trip and match what `UPDATE STATISTICS`
//!   re-derives from the reopened page files.
//!
//! Everything runs in `std::env::temp_dir()` and cleans up after itself;
//! a violation from this module means a committed database would come
//! back different from the one that was saved.

use crate::{AuditReport, Violation};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use system_r::catalog::persist::{self, CATALOG_META};
use system_r::catalog::{Catalog, ColumnMeta, RelId};
use system_r::rss::pagefile::{page_lsn, parse_file_name, verify_page};
use system_r::rss::{
    BTreeConfig, ColType, IndexScan, PageKey, Rid, RsiScan, RssResult, SargExpr, SegmentId,
    SplitMix64, Storage, Tuple, Value, PAGE_SIZE,
};

/// Buffer-pool size for the scratch database — small enough that the
/// reopened scans must actually read pages back from the saved files.
const POOL_PAGES: usize = 8;

/// Rows in the scratch relation; enough for several data pages and a
/// multi-node B-tree.
const ROWS: i64 = 300;

/// Rounds of delete → update → re-insert run over the loaded relation,
/// and the tuples each batch statement of a round touches.
const CHURN_ROUNDS: i64 = 6;
const CHURN_BATCH: usize = 40;

/// Small fanout, so that a batch spans several leaves: a deleted key run
/// empties whole leaves and the re-insert refills them.
const SCRATCH_FANOUT: BTreeConfig = BTreeConfig { leaf_capacity: 16, internal_capacity: 8 };

/// Run both recovery rules in a scratch temp directory.
pub fn audit_recovery() -> AuditReport {
    let mut report = AuditReport::default();
    let dir = std::env::temp_dir().join(format!("sysr-audit-recovery-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    check_recovery(&dir, &mut report);
    let _ = fs::remove_dir_all(&dir);
    report
}

/// One scratch tuple; `salt` varies the string's length, so an updated
/// tuple rarely fits the bytes of the one it replaces.
fn scratch_row(key: i64, salt: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(key),
        Value::Str(format!("row-{key:04}-{}", "x".repeat(((key + salt) % 7) as usize * 8))),
        Value::Float(f64::from(key as i32) * 1.5),
    ])
}

/// The scratch database: one relation `T(A INT UNIQUE, B STR, V FLOAT)`
/// with a unique index on `A`, a few hundred rows spread over multiple
/// pages, churned by batched DML, and statistics gathered at the end.
fn build_database() -> Result<(Storage, Catalog, SegmentId, RelId), String> {
    let mut st = Storage::new(POOL_PAGES);
    st.set_btree_config(SCRATCH_FANOUT);
    let seg = st.create_segment();
    let mut cat = Catalog::new();
    let rel = cat
        .create_relation(
            "T",
            seg,
            vec![
                ColumnMeta::new("A", ColType::Int),
                ColumnMeta::new("B", ColType::Str),
                ColumnMeta::new("V", ColType::Float),
            ],
        )
        .map_err(|e| format!("create relation: {e}"))?;
    let rows: Vec<Tuple> = (0..ROWS).map(|i| scratch_row(i, 0)).collect();
    st.insert_many(seg, rel, rows).map_err(|e| format!("bulk load: {e}"))?;
    let idx = st.create_index(seg, rel, vec![0], true).map_err(|e| format!("create index: {e}"))?;
    cat.register_index(idx, "T_A", rel, vec![0], true, false)
        .map_err(|e| format!("register index: {e}"))?;
    churn(&mut st, seg, rel)?;
    cat.update_statistics(&st);
    Ok((st, cat, seg, rel))
}

/// Seeded rounds of `delete_many` / `update_many` / `insert_many`, each
/// flushing once at its end. A round deletes a run of keys contiguous in
/// key order (whole B-tree leaves empty out, data-page slots are freed),
/// re-keys a scatter of the survivors, then inserts as many tuples as it
/// deleted — half of them the deleted keys again (refilling the emptied
/// leaves and the freed slots), half new keys. `ROWS` is preserved.
fn churn(st: &mut Storage, seg: SegmentId, rel: RelId) -> Result<(), String> {
    let mut rng = SplitMix64::new(0x5EED_0D31);
    let mut fresh = ROWS;
    let mut fresh_row = |salt: i64| {
        fresh += 1;
        scratch_row(fresh, salt)
    };
    for round in 0..CHURN_ROUNDS {
        let mut live: Vec<(Rid, Tuple)> = st
            .segment(seg)
            .and_then(|s| s.iter_relation(rel).map(|(rid, t)| t.map(|t| (rid, t))).collect())
            .map_err(|e| format!("churn round {round}: scan: {e}"))?;
        live.sort_by(|(_, a), (_, b)| a.cmp(b));
        let start = rng.range_usize(0, live.len().saturating_sub(CHURN_BATCH).max(1));
        let (head, rest) = live.split_at(start.min(live.len()));
        let (run, tail) = rest.split_at(CHURN_BATCH.min(rest.len()));

        let victims: Vec<Rid> = run.iter().map(|(rid, _)| *rid).collect();
        st.delete_many(seg, rel, &victims)
            .map_err(|e| format!("churn round {round}: delete_many: {e}"))?;
        let changes: Vec<(Rid, Tuple)> =
            head.iter().chain(tail).step_by(7).map(|(rid, _)| (*rid, fresh_row(round))).collect();
        st.update_many(seg, rel, &changes)
            .map_err(|e| format!("churn round {round}: update_many: {e}"))?;
        let back: Vec<Tuple> = run
            .iter()
            .enumerate()
            .map(|(i, (_, old))| if i % 2 == 0 { old.clone() } else { fresh_row(round + 1) })
            .collect();
        st.insert_many(seg, rel, back)
            .map_err(|e| format!("churn round {round}: insert_many: {e}"))?;
    }
    Ok(())
}

/// Tuples of the relation in storage order, bypassing the buffer pool (we
/// compare contents, not I/O accounting).
fn segment_rows(st: &Storage, seg: SegmentId, rel: RelId) -> RssResult<Vec<Tuple>> {
    st.segment(seg)?.iter_relation(rel).map(|(_, t)| t).collect()
}

/// Tuples in index-key order via a full index scan — this drives real
/// page reads through the pool on a freshly opened database.
fn index_rows(st: &Storage, idx: u32) -> RssResult<Vec<Tuple>> {
    let mut scan = IndexScan::open_full(st, idx, Vec::<SargExpr>::new());
    scan.collect_all()
}

/// Render the statistics the reopen must preserve, one line per object.
fn stats_fingerprint(cat: &Catalog) -> String {
    let mut out = String::new();
    for rel in cat.relations() {
        let _ = writeln!(
            out,
            "rel {} ncard={} tcard={} valid={}",
            rel.name, rel.stats.ncard, rel.stats.tcard, rel.stats.valid
        );
    }
    for idx in cat.indexes() {
        let _ = writeln!(
            out,
            "idx {} icard={} nindx={} leaf={} valid={}",
            idx.name, idx.stats.icard, idx.stats.nindx, idx.stats.leaf_pages, idx.stats.valid
        );
    }
    out
}

fn check_recovery(dir: &Path, report: &mut AuditReport) {
    let (st, cat, seg, rel) = match build_database() {
        Ok(x) => x,
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "build", e));
            return;
        }
    };
    let rows_before = match segment_rows(&st, seg, rel) {
        Ok(r) => r,
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "scan before save", e.to_string()));
            return;
        }
    };
    let index_before = match index_rows(&st, 0) {
        Ok(r) => r,
        Err(e) => {
            report.push(Violation::new(
                "reopen-equivalence",
                "index scan before save",
                e.to_string(),
            ));
            return;
        }
    };
    let stats_before = stats_fingerprint(&cat);

    if let Err(e) = st.save_to(dir) {
        report.push(Violation::new("reopen-equivalence", "save", e.to_string()));
        return;
    }
    if let Err(e) = fs::write(dir.join(CATALOG_META), persist::render(&cat)) {
        report.push(Violation::new("reopen-equivalence", "write catalog.meta", e.to_string()));
        return;
    }

    check_page_stamps(dir, report);
    check_reopen(dir, seg, rel, &rows_before, &index_before, &stats_before, report);
    check_corruption_detected(dir, report);
}

/// `page-checksum`: walk every saved page file frame by frame.
fn check_page_stamps(dir: &Path, report: &mut AuditReport) {
    let entries = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            report.push(Violation::new(
                "page-checksum",
                dir.display().to_string(),
                format!("cannot list saved directory: {e}"),
            ));
            return;
        }
    };
    let mut page_files = 0usize;
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(file_id) = parse_file_name(&name) else { continue };
        page_files += 1;
        let bytes = match fs::read(entry.path()) {
            Ok(b) => b,
            Err(e) => {
                report.push(Violation::new("page-checksum", name, format!("cannot read: {e}")));
                continue;
            }
        };
        if bytes.len() % PAGE_SIZE != 0 {
            report.push(Violation::new(
                "page-checksum",
                name.clone(),
                format!("file length {} is not a whole number of pages", bytes.len()),
            ));
            continue;
        }
        for (page_no, chunk) in bytes.chunks_exact(PAGE_SIZE).enumerate() {
            report.checks += 1;
            let mut frame = [0u8; PAGE_SIZE];
            frame.copy_from_slice(chunk);
            let key = PageKey::new(file_id, page_no as u32);
            let at = format!("{name}:{page_no}");
            if let Err(e) = verify_page(&frame, key) {
                report.push(Violation::new("page-checksum", at, e.to_string()));
            } else if frame.iter().any(|&b| b != 0) && page_lsn(&frame) == 0 {
                report.push(Violation::new(
                    "page-checksum",
                    at,
                    "non-empty page carries LSN 0; every write must stamp an LSN",
                ));
            }
        }
    }
    report.checks += 1;
    if page_files == 0 {
        report.push(Violation::new(
            "page-checksum",
            dir.display().to_string(),
            "save_to produced no page files",
        ));
    }
}

/// `reopen-equivalence`: open the saved directory and compare everything.
fn check_reopen(
    dir: &Path,
    seg: SegmentId,
    rel: RelId,
    rows_before: &[Tuple],
    index_before: &[Tuple],
    stats_before: &str,
    report: &mut AuditReport,
) {
    report.checks += 1;
    let reopened = match Storage::open(dir, POOL_PAGES) {
        Ok(s) => s,
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "open", e.to_string()));
            return;
        }
    };
    match segment_rows(&reopened, seg, rel) {
        Ok(rows_after) => {
            report.checks += 1;
            if rows_after != rows_before {
                report.push(Violation::new(
                    "reopen-equivalence",
                    "segment scan",
                    format!(
                        "{} rows before save, {} after reopen (or contents differ)",
                        rows_before.len(),
                        rows_after.len()
                    ),
                ));
            }
        }
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "segment rescan", e.to_string()));
        }
    }
    match index_rows(&reopened, 0) {
        Ok(index_after) => {
            report.checks += 1;
            if index_after != index_before {
                report.push(Violation::new(
                    "reopen-equivalence",
                    "index scan",
                    format!(
                        "{} index entries before save, {} after reopen (or order differs)",
                        index_before.len(),
                        index_after.len()
                    ),
                ));
            }
        }
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "index rescan", e.to_string()));
        }
    }

    // Catalog statistics: the persisted values must round-trip …
    let text = match fs::read_to_string(dir.join(CATALOG_META)) {
        Ok(t) => t,
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "read catalog.meta", e.to_string()));
            return;
        }
    };
    let mut reparsed = match persist::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            report.push(Violation::new("reopen-equivalence", "parse catalog.meta", e.to_string()));
            return;
        }
    };
    report.checks += 1;
    let persisted = stats_fingerprint(&reparsed);
    if persisted != stats_before {
        report.push(Violation::new(
            "reopen-equivalence",
            "catalog statistics",
            format!("persisted stats differ:\nbefore:\n{stats_before}after:\n{persisted}"),
        ));
    }
    // … and re-gathering them from the reopened page files must agree
    // (TCARD comes from real page counts, ICARD from the real B-tree).
    report.checks += 1;
    reparsed.update_statistics(&reopened);
    let regathered = stats_fingerprint(&reparsed);
    if regathered != stats_before {
        report.push(Violation::new(
            "reopen-equivalence",
            "regathered statistics",
            format!("UPDATE STATISTICS after reopen differs:\nbefore:\n{stats_before}after:\n{regathered}"),
        ));
    }
}

/// `page-checksum` (corruption arm): flipping one byte of a saved page
/// must surface as a clean error, not a panic and not a silent success.
fn check_corruption_detected(dir: &Path, report: &mut AuditReport) {
    report.checks += 1;
    let victim = dir.join("seg-0.pages");
    let mut bytes = match fs::read(&victim) {
        Ok(b) => b,
        Err(e) => {
            report.push(Violation::new(
                "page-checksum",
                victim.display().to_string(),
                format!("cannot read for corruption test: {e}"),
            ));
            return;
        }
    };
    if bytes.len() < 128 {
        report.push(Violation::new(
            "page-checksum",
            victim.display().to_string(),
            "segment file too small to corrupt",
        ));
        return;
    }
    bytes[100] ^= 0xFF;
    if let Err(e) = fs::write(&victim, &bytes) {
        report.push(Violation::new(
            "page-checksum",
            victim.display().to_string(),
            format!("cannot rewrite for corruption test: {e}"),
        ));
        return;
    }
    if Storage::open(dir, POOL_PAGES).is_ok() {
        report.push(Violation::new(
            "page-checksum",
            victim.display().to_string(),
            "opening a database with a corrupted page succeeded; the checksum \
             must reject the page",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_rules_pass_on_a_healthy_database() {
        let report = audit_recovery();
        assert!(report.ok(), "{}", report.render());
        assert!(report.checks > 10, "too few recovery checks ran: {}", report.checks);
    }

    #[test]
    fn fingerprint_covers_relations_and_indexes() {
        let (st, cat, ..) = build_database().expect("scratch database builds");
        let fp = stats_fingerprint(&cat);
        assert!(fp.contains("rel T ncard=300"), "{fp}");
        assert!(fp.contains("idx T_A icard=300"), "{fp}");
        drop(st);
    }
}
