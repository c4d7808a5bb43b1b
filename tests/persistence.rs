//! Persistence round-trip: a database saved to real page files must come
//! back byte-for-byte equivalent — same query results, same catalog
//! statistics — and the disk backend's I/O accounting must match the
//! buffer pool's page-fetch counters exactly, also while readers run
//! beside a flushing `sync`.

mod common;

use common::fig1_db;
use std::path::PathBuf;
use system_r::{tuple, Database};

/// The query corpus re-run before and after the round-trip: the same
/// shapes `sql_correctness` pins (filters, joins, the Fig. 1 three-way
/// join, grouping, subqueries), each with ORDER BY so row order is
/// deterministic.
const CORPUS: &[&str] = &[
    "SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME",
    "SELECT NAME FROM EMP WHERE DNO IN (1, 2) AND JOB = 5 ORDER BY NAME",
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' ORDER BY NAME",
    "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB \
     WHERE TITLE = 'CLERK' AND LOC = 'DENVER' \
       AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB ORDER BY NAME",
    "SELECT DNO, COUNT(*) FROM EMP GROUP BY DNO ORDER BY DNO",
    "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER') ORDER BY NAME",
    "SELECT NAME, SAL FROM EMP WHERE SAL BETWEEN 2000 AND 30000 AND JOB IN (5, 6) ORDER BY NAME, SAL",
];

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sysr-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// NCARD / TCARD / ICARD / NINDX for every object, as one comparable blob.
fn stats_fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.catalog().relations() {
        out.push_str(&format!(
            "rel {} ncard={} tcard={} valid={}\n",
            rel.name, rel.stats.ncard, rel.stats.tcard, rel.stats.valid
        ));
    }
    for idx in db.catalog().indexes() {
        out.push_str(&format!(
            "idx {} icard={} nindx={} valid={}\n",
            idx.name, idx.stats.icard, idx.stats.nindx, idx.stats.valid
        ));
    }
    out
}

#[test]
fn round_trip_reruns_the_correctness_corpus_identically() {
    let db = fig1_db(2_000, 25, 5);
    let before: Vec<_> =
        CORPUS.iter().map(|sql| db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))).collect();
    let stats_before = stats_fingerprint(&db);

    let dir = scratch_dir("roundtrip");
    db.save(&dir).expect("save");
    let reopened = Database::open(&dir).expect("open");

    assert_eq!(stats_fingerprint(&reopened), stats_before, "catalog statistics must survive");
    for (sql, expected) in CORPUS.iter().zip(&before) {
        let got = reopened.query(sql).unwrap_or_else(|e| panic!("reopened {sql}: {e}"));
        assert_eq!(got.columns, expected.columns, "column headers changed: {sql}");
        assert_eq!(got.rows, expected.rows, "rows changed after reopen: {sql}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn page_fetches_on_disk_backend_equal_backend_reads() {
    // The tentpole identity: with real page files behind the pool, every
    // counted page fetch is a device read — `EXPLAIN ANALYZE` fetches
    // correspond to actual I/O, not a residency simulation.
    let db = fig1_db(2_000, 25, 5);
    let dir = scratch_dir("identity");
    db.save(&dir).expect("save");
    let reopened = Database::open(&dir).expect("open");

    for sql in CORPUS {
        reopened.evict_buffers().expect("evict");
        reopened.reset_io_stats();
        reopened.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let io = reopened.io_stats();
        let fetches = io.data_page_fetches + io.index_page_fetches + io.temp_page_fetches;
        assert_eq!(
            fetches, io.backend_reads,
            "page fetches must equal device reads for {sql}: {io}"
        );
        assert!(io.data_page_fetches > 0, "cold scan must touch data pages: {sql}");
    }

    // The rendered EXPLAIN ANALYZE report rides on the same counters.
    let report = reopened
        .explain_analyze("SELECT NAME FROM EMP WHERE SAL > 9000 ORDER BY NAME")
        .expect("explain analyze");
    assert!(report.contains("measured io:"), "analyze report must show measured I/O:\n{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_and_truncated_files_are_clean_errors() {
    let db = fig1_db(500, 10, 5);
    let dir = scratch_dir("torn");
    db.save(&dir).expect("save");

    // Torn write: chop the segment file mid-page.
    let seg = dir.join("seg-0.pages");
    let bytes = std::fs::read(&seg).expect("read seg");
    assert!(bytes.len() > 4096, "fixture must span pages");
    std::fs::write(&seg, &bytes[..bytes.len() - 1000]).expect("truncate");
    let err = Database::open(&dir).err().expect("torn page file must fail to open");
    let msg = err.to_string();
    assert!(!msg.is_empty());

    // Restore, then corrupt a single byte instead.
    std::fs::write(&seg, &bytes).expect("restore");
    Database::open(&dir).expect("restored database opens again");
    let mut flipped = bytes.clone();
    flipped[200] ^= 0x5A;
    std::fs::write(&seg, &flipped).expect("corrupt");
    assert!(Database::open(&dir).is_err(), "checksum mismatch must fail to open");

    // Truncated metadata is a parse error, not a panic.
    std::fs::write(&seg, &bytes).expect("restore again");
    let meta = dir.join("storage.meta");
    let text = std::fs::read_to_string(&meta).expect("read meta");
    let keep = text.len() / 2;
    std::fs::write(&meta, &text[..keep]).expect("truncate meta");
    assert!(Database::open(&dir).is_err(), "truncated storage.meta must fail to open");

    // Missing catalog metadata fails cleanly too.
    std::fs::write(&meta, &text).expect("restore meta");
    std::fs::remove_file(dir.join("catalog.meta")).expect("drop catalog.meta");
    assert!(Database::open(&dir).is_err(), "missing catalog.meta must fail to open");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open descriptors of this process that point into `dir`.
#[cfg(target_os = "linux")]
fn open_fds_under(dir: &std::path::Path) -> usize {
    let dir = dir.canonicalize().expect("canonical dir");
    std::fs::read_dir("/proc/self/fd")
        .expect("list fds")
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.starts_with(&dir))
        .count()
}

#[test]
fn spilling_sorts_leave_no_temp_files_and_no_descriptors() {
    // Every ORDER BY below materializes a temp list on the disk backend.
    // Destroying the list must take its `tmp-N.pages` file and the open
    // handle with it: the directory and the fd table look the same after
    // 50 sorts as after one.
    let db = fig1_db(2_000, 25, 5);
    let dir = scratch_dir("temp-leak");
    db.save(&dir).expect("save");
    let reopened = Database::open(&dir).expect("open");
    let sql = "SELECT NAME, SAL FROM EMP ORDER BY SAL, NAME";
    let first = reopened.query(sql).expect("first sort");
    #[cfg(target_os = "linux")]
    let fds = open_fds_under(&dir);
    for _ in 0..50 {
        assert_eq!(reopened.query(sql).expect("sort").rows, first.rows);
    }
    let io = reopened.io_stats();
    assert!(io.temp_lists_created > 50 && io.temp_pages_written > 50, "sorts must spill: {io}");
    assert_eq!(io.temp_lists_leaked(), 0, "{io}");
    let temp_files: Vec<_> = std::fs::read_dir(&dir)
        .expect("list dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("tmp-"))
        .collect();
    assert!(temp_files.is_empty(), "temp page files left behind: {temp_files:?}");
    #[cfg(target_os = "linux")]
    assert_eq!(open_fds_under(&dir), fds, "temp-file descriptors left open");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_into_and_reopen_from_a_nested_directory() {
    // `save` must create the directory path itself, and a reopened
    // database stays fully writable: inserts, new indexes, re-gathered
    // statistics, and a second save into the same directory.
    let db = fig1_db(500, 10, 5);
    let dir = scratch_dir("nested").join("a").join("b");
    db.save(&dir).expect("save into nested path");

    let mut reopened = Database::open(&dir).expect("open");
    reopened
        .execute("INSERT INTO DEPT VALUES (99, 'NEW-DEPT', 'DENVER')")
        .expect("insert after reopen");
    reopened.execute("UPDATE STATISTICS").expect("statistics after reopen");
    let n = reopened.query("SELECT DNAME FROM DEPT WHERE DNO = 99").expect("query new row");
    assert_eq!(n.rows.len(), 1);
    reopened.save(&dir).expect("second save");

    let third = Database::open(&dir).expect("reopen after second save");
    let n = third.query("SELECT DNAME FROM DEPT WHERE DNO = 99").expect("query survives");
    assert_eq!(n.rows.len(), 1);
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("sysr-persist-{}-nested", std::process::id())),
    );
}

#[test]
fn clean_sync_after_reopen_is_durable() {
    // A reopened database writes its page files in place, so `sync` is
    // its durability point: the segment pages allocated and the index
    // nodes split since the open must be reachable after a reopen.
    let dir = scratch_dir("sync");
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, V VARCHAR(20))").expect("create");
    db.insert_rows("T", (0..10i64).map(|k| tuple![k, format!("value-{k}")])).expect("load");
    db.execute("CREATE INDEX T_K ON T (K)").expect("index");
    db.save(&dir).expect("save");
    drop(db);

    let mut db = Database::open(&dir).expect("open");
    db.insert_rows("T", (10..5_000i64).map(|k| tuple![k, format!("value-{k}")])).expect("insert");
    db.execute("DELETE FROM T WHERE K < 100").expect("delete");
    db.sync().expect("sync");
    drop(db);

    let db = Database::open(&dir).expect("reopen after sync");
    let count = db.query("SELECT COUNT(*) FROM T").expect("count");
    assert_eq!(count.rows, vec![tuple![4_900i64]], "every synced row survives");
    let probe = db.query("SELECT V FROM T WHERE K = 4321").expect("probe");
    assert_eq!(probe.rows, vec![tuple!["value-4321"]], "the index reaches a synced row");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readers_stay_consistent_while_sync_flushes() {
    const THREADS: usize = 8;
    let dir = scratch_dir("serve-under-sync");
    // Build on disk so `sync` has real page files to flush to.
    {
        let db = fig1_db(300, 10, 5);
        db.save(&dir).unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let base: Vec<(&str, String)> = CORPUS
        .iter()
        .map(|sql| {
            let rows = db.query(sql).unwrap_or_else(|e| panic!("baseline query `{sql}`: {e}"));
            (*sql, format!("{:?}", rows.rows))
        })
        .collect();

    let failures: Vec<String> = std::thread::scope(|scope| {
        let base = &base;
        let db = &db;
        let mut handles: Vec<_> = (0..THREADS - 1)
            .map(|t| {
                scope.spawn(move || {
                    let session = db.session();
                    let mut bad = Vec::new();
                    for round in 0..8 {
                        for (sql, want_rows) in base {
                            match session.query(sql) {
                                Ok(rows) if format!("{:?}", rows.rows) != *want_rows => {
                                    bad.push(format!(
                                        "reader {t} round {round}: row drift under sync for `{sql}`"
                                    ));
                                }
                                Ok(_) => {}
                                Err(e) => bad.push(format!("reader {t}: `{sql}` failed: {e}")),
                            }
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.push(scope.spawn(move || {
            let mut bad = Vec::new();
            for i in 0..40 {
                if let Err(e) = db.sync() {
                    bad.push(format!("sync {i} failed: {e}"));
                }
            }
            bad
        }));
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    // The image on disk after concurrent syncs still round-trips.
    db.sync().unwrap();
    drop(db);
    let reopened = Database::open(&dir).unwrap();
    for (sql, want_rows) in &base {
        let rows = reopened.query(sql).unwrap_or_else(|e| panic!("reopen `{sql}`: {e}"));
        assert_eq!(&format!("{:?}", rows.rows), want_rows, "reopened rows differ for `{sql}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
