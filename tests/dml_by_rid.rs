//! DML by RID: UPDATE and DELETE act on the tuples their own access path
//! returned. A seeded differential oracle drives INSERT / UPDATE / DELETE
//! against a plain `Vec<Vec<Value>>` model and, after **every** statement,
//! checks the affected-row count, the segment contents and a full scan of
//! each index (index ↔ heap consistency); the named tests pin the cases
//! value-matching DML got wrong or could not express.

use std::path::PathBuf;
use system_r::rss::{IndexScan, RsiScan, RssError, SargList, SegmentScan, SplitMix64, Value};
use system_r::{tuple, Database, DbError};

type Row = Vec<Value>;

/// Column positions of the oracle tables `(K, G, V, W)`: `K` carries the
/// unique (table `U`) or a plain (table `D`) index, `G` the clustered
/// index, `V` a non-unique index, `W` no index at all.
const K: usize = 0;
const G: usize = 1;
const V: usize = 2;
const W: usize = 3;
const COLS: [&str; 4] = ["K", "G", "V", "W"];

fn opt(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn lit(v: &Value) -> String {
    v.as_int().map_or("NULL".to_string(), |i| i.to_string())
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The relation's tuples through a segment scan.
fn segment_rows(db: &Database, table: &str) -> Vec<Row> {
    let rel = db.catalog().relation_by_name(table).unwrap();
    let mut scan = SegmentScan::open(db.storage(), rel.segment, rel.id, SargList::none());
    scan.collect_all().unwrap().into_iter().map(|t| t.values().to_vec()).collect()
}

/// The relation's tuples through a full scan of one index: every entry's
/// RID must lead to a live tuple, and no tuple may lack an entry.
fn index_rows(db: &Database, index: &str) -> Vec<Row> {
    let idx = db.catalog().index_by_name(index).unwrap();
    let entry = db.storage().index(idx.id).unwrap();
    entry.tree.check_invariants().unwrap_or_else(|e| panic!("{index}: {e}"));
    let mut scan = IndexScan::open_full(db.storage(), idx.id, SargList::none());
    let rows: Vec<Row> =
        scan.collect_all().unwrap().into_iter().map(|t| t.values().to_vec()).collect();
    assert_eq!(rows.len(), entry.tree.entry_count(), "{index}: entry count");
    rows
}

/// Segment scan and every index scan agree with the model's multiset.
fn assert_consistent(db: &Database, table: &str, indexes: &[&str], model: &[Row], ctx: &str) {
    let want = sorted(model.to_vec());
    assert_eq!(sorted(segment_rows(db, table)), want, "segment scan of {table} after {ctx}");
    for index in indexes {
        assert_eq!(sorted(index_rows(db, index)), want, "scan of {index} after {ctx}");
    }
}

fn affected(db: &mut Database, sql: &str) -> Result<i64, DbError> {
    db.execute(sql).map(|r| r.rows[0][0].as_int().unwrap())
}

/// The plan text of `EXPLAIN <sql>`.
fn explain(db: &mut Database, sql: &str) -> String {
    db.execute(&format!("EXPLAIN {sql}")).unwrap().rows[0][0].to_string()
}

fn is_duplicate_key(e: &DbError) -> bool {
    matches!(e, DbError::Storage(RssError::DuplicateKey(_)))
}

// ---- the differential oracle ------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Pred {
    KeyEq(i64),
    Between(usize, i64, i64),
    /// `W < c`: no index can serve it.
    Filter(i64),
    /// The same filter as a residual over an index range.
    FilterInRange(i64, i64, i64),
    /// `K IN (SELECT K FROM <same table> WHERE W > c AND G = g)`.
    InSelf(i64, i64),
    Never,
}

impl Pred {
    /// `narrow` predicates match a few percent of the table at most, so a
    /// run of DELETEs cannot empty it.
    fn draw(rng: &mut SplitMix64, model: &[Row], key_space: i64, narrow: bool) -> Pred {
        let lo = rng.range_i64(0, key_space);
        let hi = lo + rng.range_i64(0, key_space / 40);
        match rng.below(if narrow { 5 } else { 8 }) {
            // Mostly a key that exists, sometimes one that may not.
            0 => match rng.pick(model).and_then(|r| r[K].as_int()) {
                Some(k) if rng.chance(0.8) => Pred::KeyEq(k),
                _ => Pred::KeyEq(lo),
            },
            1 => Pred::Between(K, lo, hi),
            2 => Pred::FilterInRange(rng.range_i64(0, 10), lo, hi),
            3 => Pred::InSelf(rng.range_i64(3, 9), rng.range_i64(0, 8)),
            4 => Pred::Never,
            5 => {
                let g = rng.range_i64(0, 8);
                Pred::Between(G, g, g + rng.range_i64(0, 2))
            }
            6 => {
                let v = rng.range_i64(0, 5);
                Pred::Between(V, v, v)
            }
            _ => Pred::Filter(rng.range_i64(0, 4)),
        }
    }

    fn sql(&self, table: &str) -> String {
        match *self {
            Pred::KeyEq(k) => format!("K = {k}"),
            Pred::Between(c, lo, hi) => format!("{} BETWEEN {lo} AND {hi}", COLS[c]),
            Pred::Filter(c) => format!("W < {c}"),
            Pred::FilterInRange(c, lo, hi) => format!("W < {c} AND K BETWEEN {lo} AND {hi}"),
            Pred::InSelf(c, g) => {
                format!("K IN (SELECT K FROM {table} WHERE W > {c} AND G = {g})")
            }
            Pred::Never => "W = 1 AND W = 2".to_string(),
        }
    }

    /// SQL filter semantics: a comparison with NULL is not TRUE. `model`
    /// is the pre-statement state the subquery form must see.
    fn holds(&self, row: &Row, model: &[Row]) -> bool {
        let within = |v: &Value, lo: i64, hi: i64| v.as_int().is_some_and(|x| lo <= x && x <= hi);
        let below = |v: &Value, c: i64| v.as_int().is_some_and(|x| x < c);
        match *self {
            Pred::KeyEq(k) => row[K].as_int() == Some(k),
            Pred::Between(c, lo, hi) => within(&row[c], lo, hi),
            Pred::Filter(c) => below(&row[W], c),
            Pred::FilterInRange(c, lo, hi) => below(&row[W], c) && within(&row[K], lo, hi),
            Pred::InSelf(c, g) => row[K].as_int().is_some_and(|k| {
                model.iter().any(|r| {
                    r[W].as_int().is_some_and(|w| w > c)
                        && r[G].as_int() == Some(g)
                        && r[K].as_int() == Some(k)
                })
            }),
            Pred::Never => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Assign {
    Set(usize, Option<i64>),
    Add(usize, i64),
}

impl Assign {
    fn draw(rng: &mut SplitMix64, key_space: i64) -> Assign {
        match rng.below(8) {
            0 => Assign::Set(W, Some(rng.range_i64(0, 10))),
            1 => Assign::Add(V, 1),
            2 => Assign::Add(G, rng.range_i64(1, 4)),
            3 => Assign::Set(G, None),
            4 => Assign::Add(K, rng.range_i64(1, key_space / 4)),
            5 => Assign::Set(K, Some(rng.range_i64(0, key_space))),
            6 => Assign::Set(V, Some(rng.range_i64(0, 5))),
            _ => Assign::Add(W, -1),
        }
    }

    fn sql(&self) -> String {
        match *self {
            Assign::Set(c, v) => format!("{} = {}", COLS[c], lit(&opt(v))),
            Assign::Add(c, d) => format!("{} = {} + {d}", COLS[c], COLS[c]),
        }
    }

    fn apply(&self, row: &mut Row) {
        match *self {
            Assign::Set(c, v) => row[c] = opt(v),
            Assign::Add(c, d) => row[c] = opt(row[c].as_int().map(|x| x + d)),
        }
    }
}

/// Whether `rows` would break the unique index on `K` (NULL is a key
/// like any other to the B-tree).
fn has_duplicate_key(rows: &[Row]) -> bool {
    let mut keys: Vec<&Value> = rows.iter().map(|r| &r[K]).collect();
    keys.sort();
    keys.windows(2).any(|w| w[0] == w[1])
}

fn draw_row(rng: &mut SplitMix64, key_space: i64) -> Row {
    let maybe_null = |rng: &mut SplitMix64, hi: i64| {
        if rng.chance(0.06) {
            Value::Null
        } else {
            Value::Int(rng.range_i64(0, hi))
        }
    };
    vec![maybe_null(rng, key_space), maybe_null(rng, 8), maybe_null(rng, 5), maybe_null(rng, 10)]
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sysr-dml-by-rid-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One seeded run against table `U` (unique `K`) or `D` (duplicates
/// allowed). Every assertion message carries the seed and the statement.
fn run_oracle(seed: u64, unique: bool) {
    const ROWS: usize = 1200;
    const STATEMENTS: usize = 160;
    let table = if unique { "U" } else { "D" };
    let key_space: i64 = if unique { 4000 } else { 400 };
    let mut rng = SplitMix64::new(seed);

    let mut db = Database::new();
    db.execute(&format!("CREATE TABLE {table} (K INTEGER, G INTEGER, V INTEGER, W INTEGER)"))
        .unwrap();
    let mut model: Vec<Row> = Vec::new();
    while model.len() < ROWS {
        let row = draw_row(&mut rng, key_space);
        model.push(row);
        if unique && has_duplicate_key(&model) {
            model.pop();
        } else if !unique && rng.chance(0.2) {
            // An exact duplicate of the row just drawn.
            model.push(model[model.len() - 1].clone());
        }
    }
    db.insert_rows(table, model.iter().map(|r| system_r::rss::Tuple::new(r.clone()))).unwrap();
    let indexes = [format!("{table}_K"), format!("{table}_G"), format!("{table}_V")];
    let indexes: Vec<&str> = indexes.iter().map(String::as_str).collect();
    let unique_kw = if unique { "UNIQUE " } else { "" };
    db.execute(&format!("CREATE {unique_kw}INDEX {table}_K ON {table} (K)")).unwrap();
    db.execute(&format!("CREATE CLUSTERED INDEX {table}_G ON {table} (G)")).unwrap();
    db.execute(&format!("CREATE INDEX {table}_V ON {table} (V)")).unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    assert_consistent(&db, table, &indexes, &model, &format!("load (seed {seed})"));

    let mut index_plans = 0usize;
    let mut segment_plans = 0usize;
    for step in 0..STATEMENTS {
        if step % 40 == 39 {
            db.execute("UPDATE STATISTICS").unwrap();
        }
        let (sql, expect): (String, Result<usize, ()>) = match rng.below(10) {
            0..=2 => {
                // Keys from a wider range than the load's, so that most —
                // not all — statements clear the unique index.
                let rows: Vec<Row> =
                    (0..rng.range_usize(1, 4)).map(|_| draw_row(&mut rng, 4 * key_space)).collect();
                let values: Vec<String> = rows
                    .iter()
                    .map(|r| format!("({})", r.iter().map(lit).collect::<Vec<_>>().join(", ")))
                    .collect();
                let sql = format!("INSERT INTO {table} VALUES {}", values.join(", "));
                let mut after = model.clone();
                after.extend(rows.iter().cloned());
                if unique && has_duplicate_key(&after) {
                    (sql, Err(()))
                } else {
                    model = after;
                    (sql, Ok(rows.len()))
                }
            }
            3..=6 => {
                let pred = Pred::draw(&mut rng, &model, key_space, false);
                let assign = Assign::draw(&mut rng, key_space);
                let sql = format!("UPDATE {table} SET {} WHERE {}", assign.sql(), pred.sql(table));
                let mut after = model.clone();
                let mut hit = 0;
                for row in &mut after {
                    if pred.holds(row, &model) {
                        assign.apply(row);
                        hit += 1;
                    }
                }
                if unique && has_duplicate_key(&after) {
                    (sql, Err(()))
                } else {
                    model = after;
                    (sql, Ok(hit))
                }
            }
            _ => {
                let pred = Pred::draw(&mut rng, &model, key_space, true);
                let sql = format!("DELETE FROM {table} WHERE {}", pred.sql(table));
                let before = model.len();
                let snapshot = model.clone();
                model.retain(|row| !pred.holds(row, &snapshot));
                (sql, Ok(before - model.len()))
            }
        };
        let ctx = format!("step {step} of seed {seed}: {sql}");
        if !sql.starts_with("INSERT") {
            let plan = explain(&mut db, &sql);
            assert!(plan.contains("predicted:") && plan.contains("QCARD"), "{ctx}\n{plan}");
            if plan.contains("INDEX SCAN") {
                index_plans += 1;
            } else {
                segment_plans += 1;
            }
        }
        match (affected(&mut db, &sql), expect) {
            (Ok(n), Ok(want)) => assert_eq!(n, want as i64, "affected rows, {ctx}"),
            (Err(e), Err(())) => assert!(is_duplicate_key(&e), "{ctx}: {e}"),
            (got, want) => panic!("{ctx}: got {got:?}, model says {want:?}"),
        }
        assert_consistent(&db, table, &indexes, &model, &ctx);
    }
    assert!(
        index_plans > 0 && segment_plans > 0,
        "seed {seed}: victim scans must cover both access paths \
         ({index_plans} index, {segment_plans} segment)"
    );

    // The deferred flushes reached the page files: save, reopen, compare.
    let dir = scratch_dir(&format!("{table}-{seed}"));
    db.save(&dir).unwrap();
    drop(db);
    let back = Database::open(&dir).unwrap();
    assert_consistent(&back, table, &indexes, &model, &format!("reopen (seed {seed})"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oracle_with_unique_index() {
    for seed in [1979, 7, 4242] {
        run_oracle(seed, true);
    }
}

#[test]
fn oracle_with_duplicate_rows() {
    for seed in [1979, 11, 90210] {
        run_oracle(seed, false);
    }
}

// ---- named cases ------------------------------------------------------------

/// The parent commit's data loss: UPDATE deleted every victim before
/// inserting any, so a unique violation on the second insert destroyed
/// the remaining victims. A failing UPDATE must change nothing.
#[test]
fn failing_update_leaves_relation_and_indexes_untouched() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.execute("CREATE UNIQUE INDEX TK ON T (K)").unwrap();
    db.execute("CREATE INDEX TV ON T (V)").unwrap();
    let before = vec![
        vec![Value::Int(1), Value::Int(10)],
        vec![Value::Int(2), Value::Int(20)],
        vec![Value::Int(3), Value::Int(30)],
    ];

    let err = db.execute("UPDATE T SET K = 7 WHERE V >= 20").unwrap_err();
    assert!(is_duplicate_key(&err), "{err}");
    let rows = db.execute("SELECT K, V FROM T ORDER BY K").unwrap();
    assert_eq!(rows.rows, vec![tuple![1, 10], tuple![2, 20], tuple![3, 30]]);
    assert_consistent(&db, "T", &["TK", "TV"], &before, "the failing UPDATE");

    // A collision with a row that is *not* a victim fails the same way …
    let err = db.execute("UPDATE T SET K = 1 WHERE V = 30").unwrap_err();
    assert!(is_duplicate_key(&err), "{err}");
    assert_consistent(&db, "T", &["TK", "TV"], &before, "the colliding UPDATE");
    // … while taking a key another victim vacates is legal: a swap-like
    // shift of every key succeeds.
    assert_eq!(affected(&mut db, "UPDATE T SET K = K + 1").unwrap(), 3);
    let rows = db.execute("SELECT K, V FROM T ORDER BY K").unwrap();
    assert_eq!(rows.rows, vec![tuple![2, 10], tuple![3, 20], tuple![4, 30]]);
}

/// A multi-row INSERT is atomic: a collision in row k inserts nothing,
/// not the k−1 rows before it.
#[test]
fn failing_multi_row_insert_inserts_nothing() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER)").unwrap();
    db.execute("CREATE UNIQUE INDEX TK ON T (K)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
    let before = vec![vec![Value::Int(1), Value::Int(10)]];

    // Third row collides with a stored key.
    let err = db.execute("INSERT INTO T VALUES (5, 50), (6, 60), (1, 11)").unwrap_err();
    assert!(is_duplicate_key(&err), "{err}");
    assert_consistent(&db, "T", &["TK"], &before, "INSERT colliding with a stored key");
    // Two rows of the statement collide with each other.
    let err = db.execute("INSERT INTO T VALUES (8, 80), (8, 81)").unwrap_err();
    assert!(is_duplicate_key(&err), "{err}");
    assert_consistent(&db, "T", &["TK"], &before, "INSERT colliding within itself");
    // A type error in a later row also leaves the earlier rows out.
    assert!(db.execute("INSERT INTO T VALUES (9, 90), ('x', 1)").is_err());
    assert_consistent(&db, "T", &["TK"], &before, "INSERT with an ill-typed row");
    // The bulk loader follows the same rule.
    assert!(db.insert_rows("T", vec![tuple![2, 20], tuple![1, 12]]).is_err());
    assert_consistent(&db, "T", &["TK"], &before, "insert_rows colliding");
    assert_eq!(db.insert_rows("T", vec![tuple![2, 20], tuple![3, 30]]).unwrap(), 2);
}

/// The Halloween case: the UPDATE moves rows forward inside the very
/// index range its victim scan walks. Each row is updated exactly once
/// because the victim list is complete before the first mutation.
#[test]
fn update_moving_rows_inside_the_scanned_index_range_updates_each_once() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, G INTEGER, PAD VARCHAR(40))").unwrap();
    db.insert_rows("T", (0..3000).map(|i| tuple![i, i, format!("pad-{i:036}")])).unwrap();
    db.execute("CREATE UNIQUE INDEX TK ON T (K)").unwrap();
    db.execute("CREATE INDEX TG ON T (G)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();

    for (sql, index) in [
        ("UPDATE T SET G = G + 10 WHERE G BETWEEN 100 AND 150", "TG"),
        ("UPDATE T SET K = K + 10000 WHERE K BETWEEN 200 AND 260", "TK"),
    ] {
        let plan = explain(&mut db, sql);
        assert!(plan.contains("INDEX SCAN") && plan.contains(index), "{sql}\n{plan}");
    }
    assert_eq!(
        affected(&mut db, "UPDATE T SET G = G + 10 WHERE G BETWEEN 100 AND 150").unwrap(),
        51
    );
    let moved = db.execute("SELECT K, G FROM T WHERE K BETWEEN 95 AND 155 ORDER BY K").unwrap();
    for row in &moved.rows {
        let (k, g) = (row[0].as_int().unwrap(), row[1].as_int().unwrap());
        let want = if (100..=150).contains(&k) { k + 10 } else { k };
        assert_eq!(g, want, "row K={k} must be shifted exactly once");
    }
    assert_eq!(
        affected(&mut db, "UPDATE T SET K = K + 10000 WHERE K BETWEEN 200 AND 260").unwrap(),
        61
    );
    let r = db.execute("SELECT K FROM T WHERE K >= 10000 ORDER BY K").unwrap();
    assert_eq!(r.rows.len(), 61);
    assert_eq!(r.rows[0], tuple![10200]);
    assert_eq!(r.rows[60], tuple![10260]);
    assert_eq!(sorted(index_rows(&db, "TK")), sorted(segment_rows(&db, "T")));
    assert_eq!(sorted(index_rows(&db, "TG")), sorted(segment_rows(&db, "T")));
}

/// Tuples that agree on every column the predicate does not mention:
/// DELETE takes exactly the rows its scan returned, however many
/// value-identical neighbours they have.
#[test]
fn delete_picks_rows_not_values() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(4), C INTEGER)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 'x', 10), (1, 'x', 10), (1, 'x', 20), (1, 'x', 10)")
        .unwrap();
    db.execute("CREATE INDEX TA ON T (A)").unwrap();
    assert_eq!(affected(&mut db, "DELETE FROM T WHERE C = 20").unwrap(), 1);
    let left = vec![vec![Value::Int(1), Value::from("x"), Value::Int(10)]; 3];
    assert_consistent(&db, "T", &["TA"], &left, "DELETE of the odd one out");
    // UPDATE of identical tuples rewrites every one of them, once.
    assert_eq!(affected(&mut db, "UPDATE T SET C = C + 1 WHERE A = 1").unwrap(), 3);
    let bumped = vec![vec![Value::Int(1), Value::from("x"), Value::Int(11)]; 3];
    assert_consistent(&db, "T", &["TA"], &bumped, "UPDATE of identical tuples");
    assert_eq!(affected(&mut db, "DELETE FROM T WHERE A = 1").unwrap(), 3);
    assert_consistent(&db, "T", &["TA"], &[], "DELETE of identical tuples");
}

/// `EXPLAIN DELETE/UPDATE` renders the victim scan like the SELECT it is,
/// and neither executes nor mutates.
#[test]
fn explain_dml_renders_the_victim_scan_without_running_it() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER)").unwrap();
    db.insert_rows("T", (0..5000).map(|i| tuple![i, i % 7])).unwrap();
    db.execute("CREATE UNIQUE INDEX TK ON T (K)").unwrap();
    db.execute("UPDATE STATISTICS").unwrap();
    let select = explain(&mut db, "SELECT K, V FROM T WHERE K = 42");
    db.reset_io_stats();
    let delete = explain(&mut db, "DELETE FROM T WHERE K = 42");
    assert_eq!(delete, select, "a DELETE's victim scan is the SELECT * over its WHERE");
    assert!(delete.contains("INDEX SCAN") && delete.contains("TK"), "{delete}");
    let update = explain(&mut db, "UPDATE T SET V = V + 1 WHERE V = 3");
    assert!(update.contains("SEGMENT SCAN"), "{update}");
    assert!(update.contains("predicted:") && update.contains("QCARD≈"), "{update}");
    assert_eq!(db.io_stats().rsi_calls, 0, "EXPLAIN must not execute");
    assert_eq!(db.query("SELECT K FROM T").unwrap().len(), 5000, "EXPLAIN must not mutate");

    for sql in ["EXPLAIN ANALYZE DELETE FROM T WHERE K = 1", "EXPLAIN ANALYZE UPDATE T SET V = 0"] {
        match db.execute(sql) {
            Err(DbError::Unsupported(m)) => assert!(m.contains("plain EXPLAIN"), "{m}"),
            other => panic!("{sql}: {other:?}"),
        }
    }
    assert!(matches!(
        db.execute("EXPLAIN INSERT INTO T VALUES (1, 1)"),
        Err(DbError::Unsupported(_))
    ));
}
