//! Property tests: for random data, random physical designs, and random
//! predicate trees, the full pipeline (parse → bind → optimize → execute)
//! must agree with a naive in-memory reference evaluator — whatever plan
//! the optimizer picks.

use system_r::rss::{SplitMix64, Tuple, Value};
use system_r::{tuple, Database};

/// A predicate over columns A (int), B (int) of table T, mirrored as SQL
/// text and as a Rust closure with SQL-ish NULL semantics (any comparison
/// involving NULL is false).
#[derive(Debug, Clone)]
enum Pred {
    CmpA(&'static str, i64),
    CmpB(&'static str, i64),
    BetweenA(i64, i64),
    InB(Vec<i64>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    fn sql(&self) -> String {
        match self {
            Pred::CmpA(op, v) => format!("A {op} {v}"),
            Pred::CmpB(op, v) => format!("B {op} {v}"),
            Pred::BetweenA(lo, hi) => format!("A BETWEEN {lo} AND {hi}"),
            Pred::InB(list) => format!(
                "B IN ({})",
                list.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
            ),
            Pred::And(a, b) => format!("({} AND {})", a.sql(), b.sql()),
            Pred::Or(a, b) => format!("({} OR {})", a.sql(), b.sql()),
            Pred::Not(inner) => format!("NOT ({})", inner.sql()),
        }
    }

    /// SQL three-valued logic: `None` is UNKNOWN (any comparison with
    /// NULL); a row qualifies iff the predicate is `Some(true)`.
    fn eval3(&self, a: Option<i64>, b: Option<i64>) -> Option<bool> {
        fn cmp(op: &str, l: Option<i64>, r: i64) -> Option<bool> {
            let l = l?;
            Some(match op {
                "=" => l == r,
                "<>" => l != r,
                "<" => l < r,
                "<=" => l <= r,
                ">" => l > r,
                ">=" => l >= r,
                _ => unreachable!(),
            })
        }
        match self {
            Pred::CmpA(op, v) => cmp(op, a, *v),
            Pred::CmpB(op, v) => cmp(op, b, *v),
            Pred::BetweenA(lo, hi) => a.map(|x| x >= *lo && x <= *hi),
            Pred::InB(list) => b.map(|x| list.contains(&x)),
            Pred::And(p, q) => match (p.eval3(a, b), q.eval3(a, b)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pred::Or(p, q) => match (p.eval3(a, b), q.eval3(a, b)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Pred::Not(inner) => inner.eval3(a, b).map(|x| !x),
        }
    }

    fn eval(&self, a: Option<i64>, b: Option<i64>) -> bool {
        self.eval3(a, b) == Some(true)
    }
}

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn arb_leaf(rng: &mut SplitMix64) -> Pred {
    match rng.below(4) {
        0 => {
            let op = *rng.pick(&OPS).unwrap();
            Pred::CmpA(op, rng.range_i64(0, 20))
        }
        1 => {
            let op = *rng.pick(&OPS).unwrap();
            Pred::CmpB(op, rng.range_i64(0, 8))
        }
        2 => {
            let (x, y) = (rng.range_i64(0, 20), rng.range_i64(0, 20));
            Pred::BetweenA(x.min(y), x.max(y))
        }
        _ => {
            let n = 1 + rng.below(3) as usize;
            Pred::InB((0..n).map(|_| rng.range_i64(0, 8)).collect())
        }
    }
}

/// Random predicate tree, AND/OR/NOT over leaves, up to 3 levels deep
/// (mirrors the original `prop_recursive(3, 16, 2, …)` strategy).
fn arb_pred(rng: &mut SplitMix64) -> Pred {
    fn gen(rng: &mut SplitMix64, depth: u32) -> Pred {
        if depth == 0 || rng.below(2) == 0 {
            return arb_leaf(rng);
        }
        match rng.below(3) {
            0 => Pred::And(Box::new(gen(rng, depth - 1)), Box::new(gen(rng, depth - 1))),
            1 => Pred::Or(Box::new(gen(rng, depth - 1)), Box::new(gen(rng, depth - 1))),
            _ => Pred::Not(Box::new(gen(rng, depth - 1))),
        }
    }
    gen(rng, 3)
}

/// Row generator: (A, B) with occasional NULLs in B.
fn arb_rows(rng: &mut SplitMix64) -> Vec<(i64, Option<i64>)> {
    let n = rng.below(80) as usize;
    (0..n)
        .map(|_| {
            let a = rng.range_i64(0, 20);
            let b = if rng.chance(0.9) { Some(rng.range_i64(0, 8)) } else { None };
            (a, b)
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Design {
    NoIndex,
    IndexA,
    IndexB,
    ClusteredA,
    Both,
}

fn arb_design(rng: &mut SplitMix64) -> Design {
    match rng.below(5) {
        0 => Design::NoIndex,
        1 => Design::IndexA,
        2 => Design::IndexB,
        3 => Design::ClusteredA,
        _ => Design::Both,
    }
}

fn build_db(rows: &[(i64, Option<i64>)], design: Design) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (A INTEGER, B INTEGER, PAD VARCHAR(12))").unwrap();
    db.insert_rows(
        "T",
        rows.iter().enumerate().map(|(i, (a, b))| {
            Tuple::new(vec![
                Value::Int(*a),
                b.map(Value::Int).unwrap_or(Value::Null),
                Value::Str(format!("p{i:08}")),
            ])
        }),
    )
    .unwrap();
    match design {
        Design::NoIndex => {}
        Design::IndexA => {
            db.execute("CREATE INDEX T_A ON T (A)").unwrap();
        }
        Design::IndexB => {
            db.execute("CREATE INDEX T_B ON T (B)").unwrap();
        }
        Design::ClusteredA => {
            db.execute("CREATE CLUSTERED INDEX T_A ON T (A)").unwrap();
        }
        Design::Both => {
            db.execute("CREATE INDEX T_A ON T (A)").unwrap();
            db.execute("CREATE INDEX T_B ON T (B)").unwrap();
        }
    }
    db.execute("UPDATE STATISTICS").unwrap();
    db
}

/// Single-table filters agree with the reference under every physical
/// design (the chosen access path must not change results).
#[test]
fn prop_filter_matches_reference() {
    let mut rng = SplitMix64::new(0x9019_0001);
    for case in 0..64u64 {
        let rows = arb_rows(&mut rng);
        let pred = arb_pred(&mut rng);
        let design = arb_design(&mut rng);
        let db = build_db(&rows, design);
        let sql = format!("SELECT A FROM T WHERE {} ORDER BY A", pred.sql());
        let got: Vec<i64> =
            db.query(&sql).unwrap().rows.iter().map(|t| t[0].as_int().unwrap()).collect();
        let mut expect: Vec<i64> =
            rows.iter().filter(|(a, b)| pred.eval(Some(*a), *b)).map(|(a, _)| *a).collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "case {case} ({design:?}) query: {sql}");
    }
}

/// Aggregates over random filters agree with the reference.
#[test]
fn prop_aggregates_match_reference() {
    let mut rng = SplitMix64::new(0x9019_0002);
    for case in 0..64u64 {
        let rows = arb_rows(&mut rng);
        let pred = arb_pred(&mut rng);
        let db = build_db(&rows, Design::IndexA);
        let sql = format!("SELECT COUNT(*), COUNT(B), MIN(A), MAX(A) FROM T WHERE {}", pred.sql());
        let r = db.query(&sql).unwrap();
        let kept: Vec<&(i64, Option<i64>)> =
            rows.iter().filter(|(a, b)| pred.eval(Some(*a), *b)).collect();
        let row = &r.rows[0];
        assert_eq!(row[0].as_int().unwrap(), kept.len() as i64, "case {case}");
        assert_eq!(
            row[1].as_int().unwrap(),
            kept.iter().filter(|(_, b)| b.is_some()).count() as i64,
            "case {case}"
        );
        let min = kept.iter().map(|(a, _)| *a).min();
        let max = kept.iter().map(|(a, _)| *a).max();
        assert_eq!(row[2].as_int(), min, "case {case}");
        assert_eq!(row[3].as_int(), max, "case {case}");
    }
}

/// Two-table equi-joins agree with the nested-loop reference whatever
/// method and order the optimizer picks.
#[test]
fn prop_join_matches_reference() {
    let mut rng = SplitMix64::new(0x9019_0003);
    for case in 0..64u64 {
        let n_left = rng.below(50) as usize;
        let left: Vec<(i64, i64)> =
            (0..n_left).map(|_| (rng.range_i64(0, 12), rng.range_i64(0, 5))).collect();
        let n_right = rng.below(50) as usize;
        let right: Vec<i64> = (0..n_right).map(|_| rng.range_i64(0, 12)).collect();
        let tag = rng.range_i64(0, 5);
        let index_right = rng.bool();

        let mut db = Database::new();
        db.execute("CREATE TABLE L (K INTEGER, TAG INTEGER)").unwrap();
        db.execute("CREATE TABLE R (K INTEGER)").unwrap();
        db.insert_rows("L", left.iter().map(|(k, t)| tuple![*k, *t])).unwrap();
        db.insert_rows("R", right.iter().map(|k| tuple![*k])).unwrap();
        if index_right {
            db.execute("CREATE INDEX R_K ON R (K)").unwrap();
        }
        db.execute("UPDATE STATISTICS").unwrap();
        let sql = format!("SELECT L.K FROM L, R WHERE L.K = R.K AND L.TAG = {tag} ORDER BY L.K");
        let got: Vec<i64> =
            db.query(&sql).unwrap().rows.iter().map(|t| t[0].as_int().unwrap()).collect();
        let mut expect = Vec::new();
        for (k, t) in &left {
            if *t != tag {
                continue;
            }
            for rk in &right {
                if rk == k {
                    expect.push(*k);
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect, "case {case}");
    }
}

/// DISTINCT and GROUP BY agree.
#[test]
fn prop_distinct_and_group_by() {
    let mut rng = SplitMix64::new(0x9019_0004);
    for case in 0..64u64 {
        let rows = arb_rows(&mut rng);
        let db = build_db(&rows, Design::ClusteredA);
        let distinct: Vec<i64> = db
            .query("SELECT DISTINCT A FROM T ORDER BY A")
            .unwrap()
            .rows
            .iter()
            .map(|t| t[0].as_int().unwrap())
            .collect();
        let mut expect: Vec<i64> = rows.iter().map(|(a, _)| *a).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(&distinct, &expect, "case {case}");

        let grouped = db.query("SELECT A, COUNT(*) FROM T GROUP BY A ORDER BY A").unwrap();
        assert_eq!(grouped.rows.len(), expect.len(), "case {case}");
        for row in &grouped.rows {
            let a = row[0].as_int().unwrap();
            let n = row[1].as_int().unwrap();
            let actual = rows.iter().filter(|(x, _)| *x == a).count() as i64;
            assert_eq!(n, actual, "case {case}");
        }
    }
}

/// DELETE removes exactly the matching rows.
#[test]
fn prop_delete_matches_reference() {
    let mut rng = SplitMix64::new(0x9019_0005);
    for case in 0..64u64 {
        let rows = arb_rows(&mut rng);
        let pred = arb_pred(&mut rng);
        let mut db = build_db(&rows, Design::IndexA);
        let deleted = db.execute(&format!("DELETE FROM T WHERE {}", pred.sql())).unwrap();
        let expect_deleted = rows.iter().filter(|(a, b)| pred.eval(Some(*a), *b)).count() as i64;
        assert_eq!(deleted.rows[0][0].as_int().unwrap(), expect_deleted, "case {case}");
        let remaining = db.query("SELECT COUNT(*) FROM T").unwrap();
        assert_eq!(
            remaining.rows[0][0].as_int().unwrap(),
            rows.len() as i64 - expect_deleted,
            "case {case}"
        );
    }
}
