//! Composite rows: one slot per FROM-list table of the current block.

use sysr_core::ColId;
use sysr_rss::{Tuple, Value};

/// A (possibly partial) composite row of one query block: slot `t` holds
/// the tuple of FROM-list table `t` once that table has been joined in.
///
/// Tuples are owned, not reference-counted: an `Rc<Tuple>` variant was
/// measured and lost — the extra allocation per attached tuple costs
/// single-table scans ~20% while the cheap clones buy the join queries
/// nothing measurable (their time goes to slot visits, not row copies).
pub type Row = Vec<Option<Tuple>>;

/// An empty row for a block with `n` tables.
pub fn empty_row(n: usize) -> Row {
    vec![None; n]
}

/// Read a column of the composite row; `None` if the table is absent.
pub fn row_value(row: &Row, col: ColId) -> Option<&Value> {
    row.get(col.table)?.as_ref()?.get(col.col)
}

/// Combine two partial rows of the same block (disjoint table sets; the
/// left side wins on overlap, which cannot happen in well-formed plans).
pub fn combine(a: &Row, b: &Row) -> Row {
    a.iter().zip(b.iter()).map(|(x, y)| x.clone().or_else(|| y.clone())).collect()
}

/// Flatten a row into a single tuple (for temp-list materialization and
/// width accounting): concatenate the present tuples' values in table
/// order.
pub fn flatten(row: &Row) -> Tuple {
    row.iter().flatten().flat_map(|t| t.values().iter().cloned()).collect()
}

/// Compare two rows by a sequence of `(column, descending)` sort keys;
/// missing tables and NULLs sort first (ascending).
pub fn cmp_rows(a: &Row, b: &Row, keys: &[(ColId, bool)]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for &(col, desc) in keys {
        let va = row_value(a, col);
        let vb = row_value(b, col);
        let ord = match (va, vb) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(x), Some(y)) => x.cmp(y),
        };
        let ord = if desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Whether `rows` is sorted according to `keys`.
pub fn rows_sorted(rows: &[Row], keys: &[(ColId, bool)]) -> bool {
    rows.iter()
        .zip(rows.iter().skip(1))
        .all(|(a, b)| cmp_rows(a, b, keys) != std::cmp::Ordering::Greater)
}

/// Sort `rows` on `keys`, ordered exactly as [`cmp_rows`] orders them
/// (NULLs and missing tables first ascending, last descending) by
/// decorate-sort-undecorate: each row's key values are extracted **once**
/// up front instead of being re-read through `row_value` inside every
/// comparison, which was the dominant cost of large sorts. Stable, like
/// `sort_by` over `cmp_rows`, so equal-key rows keep their input order.
pub fn sort_rows(rows: &mut [Row], keys: &[(ColId, bool)]) {
    if rows.len() <= 1 || keys.is_empty() {
        return;
    }
    // `Option<Value>` compares None-first then by `Value`, exactly the
    // (None, Some) / (Some, Some) arms of `cmp_rows`; the direction is
    // applied per key as `cmp_rows` applies it.
    let mut decorated: Vec<(Vec<Option<Value>>, Row)> = rows
        .iter_mut()
        .map(|r| {
            let key: Vec<Option<Value>> =
                keys.iter().map(|&(k, _)| row_value(r, k).cloned()).collect();
            (key, std::mem::take(r))
        })
        .collect();
    decorated.sort_by(|(a, _), (b, _)| {
        for ((x, y), &(_, desc)) in a.iter().zip(b).zip(keys) {
            let ord = x.cmp(y);
            if ord.is_ne() {
                return if desc { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
    for (slot, (_, row)) in rows.iter_mut().zip(decorated) {
        *slot = row;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysr_rss::tuple;

    fn row2(a: Option<Tuple>, b: Option<Tuple>) -> Row {
        vec![a, b]
    }

    #[test]
    fn value_lookup_and_combine() {
        let r1 = row2(Some(tuple![1, "x"]), None);
        let r2 = row2(None, Some(tuple![9]));
        assert_eq!(row_value(&r1, ColId::new(0, 1)), Some(&Value::Str("x".into())));
        assert_eq!(row_value(&r1, ColId::new(1, 0)), None);
        let c = combine(&r1, &r2);
        assert_eq!(row_value(&c, ColId::new(1, 0)), Some(&Value::Int(9)));
        assert_eq!(row_value(&c, ColId::new(0, 0)), Some(&Value::Int(1)));
    }

    #[test]
    fn flatten_concats_in_table_order() {
        let r = row2(Some(tuple![1]), Some(tuple![2, 3]));
        assert_eq!(flatten(&r), tuple![1, 2, 3]);
        let partial = row2(None, Some(tuple![5]));
        assert_eq!(flatten(&partial), tuple![5]);
    }

    #[test]
    fn sorting_with_desc_keys() {
        let rows: Vec<Row> = [3, 1, 2].iter().map(|&i| row2(Some(tuple![i]), None)).collect();
        let key = ColId::new(0, 0);
        let mut asc = rows.clone();
        asc.sort_by(|a, b| cmp_rows(a, b, &[(key, false)]));
        assert!(rows_sorted(&asc, &[(key, false)]));
        let mut desc = rows.clone();
        desc.sort_by(|a, b| cmp_rows(a, b, &[(key, true)]));
        let vals: Vec<i64> =
            desc.iter().map(|r| row_value(r, key).unwrap().as_int().unwrap()).collect();
        assert_eq!(vals, vec![3, 2, 1]);
        assert!(!rows_sorted(&rows, &[(key, false)]));
    }

    #[test]
    fn decorated_sort_matches_naive_cmp_rows_sort() {
        // The decorated path must agree with `sort_by(cmp_rows)`
        // bit-for-bit — including stability on duplicate keys and
        // NULL/missing-table placement — across seeded random inputs.
        let mut state = 0x2545F491_4F6CDD1Du64;
        let mut next = move |m: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as i64
        };
        for n in [0usize, 1, 2, 17, 500] {
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    let a = if next(10) == 0 { Value::Null } else { Value::Int(next(5)) };
                    let t0 = Some(Tuple::new(vec![a, Value::Int(next(7)), Value::Int(i as i64)]));
                    let t1 = if next(10) == 1 { None } else { Some(tuple![next(3)]) };
                    row2(t0, t1)
                })
                .collect();
            // Every direction pattern over the three keys.
            for dirs in 0..8u8 {
                let keys: Vec<_> = [ColId::new(0, 0), ColId::new(1, 0), ColId::new(0, 1)]
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| (k, dirs & (1 << i) != 0))
                    .collect();
                let mut naive = rows.clone();
                naive.sort_by(|a, b| cmp_rows(a, b, &keys));
                let mut sorted = rows.clone();
                sort_rows(&mut sorted, &keys);
                assert_eq!(sorted, naive, "directions {dirs:03b}");
                assert!(rows_sorted(&sorted, &keys));
            }
        }
    }
}
