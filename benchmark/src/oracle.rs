//! Result oracle: what every statement must return, computed in plain
//! Rust from the generator's rows and compared against what the database
//! returned. A statement that errors, returns the wrong number of rows, a
//! wrong row, or (for ORDER BY templates) rows out of order counts as
//! `failed`.

use system_r::executor::ResultSet;
use system_r::rss::Value;

/// A value as the oracle sees it — deliberately not `sysr_rss::Value`,
/// so the expected side never passes through database code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V<'a> {
    I(i64),
    F(f64),
    S(&'a str),
}

fn mix(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix_value(h: u64, v: V<'_>) -> u64 {
    match v {
        V::I(i) => mix(mix(h, 1), u64::from_ne_bytes(i.to_ne_bytes())),
        V::F(f) => mix(mix(h, 2), f.to_bits()),
        V::S(s) => s.bytes().fold(mix(h, 3), |h, b| mix(h, u64::from(b))),
    }
}

/// Order-sensitive hash of one row's values.
pub fn row_hash(row: &[V<'_>]) -> u64 {
    row.iter().fold(0x5EED, |h, &v| mix_value(h, v))
}

/// What a statement must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub rows: u64,
    /// Wrapping sum of [`row_hash`] over the rows: order-insensitive.
    pub checksum: u64,
    /// Result column that must be non-decreasing (ORDER BY templates).
    pub sorted_by: Option<usize>,
}

impl Expect {
    /// Build from the oracle's own rows.
    pub fn of<'a>(rows: impl IntoIterator<Item = Vec<V<'a>>>) -> Expect {
        let mut expect = Expect { rows: 0, checksum: 0, sorted_by: None };
        for row in rows {
            expect.rows += 1;
            expect.checksum = expect.checksum.wrapping_add(row_hash(&row));
        }
        expect
    }

    /// The one-row `(count)` result DML statements return.
    pub fn dml(count: i64) -> Expect {
        Expect::of([vec![V::I(count)]])
    }

    pub fn sorted_by(mut self, col: usize) -> Expect {
        self.sorted_by = Some(col);
        self
    }

    /// Cheap check (row count only): run on every timed statement.
    pub fn count_matches(&self, result: &ResultSet) -> bool {
        u64::try_from(result.len()).is_ok_and(|n| n == self.rows)
    }

    /// Full check: count, checksum, and order where required.
    pub fn matches(&self, result: &ResultSet) -> bool {
        if !self.count_matches(result) {
            return false;
        }
        let mut checksum = 0u64;
        for tuple in &result.rows {
            let mut h = 0x5EED;
            for value in tuple.values() {
                h = match value {
                    Value::Int(i) => mix_value(h, V::I(*i)),
                    Value::Float(f) => mix_value(h, V::F(*f)),
                    Value::Str(s) => mix_value(h, V::S(s)),
                    // The generators never produce NULLs.
                    Value::Null => return false,
                };
            }
            checksum = checksum.wrapping_add(h);
        }
        if checksum != self.checksum {
            return false;
        }
        match self.sorted_by {
            None => true,
            Some(col) => result.rows.windows(2).all(|pair| match pair {
                [a, b] => matches!((a.get(col), b.get(col)), (Some(a), Some(b)) if a <= b),
                _ => false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use system_r::tuple;

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = Expect::of([vec![V::I(1), V::S("x")], vec![V::I(2), V::S("y")]]);
        let b = Expect::of([vec![V::I(2), V::S("y")], vec![V::I(1), V::S("x")]]);
        let c = Expect::of([vec![V::I(1), V::S("y")], vec![V::I(2), V::S("x")]]);
        assert_eq!(a, b);
        assert_ne!(a.checksum, c.checksum);
        assert_ne!(row_hash(&[V::I(1)]), row_hash(&[V::F(1.0)]), "type is part of the hash");
    }

    #[test]
    fn matches_checks_count_content_and_order() {
        let rs = ResultSet::new(vec!["A".into(), "B".into()], vec![tuple![2, "y"], tuple![1, "x"]]);
        let expect = Expect::of([vec![V::I(1), V::S("x")], vec![V::I(2), V::S("y")]]);
        assert!(expect.matches(&rs));
        assert!(!expect.sorted_by(0).matches(&rs), "rows are not ascending on column 0");
        assert!(!Expect::of([vec![V::I(1), V::S("x")]]).matches(&rs), "row count differs");
        assert!(!Expect::of([vec![V::I(1), V::S("x")], vec![V::I(2), V::S("z")]]).matches(&rs));
        assert!(Expect::dml(3).matches(&ResultSet::new(vec!["N".into()], vec![tuple![3]])));
    }
}
