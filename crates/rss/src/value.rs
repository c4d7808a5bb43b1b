//! Column types and runtime values.
//!
//! System R columns are typed; the optimizer's selectivity formulas
//! (Table 1 of the paper) distinguish *arithmetic* columns — for which
//! linear interpolation over the key range is possible — from others.
//! We provide three scalar types (integers, floats, strings) plus NULL.
//!
//! [`Value`] carries a **total order** so it can serve as a B-tree key and
//! a sort key: NULL sorts first, numbers compare numerically across the
//! Int/Float divide, and any NaN sorts after all other floats (via
//! `f64::total_cmp`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 64-bit signed integer. Arithmetic.
    Int,
    /// 64-bit IEEE float. Arithmetic.
    Float,
    /// UTF-8 string. Not arithmetic: the optimizer falls back to the
    /// paper's default selectivities for open comparisons on strings.
    Str,
}

impl ColType {
    /// Whether linear interpolation over the column's key range is
    /// meaningful (paper: "if the column is an arithmetic type").
    pub fn is_arithmetic(self) -> bool {
        matches!(self, ColType::Int | ColType::Float)
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColType::Int => write!(f, "INTEGER"),
            ColType::Float => write!(f, "FLOAT"),
            ColType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A runtime value stored in a tuple column.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before every non-null value.
    Null,
    Int(i64),
    Float(f64),
    Str(String),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is compatible with a column of type `ty`
    /// (NULL is compatible with everything; Int is accepted by Float
    /// columns).
    pub fn fits(&self, ty: ColType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColType::Int)
                | (Value::Int(_), ColType::Float)
                | (Value::Float(_), ColType::Float)
                | (Value::Str(_), ColType::Str)
        )
    }

    /// Rank used to order values of different kinds: NULL < numeric < string.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
        }
    }

    /// Approximate encoded size in bytes; used by the B-tree to derive a
    /// realistic page fanout and by statistics to size temporary lists.
    pub fn encoded_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 3 + s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numeric comparison: exact when the i64 is representable,
            // otherwise compare as f64 (adequate for key ordering).
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash ints and integral floats identically so that
            // Value::Int(2) == Value::Float(2.0) implies equal hashes.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                1u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
        assert!(Value::Null < Value::Float(f64::NEG_INFINITY));
    }

    #[test]
    fn numeric_cross_type_ordering() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(3) > Value::Float(2.5));
    }

    #[test]
    fn numbers_sort_before_strings() {
        assert!(Value::Int(999) < Value::Str("0".into()));
        assert!(Value::Float(1e300) < Value::Str("".into()));
    }

    #[test]
    fn nan_has_total_order() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn equal_values_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(Value::Int(7), Value::Float(7.0));
    }

    #[test]
    fn fits_column_types() {
        assert!(Value::Null.fits(ColType::Int));
        assert!(Value::Int(1).fits(ColType::Float));
        assert!(!Value::Float(1.0).fits(ColType::Int));
        assert!(!Value::Str("x".into()).fits(ColType::Int));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::Str("abc".into()) < Value::Str("abd".into()));
        assert!(Value::Str("ab".into()) < Value::Str("abc".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn encoded_sizes() {
        assert_eq!(Value::Null.encoded_size(), 1);
        assert_eq!(Value::Int(0).encoded_size(), 9);
        assert_eq!(Value::Str("abc".into()).encoded_size(), 6);
    }

    #[test]
    fn arithmetic_types() {
        assert!(ColType::Int.is_arithmetic());
        assert!(ColType::Float.is_arithmetic());
        assert!(!ColType::Str.is_arithmetic());
    }
}
