//! Byte-level encoding of tuples for page storage.
//!
//! Tuples are stored on pages as flat byte strings:
//!
//! ```text
//! u16 column-count
//! per column: u8 tag, then payload
//!   tag 0 = NULL               (no payload)
//!   tag 1 = Int                (8 bytes LE)
//!   tag 2 = Float              (8 bytes LE, f64 bits)
//!   tag 3 = Str                (u16 LE length + UTF-8 bytes)
//! ```
//!
//! The format is deliberately simple — the paper's cost model cares about
//! how many *pages* tuples occupy, not about encoding cleverness — but it is
//! a real serialization boundary: every tuple that crosses the RSI has been
//! decoded from page bytes.

use crate::error::{RssError, RssResult};
use crate::sarg::{SargExpr, SargList, SargPred};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Encode one value (tag + payload) into `out`, appending.
pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            let len = s.len() as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode one value from a cursor positioned at its tag byte.
pub(crate) fn decode_value(cursor: &mut Cursor<'_>) -> RssResult<Value> {
    let tag = cursor.u8()?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(i64::from_le_bytes(cursor.array::<8>()?)),
        TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(cursor.array::<8>()?))),
        TAG_STR => {
            let len = cursor.u16()? as usize;
            let raw = cursor.slice(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| RssError::Corrupt("invalid utf-8 in string column".into()))?;
            Value::Str(s.to_string())
        }
        t => return Err(RssError::Corrupt(format!("unknown value tag {t}"))),
    })
}

/// Encode a key (u16 column count + values) into `out`. This is the same
/// layout as a tuple, reused for B-tree node keys.
pub(crate) fn encode_key(key: &[Value], out: &mut Vec<u8>) {
    let ncols = key.len() as u16;
    out.extend_from_slice(&ncols.to_le_bytes());
    for v in key {
        encode_value(v, out);
    }
}

/// Decode a key written by [`encode_key`] from a cursor.
pub(crate) fn decode_key(cursor: &mut Cursor<'_>) -> RssResult<Vec<Value>> {
    let ncols = cursor.u16()? as usize;
    let mut values = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        values.push(decode_value(cursor)?);
    }
    Ok(values)
}

/// Encode a tuple into `out`, appending.
pub fn encode_tuple(tuple: &Tuple, out: &mut Vec<u8>) {
    let ncols = tuple.arity() as u16;
    out.extend_from_slice(&ncols.to_le_bytes());
    for v in tuple.values() {
        encode_value(v, out);
    }
}

/// Encode a tuple into a fresh byte vector.
pub fn tuple_bytes(tuple: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(tuple.encoded_size());
    encode_tuple(tuple, &mut out);
    out
}

/// Decode a tuple from the byte string produced by [`encode_tuple`].
pub fn decode_tuple(bytes: &[u8]) -> RssResult<Tuple> {
    let mut cursor = Cursor::new(bytes);
    let ncols = cursor.u16()? as usize;
    let mut values = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        values.push(decode_value(&mut cursor)?);
    }
    if cursor.pos != bytes.len() {
        return Err(RssError::Corrupt(format!(
            "trailing bytes after tuple: {} of {}",
            bytes.len() - cursor.pos,
            bytes.len()
        )));
    }
    Ok(Tuple::new(values))
}

/// A borrowed view of one encoded column value. Lets SARGs compare
/// against page bytes without allocating a [`Value`] (the `Str` arm is
/// the expensive one: a `String` per column per visited slot).
enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl ValueRef<'_> {
    fn kind_rank(&self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Int(_) | ValueRef::Float(_) => 1,
            ValueRef::Str(_) => 2,
        }
    }

    fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Mirror of [`Value::cmp`] with a borrowed left side: NULL first,
    /// numbers compare across the Int/Float divide, NaN via `total_cmp`.
    fn cmp_value(&self, other: &Value) -> Ordering {
        match (self, other) {
            (ValueRef::Null, Value::Null) => Ordering::Equal,
            (ValueRef::Int(a), Value::Int(b)) => a.cmp(b),
            (ValueRef::Str(a), Value::Str(b)) => (*a).cmp(b.as_str()),
            (ValueRef::Float(a), Value::Float(b)) => a.total_cmp(b),
            (ValueRef::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (ValueRef::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => {
                let other_rank = match other {
                    Value::Null => 0u8,
                    Value::Int(_) | Value::Float(_) => 1,
                    Value::Str(_) => 2,
                };
                self.kind_rank().cmp(&other_rank)
            }
        }
    }
}

/// Decode one value as a borrowed view from a cursor positioned at its
/// tag byte. Validates exactly what [`decode_value`] validates.
fn decode_value_ref<'a>(cursor: &mut Cursor<'a>) -> RssResult<ValueRef<'a>> {
    let tag = cursor.u8()?;
    Ok(match tag {
        TAG_NULL => ValueRef::Null,
        TAG_INT => ValueRef::Int(i64::from_le_bytes(cursor.array::<8>()?)),
        TAG_FLOAT => ValueRef::Float(f64::from_bits(u64::from_le_bytes(cursor.array::<8>()?))),
        TAG_STR => {
            let len = cursor.u16()? as usize;
            let raw = cursor.slice(len)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| RssError::Corrupt("invalid utf-8 in string column".into()))?;
            ValueRef::Str(s)
        }
        t => return Err(RssError::Corrupt(format!("unknown value tag {t}"))),
    })
}

/// Skip one encoded value without materializing or validating its
/// payload (a string's bytes are length-skipped, not UTF-8 checked —
/// [`decode_tuple`] performs the full check on every tuple that is
/// actually returned).
fn skip_value(cursor: &mut Cursor<'_>) -> RssResult<()> {
    let tag = cursor.u8()?;
    match tag {
        TAG_NULL => {}
        TAG_INT | TAG_FLOAT => {
            cursor.slice(8)?;
        }
        TAG_STR => {
            let len = cursor.u16()? as usize;
            cursor.slice(len)?;
        }
        t => return Err(RssError::Corrupt(format!("unknown value tag {t}"))),
    }
    Ok(())
}

/// SARG evaluation directly over an encoded tuple image.
///
/// A scan builds one of these per OPEN and applies it to every slot.
/// `matches` walks the encoding **lazily, in column order**: factors are
/// tested in ascending order of the rightmost column each reads, the
/// walk advances only as far right as the predicate under test reads,
/// and the first false factor ends it. A predicate whose column lies
/// ahead of the walk is decoded straight off the cursor, so a
/// one-predicate conjunction costs one length-skip per preceding column
/// and one compare. Only a read *behind* the walk — an OR factor, a
/// second factor on the same column, a conjunction listed right to left
/// — walks a fresh cursor from the first column; no offset table is
/// kept, so evaluation allocates nothing.
///
/// Columns the walk passes are length-skipped, not validated; a column a
/// predicate reads is fully decoded (a string's bytes are UTF-8
/// checked). So truncation or a bad tag inside the columns the rejecting
/// factor reads is an error, while bytes past the column that rejected a
/// tuple are never read. Rejected tuples are never materialized; that is
/// the batch executor's main CPU saving on selective scans. Every
/// *accepted* tuple still goes through [`decode_tuple`]'s full
/// structural/UTF-8/trailing-bytes validation before it crosses the RSI,
/// so returned data is exactly as checked as before; only corruption
/// confined to tuples a SARG rejects can go unreported.
pub(crate) struct EncodedEval {
    /// Factor indices in evaluation order, ascending by the rightmost
    /// column each reads. Empty when the list's own order already is —
    /// always so for a one-factor probe, which then allocates nothing.
    order: Vec<usize>,
}

/// The rightmost column a factor reads (0 for a trivial factor).
fn last_col(factor: &SargExpr) -> usize {
    factor.disjuncts.iter().flatten().map(|p| p.col).max().unwrap_or(0)
}

impl EncodedEval {
    /// Build the evaluator for a fixed SARG list (the scan's own).
    pub(crate) fn for_sargs(sargs: &SargList) -> Self {
        let factors = &sargs.factors;
        let mut order = Vec::new();
        if factors.iter().zip(factors.iter().skip(1)).any(|(a, b)| last_col(a) > last_col(b)) {
            order.extend(0..factors.len());
            order.sort_by_key(|&i| factors.get(i).map_or(0, last_col));
        }
        EncodedEval { order }
    }

    /// Whether the encoded tuple satisfies every factor of `sargs`
    /// (which must be the list this evaluator was built for).
    pub(crate) fn matches(&self, bytes: &[u8], sargs: &SargList) -> RssResult<bool> {
        let mut walk = Walk::new(bytes)?;
        for i in 0..sargs.factors.len() {
            let f = self.order.get(i).copied().unwrap_or(i);
            if let Some(factor) = sargs.factors.get(f) {
                if !walk.factor_holds(factor)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// One tuple image under evaluation: `cursor` sits at the tag of column
/// `next`, the first column the walk has not passed.
struct Walk<'a> {
    bytes: &'a [u8],
    ncols: usize,
    cursor: Cursor<'a>,
    next: usize,
}

impl<'a> Walk<'a> {
    fn new(bytes: &'a [u8]) -> RssResult<Self> {
        let mut cursor = Cursor::new(bytes);
        let ncols = cursor.u16()? as usize;
        Ok(Walk { bytes, ncols, cursor, next: 0 })
    }

    /// A DNF factor; an empty one is trivially true.
    fn factor_holds(&mut self, factor: &SargExpr) -> RssResult<bool> {
        if factor.disjuncts.is_empty() {
            return Ok(true);
        }
        for conj in &factor.disjuncts {
            let mut all = true;
            for pred in conj {
                if !self.pred_holds(pred)? {
                    all = false;
                    break;
                }
            }
            if all {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One predicate; out-of-range columns and NULLs never satisfy,
    /// mirroring [`SargPred::eval`]. Neither case reads the tuple.
    fn pred_holds(&mut self, pred: &SargPred) -> RssResult<bool> {
        if pred.value.is_null() || pred.col >= self.ncols {
            return Ok(false);
        }
        let left = self.column(pred.col)?;
        Ok(!left.is_null() && op_holds(pred.op, left.cmp_value(&pred.value)))
    }

    /// Decode column `col` (< `ncols`), skipping the columns before it.
    fn column(&mut self, col: usize) -> RssResult<ValueRef<'a>> {
        if col < self.next {
            // Behind the walk: the columns before `col` were skipped once
            // already, so a fresh walk re-reads them without new errors.
            return Walk::new(self.bytes)?.column(col);
        }
        while self.next < col {
            skip_value(&mut self.cursor)?;
            self.next += 1;
        }
        self.next += 1;
        decode_value_ref(&mut self.cursor)
    }
}

/// Whether a comparison outcome satisfies an operator.
fn op_holds(op: crate::sarg::CompareOp, ord: Ordering) -> bool {
    match op {
        crate::sarg::CompareOp::Eq => ord.is_eq(),
        crate::sarg::CompareOp::Ne => ord.is_ne(),
        crate::sarg::CompareOp::Lt => ord.is_lt(),
        crate::sarg::CompareOp::Le => ord.is_le(),
        crate::sarg::CompareOp::Gt => ord.is_gt(),
        crate::sarg::CompareOp::Ge => ord.is_ge(),
    }
}

/// Bounds-checked reader over a byte slice; every overrun is a
/// [`RssError::Corrupt`], never a panic.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn slice(&mut self, n: usize) -> RssResult<&'a [u8]> {
        let end = self.pos.saturating_add(n);
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| RssError::Corrupt("truncated tuple bytes".into()))?;
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> RssResult<u8> {
        Ok(u8::from_le_bytes(self.array::<1>()?))
    }

    pub(crate) fn u16(&mut self) -> RssResult<u16> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    pub(crate) fn u32(&mut self) -> RssResult<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    pub(crate) fn array<const N: usize>(&mut self) -> RssResult<[u8; N]> {
        let s = self.slice(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;
    use crate::tuple;

    #[test]
    fn roundtrip_basic() {
        let t = tuple![1, "SMITH", 2.5];
        assert_eq!(decode_tuple(&tuple_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn roundtrip_nulls_and_empty() {
        let t = Tuple::new(vec![Value::Null, Value::Str(String::new())]);
        assert_eq!(decode_tuple(&tuple_bytes(&t)).unwrap(), t);
        let empty = Tuple::new(vec![]);
        assert_eq!(decode_tuple(&tuple_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn encoded_size_is_exact() {
        let t = tuple![7, "abc", 1.25];
        assert_eq!(tuple_bytes(&t).len(), t.encoded_size());
    }

    #[test]
    fn rejects_truncated() {
        let t = tuple![1, "SMITH"];
        let bytes = tuple_bytes(&t);
        assert!(decode_tuple(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = tuple_bytes(&tuple![1]);
        bytes.push(0xFF);
        assert!(decode_tuple(&bytes).is_err());
    }

    #[test]
    fn rejects_bad_tag() {
        // ncols=1, tag=9
        let bytes = vec![1, 0, 9];
        assert!(decode_tuple(&bytes).is_err());
    }

    fn arb_value(rng: &mut SplitMix64) -> Value {
        // One-, two-, three- and four-byte UTF-8 sequences.
        const CHARS: &[char] =
            &['a', 'Z', '0', ' ', '_', '-', 'é', 'ß', 'Ω', '日', '本', '€', '😀'];
        match rng.below(4) {
            0 => Value::Null,
            1 => Value::Int(rng.next_u64() as i64),
            // Raw bit patterns: exercises NaN payloads, infinities, subnormals.
            2 => Value::Float(f64::from_bits(rng.next_u64())),
            _ => {
                let len = rng.below(41) as usize;
                Value::Str(
                    (0..len).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect(),
                )
            }
        }
    }

    #[test]
    fn prop_encoded_eval_matches_decoded_eval() {
        use crate::sarg::CompareOp;
        let mut rng = SplitMix64::new(0xC0DE_0002);
        let ops = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        let pred = |rng: &mut SplitMix64, col: usize| SargPred {
            col,
            op: ops[rng.below(6) as usize],
            value: arb_value(rng),
        };
        for case in 0..4096u64 {
            let n_values = rng.below(6) as usize;
            let t = Tuple::new((0..n_values).map(|_| arb_value(&mut rng)).collect());
            let bytes = tuple_bytes(&t);
            // 1–4 factors whose columns (sometimes out of range) arrive in
            // descending or repeated order, so the walk must reorder them
            // and read behind itself; each is a one-predicate conjunction,
            // a right-to-left conjunction, or an OR over random columns.
            // Comparison values include NULLs and multi-byte strings.
            let mut col = rng.below(7) as usize;
            let factors: Vec<SargExpr> = (0..1 + rng.below(4))
                .map(|_| {
                    col = col.saturating_sub(rng.below(2) as usize);
                    let disjuncts = match rng.below(3) {
                        0 => vec![vec![pred(&mut rng, col)]],
                        1 => vec![vec![pred(&mut rng, col), pred(&mut rng, col / 2)]],
                        _ => (0..rng.below(4))
                            .map(|_| {
                                (0..1 + rng.below(2))
                                    .map(|_| {
                                        let col = rng.below(7) as usize;
                                        pred(&mut rng, col)
                                    })
                                    .collect()
                            })
                            .collect(),
                    };
                    SargExpr { disjuncts }
                })
                .collect();
            let sargs = SargList { factors };
            let eval = EncodedEval::for_sargs(&sargs);
            assert_eq!(
                eval.matches(&bytes, &sargs).unwrap(),
                sargs.eval(&t),
                "case {case}: sargs {sargs:?} on {t:?}"
            );
        }
    }

    #[test]
    fn encoded_eval_rejects_corrupt_referenced_prefix() {
        use crate::sarg::CompareOp;
        let t = tuple!["SMITH", 1, "DENVER"];
        let bytes = tuple_bytes(&t);
        let name_end = 2 + 1 + 2 + "SMITH".len();
        let int_end = name_end + 1 + 8;
        // Listed right to left, tested left to right: `c1 = 999` rejects
        // before `c2` is read.
        let sargs = SargList {
            factors: vec![
                SargExpr::single(SargPred::new(2, CompareOp::Eq, "DENVER")),
                SargExpr::single(SargPred::new(1, CompareOp::Eq, 999i64)),
            ],
        };
        let eval = EncodedEval::for_sargs(&sargs);
        assert!(!eval.matches(&bytes, &sargs).unwrap());
        // Truncation inside the columns the rejecting factor reads
        // (skipped column 0, compared column 1) is an error...
        for cut in [name_end - 1, int_end - 1] {
            assert!(eval.matches(&bytes[..cut], &sargs).is_err(), "cut at {cut}");
        }
        // ...bytes past the rejecting column are never read: a bad tag,
        // invalid UTF-8 or a truncated column 2 still gives Ok(false)...
        let mut bad_tag = bytes.clone();
        bad_tag[int_end] = 9;
        let mut bad_utf8 = bytes.clone();
        bad_utf8[int_end + 3] = 0xFF;
        for garbled in [&bad_tag[..], &bad_utf8[..], &bytes[..int_end + 2]] {
            assert!(!eval.matches(garbled, &sargs).unwrap());
        }
        // ...while a factor that reads column 2 does see the damage.
        let loc: SargList = SargExpr::single(SargPred::new(2, CompareOp::Eq, "DENVER")).into();
        let loc_eval = EncodedEval::for_sargs(&loc);
        assert!(loc_eval.matches(&bad_utf8, &loc).is_err());
        // An accepted tuple still goes through `decode_tuple`, which
        // checks every byte: trailing garbage the SARG never read is
        // caught there.
        assert!(loc_eval.matches(&bytes, &loc).unwrap());
        assert_eq!(decode_tuple(&bytes).unwrap(), t);
        let mut trailing = bytes.clone();
        trailing.push(0xFF);
        assert!(loc_eval.matches(&trailing, &loc).unwrap());
        assert!(decode_tuple(&trailing).is_err());
    }

    #[test]
    fn prop_roundtrip() {
        let mut rng = SplitMix64::new(0xC0DE_0001);
        for case in 0..512u64 {
            let n_values = rng.below(12) as usize;
            let values: Vec<Value> = (0..n_values).map(|_| arb_value(&mut rng)).collect();
            let t = Tuple::new(values);
            let bytes = tuple_bytes(&t);
            assert_eq!(bytes.len(), t.encoded_size(), "case {case}");
            let back = decode_tuple(&bytes).unwrap();
            // NaN payloads survive because floats roundtrip via bits; use
            // the total-order Eq on Value.
            assert_eq!(back, t, "case {case}");
        }
    }
}
