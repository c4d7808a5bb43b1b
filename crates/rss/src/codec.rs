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
//!
//! The module also holds the one evaluator of SARGs over these bytes,
//! `EncodedEval`: a segment scan compiles its SARG list at OPEN and
//! runs it on each slot in place, so a tuple the SARGs reject is never
//! decoded (DESIGN.md §13).

use crate::error::{RssError, RssResult};
use crate::sarg::{CompareOp, SargExpr, SargList, SargPred};
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Encode one value (tag + payload) into `out`, appending. Equal bytes
/// mean the same value; `Value`'s `Eq` is looser (`Float(2^53)` equals
/// `Int(2^53 + 1)`), so a cache of answers by value keys on these bytes.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
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

/// A compiled SARG list over encoded tuple images: the one evaluator a
/// segment scan applies to its slots.
///
/// [`EncodedEval::compile`] compiles the list once per OPEN into a flat
/// program of [`Step`]s, one per predicate. Factors are laid out in
/// ascending order of the rightmost column each reads, and the predicates
/// of a conjunction in column order, so Fig. 1's DEPT probe, listed
/// `[LOC = 'DENVER', DNO = ?]`, tests DNO first. A step holds its column,
/// the orderings its operator accepts (a 3-bit mask) and its literal,
/// typed. It names the step to run next when it holds and when it does
/// not: a false step jumps to the next disjunct of its factor or rejects,
/// and the last step of a disjunct jumps past its factor. A jump past the
/// last step accepts. Every jump goes forward. A predicate that can never
/// hold (a NULL literal, or a column no tuple can have) is dropped with
/// its conjunction at compile time; a factor left with no disjunct
/// rejects every tuple, and a factor with an empty conjunction accepts.
///
/// [`EncodedEval::matches`] runs the program over one slot's bytes. It
/// walks the encoding left to right only as far as the step under test
/// reads, length-skipping the columns it passes, and compares the column
/// in place against the literal, with [`Value::cmp`]'s semantics (NULL
/// never satisfies, Int against Float numerically, `total_cmp`): no value
/// is built. A step that reads behind the walk — a second factor on the
/// column just read, such as `K < b AND K > -n`, or a later disjunct of an
/// OR factor — starts at that column's start offset, which the walk
/// recorded as it passed it. The walk keeps the start of the column it
/// read last; a table of every column's start exists only when the layout
/// reads further back than that. Nothing is allocated per slot.
///
/// A column a step reads is fully checked (a string's bytes are UTF-8
/// checked, whatever the literal) and a column the walk passes is
/// length-skipped, so truncation or a bad tag inside the columns the
/// program reads is an error, while bytes past the last column it read
/// are never read. Rejected tuples are never materialized. Every
/// *accepted* tuple still goes through [`decode_tuple`]'s full
/// structural/UTF-8/trailing-bytes validation before it crosses the RSI,
/// so only corruption confined to tuples a SARG rejects can go unreported.
#[derive(Default)]
pub(crate) struct EncodedEval {
    steps: Vec<Step>,
    /// Where the program starts: 0, or [`REJECT`] when a factor can never
    /// hold.
    start: u32,
    /// The start offset of every column up to the last one a step reads,
    /// recorded as the walk passes it. Empty when the layout reads its
    /// columns in ascending order, so that a step reads behind the walk
    /// only on the column read last.
    starts: Vec<u32>,
}

/// One compiled predicate.
struct Step {
    col: u16,
    /// The orderings of `column <=> literal` that satisfy the operator.
    mask: u8,
    lit: Lit,
    /// The step to run next when this one holds and when it does not.
    on_true: u32,
    on_false: u32,
}

/// A step's literal, typed at compile time (a NULL literal compiles to no
/// step).
#[derive(Clone, Copy)]
enum Lit {
    Int(i64),
    Float(f64),
    /// A string literal, by the position of its predicate in the list
    /// (factor, disjunct, predicate): the program refers to it rather than
    /// copying it.
    Str(u32, u32, u32),
}

const LT: u8 = 1;
const EQ: u8 = 2;
const GT: u8 = 4;
/// The jump target that rejects the tuple.
const REJECT: u32 = u32::MAX;
/// Placeholder for the last step of a disjunct until its factor's end is
/// known.
const FACTOR_END: u32 = u32::MAX - 1;

fn op_mask(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => EQ,
        CompareOp::Ne => LT | GT,
        CompareOp::Lt => LT,
        CompareOp::Le => LT | EQ,
        CompareOp::Gt => GT,
        CompareOp::Ge => GT | EQ,
    }
}

fn ord_bit(ord: Ordering) -> u8 {
    match ord {
        Ordering::Less => LT,
        Ordering::Equal => EQ,
        Ordering::Greater => GT,
    }
}

/// The rightmost column a factor reads (0 for a trivial factor).
fn last_col(factor: &SargExpr) -> usize {
    factor.disjuncts.iter().flatten().map(|p| p.col).max().unwrap_or(0)
}

/// Whether some tuple can satisfy `pred`: its literal is not NULL and its
/// column fits a tuple's `u16` column count.
fn can_hold(pred: &SargPred) -> bool {
    !pred.value.is_null() && pred.col < usize::from(u16::MAX)
}

#[cold]
fn truncated() -> RssError {
    RssError::Corrupt("truncated tuple bytes".into())
}

#[cold]
fn unknown_tag(tag: u8) -> RssError {
    RssError::Corrupt(format!("unknown value tag {tag}"))
}

impl EncodedEval {
    /// Compile the evaluator for a fixed SARG list (the scan's own).
    #[cfg(test)]
    pub(crate) fn for_sargs(sargs: &SargList) -> Self {
        let mut eval = Self::default();
        eval.compile(sargs);
        eval
    }

    /// Recompile the evaluator for `sargs` in place, reusing the storage
    /// of the program it held: an OPEN that rebinds a probe's operands
    /// allocates nothing here once the program has reached its size.
    pub(crate) fn compile(&mut self, sargs: &SargList) {
        self.steps.clear();
        self.starts.clear();
        self.start = 0;
        self.steps.reserve_exact(sargs.factors.iter().map(SargExpr::pred_count).sum());
        // Factors in ascending (rightmost column, position) order, picked
        // by selection so that compiling allocates only the program.
        let mut prev = None;
        while let Some((col, f)) = (sargs.factors.iter().enumerate())
            .map(|(f, factor)| (last_col(factor), f))
            .filter(|&key| prev.map_or(true, |p| key > p))
            .min()
        {
            prev = Some((col, f));
            if let Some(factor) = sargs.factors.get(f) {
                if !self.push_factor(f, factor) {
                    self.steps.clear();
                    self.start = REJECT;
                    return;
                }
            }
        }
        if !self.steps.windows(2).all(|w| matches!(w, [a, b] if a.col <= b.col)) {
            let last = self.steps.iter().map(|s| usize::from(s.col)).max().unwrap_or(0);
            self.starts.resize(last + 1, 0);
        }
    }

    /// Append the steps of factor `f`; `false` when it can never hold.
    fn push_factor(&mut self, f: usize, factor: &SargExpr) -> bool {
        if factor.disjuncts.is_empty() || factor.disjuncts.iter().any(Vec::is_empty) {
            return true;
        }
        let live = |conj: &Vec<SargPred>| conj.iter().all(can_hold);
        let mut left = factor.disjuncts.iter().filter(|conj| live(conj)).count();
        if left == 0 {
            return false;
        }
        let first = self.steps.len();
        for (d, conj) in factor.disjuncts.iter().enumerate().filter(|(_, conj)| live(conj)) {
            left -= 1;
            let start = self.steps.len();
            for (p, pred) in conj.iter().enumerate() {
                let lit = match &pred.value {
                    Value::Int(i) => Lit::Int(*i),
                    Value::Float(x) => Lit::Float(*x),
                    // A NULL literal never gets here (`can_hold`).
                    Value::Str(_) | Value::Null => Lit::Str(f as u32, d as u32, p as u32),
                };
                let (col, mask) = (pred.col as u16, op_mask(pred.op));
                self.steps.push(Step { col, mask, lit, on_true: 0, on_false: 0 });
            }
            let end = self.steps.len() as u32;
            let on_false = if left == 0 { REJECT } else { end };
            let block = self.steps.get_mut(start..).unwrap_or_default();
            block.sort_by_key(|s| s.col);
            for (pc, step) in (start as u32 + 1..).zip(block) {
                step.on_true = if pc == end { FACTOR_END } else { pc };
                step.on_false = on_false;
            }
        }
        let end = self.steps.len() as u32;
        for step in self.steps.get_mut(first..).unwrap_or_default() {
            if step.on_true == FACTOR_END {
                step.on_true = end;
            }
        }
        true
    }

    /// Whether the encoded tuple satisfies every factor of `sargs`, which
    /// must be the list this evaluator was compiled from (string literals
    /// are read from it).
    #[inline]
    pub(crate) fn matches(&mut self, bytes: &[u8], sargs: &SargList) -> RssResult<bool> {
        let mut pc = self.start;
        if self.steps.is_empty() {
            return Ok(pc != REJECT);
        }
        let ncols = usize::from(u16::from_le_bytes(*bytes.first_chunk().ok_or_else(truncated)?));
        // The walk: column `next` starts at byte `pos`, and column
        // `next - 1` at byte `last`.
        let (mut pos, mut next, mut last) = (2, 0, 2);
        while let Some(step) = self.steps.get(pc as usize) {
            let col = usize::from(step.col);
            let holds = if col >= ncols {
                false
            } else if col < next {
                let at = match self.starts.get(col) {
                    _ if col + 1 == next => last,
                    Some(&at) => at as usize,
                    None => {
                        return Err(RssError::Corrupt(format!(
                            "SARG program read column {col} behind its walk"
                        )))
                    }
                };
                compare(bytes, at, step, sargs)?.0
            } else {
                while next < col {
                    if let Some(at) = self.starts.get_mut(next) {
                        *at = pos as u32;
                    }
                    pos = skip(bytes, pos)?;
                    next += 1;
                }
                if let Some(at) = self.starts.get_mut(col) {
                    *at = pos as u32;
                }
                let (holds, end) = compare(bytes, pos, step, sargs)?;
                (last, pos, next) = (pos, end, col + 1);
                holds
            };
            pc = if holds { step.on_true } else { step.on_false };
        }
        Ok(pc != REJECT)
    }
}

/// Test `step` against the column whose tag is at byte `at`: whether it
/// holds, and where the column ends. Mirrors [`Value::cmp`] with NULL
/// never satisfying: numbers compare across the Int/Float divide (NaN via
/// `total_cmp`) and sort before strings. An Int or Float column is one
/// 8-byte load and one compare, inline; a NULL or string column, and
/// damage, take [`compare_rest`].
#[inline(always)]
fn compare(bytes: &[u8], at: usize, step: &Step, sargs: &SargList) -> RssResult<(bool, usize)> {
    let Some(&[tag @ (TAG_INT | TAG_FLOAT), ref word @ ..]) =
        bytes.get(at..).and_then(<[u8]>::first_chunk::<9>)
    else {
        return compare_rest(bytes, at, step, sargs);
    };
    let bits = u64::from_le_bytes(*word);
    let ord = match step.lit {
        Lit::Int(b) if tag == TAG_INT => (bits as i64).cmp(&b),
        Lit::Int(b) => f64::from_bits(bits).total_cmp(&(b as f64)),
        Lit::Float(b) if tag == TAG_INT => (bits as i64 as f64).total_cmp(&b),
        Lit::Float(b) => f64::from_bits(bits).total_cmp(&b),
        Lit::Str(..) => Ordering::Less,
    };
    Ok((step.mask & ord_bit(ord) != 0, at + 9))
}

/// [`compare`] for a NULL or string column, and for a bad tag or
/// truncated bytes.
#[inline(never)]
fn compare_rest(
    bytes: &[u8],
    at: usize,
    step: &Step,
    sargs: &SargList,
) -> RssResult<(bool, usize)> {
    match bytes.get(at) {
        Some(&TAG_NULL) => Ok((false, at + 1)),
        Some(&TAG_STR) => {
            let len = bytes.get(at + 1..).and_then(<[u8]>::first_chunk).ok_or_else(truncated)?;
            let end = at + 3 + usize::from(u16::from_le_bytes(*len));
            let raw = bytes.get(at + 3..end).ok_or_else(truncated)?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| RssError::Corrupt("invalid utf-8 in string column".into()))?;
            let ord = match step.lit {
                Lit::Str(f, d, p) => {
                    let lit = (sargs.factors.get(f as usize))
                        .and_then(|factor| factor.disjuncts.get(d as usize)?.get(p as usize))
                        .and_then(|pred| pred.value.as_str())
                        .ok_or_else(|| {
                            RssError::Corrupt("SARG program and list disagree".into())
                        })?;
                    s.cmp(lit)
                }
                Lit::Int(_) | Lit::Float(_) => Ordering::Greater,
            };
            Ok((step.mask & ord_bit(ord) != 0, end))
        }
        Some(&(TAG_INT | TAG_FLOAT)) | None => Err(truncated()),
        Some(&t) => Err(unknown_tag(t)),
    }
}

/// The end of the column whose tag is at byte `at`, without validating
/// its payload (a string's bytes are length-skipped, not UTF-8 checked —
/// [`decode_tuple`] performs the full check on every tuple that is
/// actually returned).
#[inline(always)]
fn skip(bytes: &[u8], at: usize) -> RssResult<usize> {
    let end = match bytes.get(at) {
        Some(&TAG_NULL) => at + 1,
        Some(&(TAG_INT | TAG_FLOAT)) => at + 9,
        Some(&TAG_STR) => match bytes.get(at + 1..).and_then(<[u8]>::first_chunk) {
            Some(len) => at + 3 + usize::from(u16::from_le_bytes(*len)),
            None => return Err(truncated()),
        },
        Some(&t) => return Err(unknown_tag(t)),
        None => return Err(truncated()),
    };
    if end > bytes.len() {
        return Err(truncated());
    }
    Ok(end)
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
            let mut eval = EncodedEval::for_sargs(&sargs);
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
        let mut eval = EncodedEval::for_sargs(&sargs);
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
        let mut loc_eval = EncodedEval::for_sargs(&loc);
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
