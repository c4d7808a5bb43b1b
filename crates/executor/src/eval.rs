//! Expression evaluation over composite rows.
//!
//! SQL-ish semantics, simplified where the paper is silent: comparisons
//! involving NULL are not satisfied (and neither are their negations —
//! three-valued logic collapses to "filter keeps only TRUE"); arithmetic
//! propagates NULL; integer division by zero is an error.

use crate::block::{BlockRt, SubValue};
use crate::error::{ExecError, ExecResult};
use crate::row::{row_value, Row};
use sysr_core::{AggCall, BExpr, SExpr};
use sysr_rss::Value;
use sysr_sql::{AggFunc, ArithOp};

/// Evaluate a scalar expression against one composite row. Aggregates are
/// rejected here — they only appear in aggregated SELECT lists, which go
/// through [`eval_grouped_sexpr`].
pub fn eval_sexpr(rt: &mut BlockRt<'_>, row: &Row, e: &SExpr) -> ExecResult<Value> {
    match e {
        SExpr::Col(c) => Ok(row_value(row, *c).cloned().unwrap_or(Value::Null)),
        SExpr::Outer { level, col } => rt.outer_value(*level, *col),
        SExpr::Lit(v) => Ok(v.clone()),
        SExpr::Arith { op, left, right } => {
            let l = eval_sexpr(rt, row, left)?;
            let r = eval_sexpr(rt, row, right)?;
            arith(*op, &l, &r)
        }
        SExpr::Neg(inner) => negate(eval_sexpr(rt, row, inner)?),
        SExpr::Subquery(i) => match rt.eval_subquery(*i, row)? {
            SubValue::Scalar(v) => Ok(v),
            SubValue::Set(_) => {
                Err(ExecError::Internal("set subquery used as a scalar value".into()))
            }
        },
        SExpr::Agg(_) => {
            Err(ExecError::Internal("aggregate evaluated outside an aggregated SELECT list".into()))
        }
    }
}

/// Evaluate a SELECT-list expression of an aggregated block over one
/// group: aggregate leaves compute over the group; bare columns read the
/// group's first row (they are GROUP BY columns, constant within a group).
pub fn eval_grouped_sexpr(rt: &mut BlockRt<'_>, group: &[Row], e: &SExpr) -> ExecResult<Value> {
    match e {
        SExpr::Agg(call) => eval_aggregate(rt, group, call),
        SExpr::Arith { op, left, right } => {
            let l = eval_grouped_sexpr(rt, group, left)?;
            let r = eval_grouped_sexpr(rt, group, right)?;
            arith(*op, &l, &r)
        }
        SExpr::Neg(inner) => negate(eval_grouped_sexpr(rt, group, inner)?),
        other => match group.first() {
            Some(row) => eval_sexpr(rt, row, other),
            None => {
                // Empty input with no GROUP BY: non-aggregate items are
                // literals / outer refs only (validated by the binder).
                let empty: Row = Vec::new();
                eval_sexpr(rt, &empty, other)
            }
        },
    }
}

fn eval_aggregate(rt: &mut BlockRt<'_>, group: &[Row], call: &AggCall) -> ExecResult<Value> {
    // COUNT(*) counts rows regardless of values.
    let Some(arg) = &call.arg else {
        return Ok(Value::Int(group.len() as i64));
    };
    let mut values = Vec::with_capacity(group.len());
    for row in group {
        let v = eval_sexpr(rt, row, arg)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    match call.func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Min => Ok(values.into_iter().min().unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values.into_iter().max().unwrap_or(Value::Null)),
        AggFunc::Sum => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            sum_values(&values)
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let n = values.len() as f64;
            match sum_values(&values)? {
                Value::Int(s) => Ok(Value::Float(s as f64 / n)),
                Value::Float(s) => Ok(Value::Float(s / n)),
                other => {
                    Err(ExecError::Internal(format!("SUM returned non-numeric {other} for AVG")))
                }
            }
        }
    }
}

fn sum_values(values: &[Value]) -> ExecResult<Value> {
    let mut int_sum: i64 = 0;
    let mut float_sum = 0.0;
    let mut is_float = false;
    for v in values {
        match v {
            Value::Int(i) => {
                int_sum = int_sum.wrapping_add(*i);
                float_sum += *i as f64;
            }
            Value::Float(x) => {
                is_float = true;
                float_sum += x;
            }
            other => {
                return Err(ExecError::Arithmetic(format!("cannot SUM over {other}")));
            }
        }
    }
    Ok(if is_float { Value::Float(float_sum) } else { Value::Int(int_sum) })
}

/// SQL arithmetic, for every evaluator of it (row expressions and
/// INSERT's constant VALUES alike): NULL propagates, Int ⊕ Int stays Int
/// and wraps on overflow (`i64::MIN / -1` included), any other numeric
/// pair computes in `f64`, and division by zero is an error.
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> ExecResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Ok(Value::Int(a.wrapping_add(*b))),
            ArithOp::Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            ArithOp::Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            ArithOp::Div => {
                if *b == 0 {
                    Err(ExecError::Arithmetic("division by zero".into()))
                } else {
                    Ok(Value::Int(a.wrapping_div(*b)))
                }
            }
        },
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(ExecError::Arithmetic(format!("non-numeric operands {l} {op} {r}")));
            };
            let x = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(ExecError::Arithmetic("division by zero".into()));
                    }
                    a / b
                }
            };
            Ok(Value::Float(x))
        }
    }
}

/// SQL unary minus: NULL propagates and Int wraps (`-i64::MIN` is
/// `i64::MIN`), the policy [`arith`] follows.
pub fn negate(v: Value) -> ExecResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
        Value::Float(x) => Ok(Value::Float(-x)),
        Value::Str(_) => Err(ExecError::Arithmetic("cannot negate a string".into())),
    }
}

/// Evaluate a boolean factor against one composite row (with correlation
/// context and subquery access).
pub fn eval_bexpr(rt: &mut BlockRt<'_>, row: &Row, e: &BExpr) -> ExecResult<bool> {
    Ok(match e {
        BExpr::Cmp { op, left, right } => {
            let l = eval_sexpr(rt, row, left)?;
            let r = eval_sexpr(rt, row, right)?;
            op.eval(&l, &r)
        }
        BExpr::Between { expr, low, high, negated } => {
            let v = eval_sexpr(rt, row, expr)?;
            let lo = eval_sexpr(rt, row, low)?;
            let hi = eval_sexpr(rt, row, high)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(false);
            }
            let in_range = v >= lo && v <= hi;
            in_range != *negated
        }
        BExpr::InList { expr, list, negated } => {
            let v = eval_sexpr(rt, row, expr)?;
            if v.is_null() {
                return Ok(false);
            }
            let mut found = false;
            for item in list {
                let iv = eval_sexpr(rt, row, item)?;
                if !iv.is_null() && iv == v {
                    found = true;
                    break;
                }
            }
            found != *negated
        }
        BExpr::InSubquery { expr, subquery, negated } => {
            let v = eval_sexpr(rt, row, expr)?;
            if v.is_null() {
                return Ok(false);
            }
            let set = match rt.eval_subquery(*subquery, row)? {
                SubValue::Set(s) => s,
                SubValue::Scalar(x) => std::rc::Rc::new(vec![x]),
            };
            let found = set.iter().any(|x| !x.is_null() && *x == v);
            found != *negated
        }
        BExpr::And(children) => {
            for c in children {
                if !eval_bexpr(rt, row, c)? {
                    return Ok(false);
                }
            }
            true
        }
        BExpr::Or(children) => {
            for c in children {
                if eval_bexpr(rt, row, c)? {
                    return Ok(true);
                }
            }
            false
        }
        BExpr::Not(inner) => !eval_bexpr(rt, row, inner)?,
        BExpr::Const(b) => *b,
    })
}

/// Resolve a plan operand to a concrete value.
pub fn resolve_operand(
    rt: &mut BlockRt<'_>,
    probe: Option<&Row>,
    operand: &sysr_core::Operand,
) -> ExecResult<Value> {
    use sysr_core::Operand;
    match operand {
        Operand::Lit(v) => Ok(v.clone()),
        Operand::Col(c) => probe
            .and_then(|r| row_value(r, *c))
            .cloned()
            .ok_or_else(|| ExecError::Internal(format!("probe operand {c} has no outer row"))),
        Operand::Outer { level, col } => rt.outer_value(*level, *col),
        Operand::Subquery(i) => {
            let no_row = Row::new();
            match rt.eval_subquery(*i, probe.unwrap_or(&no_row))? {
                SubValue::Scalar(v) => Ok(v),
                SubValue::Set(_) => {
                    Err(ExecError::Internal("set subquery used as probe operand".into()))
                }
            }
        }
    }
}
