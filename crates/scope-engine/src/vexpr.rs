//! Vectorized expression evaluation over [`RecordBatch`]es.
//!
//! The expression tree is walked **once per batch**; each node produces a
//! whole column (or a constant). Hot patterns — typed column vs. literal
//! comparisons, integer arithmetic, boolean three-valued logic — run as
//! tight loops over the typed vectors; everything else falls through to a
//! generic per-element loop that calls the scalar kernels
//! ([`eval_unary`] / [`eval_binary`] / [`eval_func`]) so the scalar
//! semantics are shared with [`Expr::eval`], not reimplemented.
//!
//! # Equivalence contract
//!
//! [`Expr::eval`], the scalar reference, skips an `AND`/`OR` right operand
//! on each row the left operand decides. The batch evaluator skips it when
//! the left decides *every* row, so over a one-row slice it *is* the
//! reference, value for value and error for error. Over a wider batch it
//! evaluates a superset of the reference's elements with the same kernels:
//! it fails whenever the reference would, and may also fail on a row the
//! reference skipped. So when a batch pass fails, the entry points run the
//! evaluator again on one-row slices ([`RecordBatch::take`]), in row order
//! and row-major over a projection's expressions. The first slice that
//! fails gives the reference's first error after the same selection prefix;
//! when none fails, the slices' values are the reference's.

use scope_common::{Result, ScopeError};
use scope_plan::types::int_float_cmp;
use scope_plan::{
    eval_binary, eval_func, eval_unary, BinOp, Cell, Expr, NamedExpr, ScalarFunc, UnaryOp, Value,
};

use crate::data::{Column, ColumnVector, NullMask, RecordBatch};

/// An evaluated expression over one batch: a column, or one constant that
/// stands for every row (literals and recurring parameters stay scalar).
enum Ev {
    /// A bare column reference stays as the batch holds it, so a projection
    /// that only renames hands a deferred column on unread; kernels that
    /// compute on it read [`Column::dense`].
    Col(Column),
    Const(Value),
}

impl Ev {
    fn value_at(&self, i: usize) -> Value {
        match self {
            Ev::Col(c) => c.dense().value(i),
            Ev::Const(v) => v.clone(),
        }
    }

    fn cells(cells: ColumnVector) -> Ev {
        Ev::Col(cells.into())
    }

    fn into_column(self, rows: usize) -> Column {
        match self {
            Ev::Col(c) => c,
            Ev::Const(v) => ColumnVector::from_values(vec![v; rows]).into(),
        }
    }
}

/// Evaluates `pred` over the batch and returns the selection vector: the
/// indices (in order) of rows where the predicate is `Bool(true)`, up to the
/// first row whose evaluation errors, and that error (`Ok` when no row
/// errors and the selection covers the whole batch). An Extract scan runs
/// its extractor over the rows before the error first, so an extractor
/// error on an earlier row is the one reported.
///
/// Exactly what [`Expr::eval`] row by row gives: the rows where `pred` is
/// `Bool(true)`, stopping at the first row that fails (see the module docs
/// for why the one-row re-run is exact).
pub(crate) fn eval_predicate_selection(pred: &Expr, batch: &RecordBatch) -> (Vec<u32>, Result<()>) {
    let rows = batch.num_rows() as u32;
    if rows == 0 {
        return (Vec::new(), Ok(()));
    }
    if let Some((col, op, k)) = col_cmp_const(pred, batch.width()) {
        // Read where the column lies: no cell copied, no boolean column
        // built. A comparison with NULL holds nowhere and never fails.
        let (col, k) = (batch.locate(col, 0..rows as usize), Cell::of(k));
        let holds = |c: Cell<'_>| !c.is_null() && !k.is_null() && cmp_holds(op, c.cmp_cell(k));
        let mut sel = Vec::with_capacity(rows as usize);
        sel.extend((0..rows).filter(|&i| holds(col.cell(i as usize))));
        return (sel, Ok(()));
    }
    let sel = match eval_ev(pred, batch) {
        Ok(Ev::Const(v)) if v.is_true() => (0..rows).collect(),
        Ok(Ev::Const(_)) => Vec::new(),
        Ok(Ev::Col(col)) => {
            let col = col.dense();
            let mut sel = Vec::with_capacity(rows as usize);
            sel.extend((0..rows).filter(|&i| matches!(col.cell(i as usize), Cell::Bool(true))));
            sel
        }
        Err(_) => {
            let mut sel = Vec::new();
            for i in 0..rows {
                match eval_ev(pred, &batch.take(&[i])) {
                    Ok(ev) if ev.value_at(0).is_true() => sel.push(i),
                    Ok(_) => {}
                    Err(e) => return (sel, Err(e)),
                }
            }
            sel
        }
    };
    (sel, Ok(()))
}

/// Evaluates a projection list over the batch, one output column per
/// expression. Equivalent to evaluating each expression per row in
/// row-major order: a failed batch pass is re-run one row at a time, so the
/// reference's first error is the one reported.
pub(crate) fn eval_exprs(exprs: &[NamedExpr], batch: &RecordBatch) -> Result<Vec<Column>> {
    let rows = batch.num_rows();
    if rows == 0 {
        return Ok(exprs
            .iter()
            .map(|_| ColumnVector::Mixed(Vec::new()).into())
            .collect());
    }
    let batched: Result<Vec<Column>> = exprs
        .iter()
        .map(|e| Ok(eval_ev(&e.expr, batch)?.into_column(rows)))
        .collect();
    if batched.is_ok() {
        return batched;
    }
    let mut cols: Vec<Vec<Value>> = exprs.iter().map(|_| Vec::with_capacity(rows)).collect();
    for i in 0..rows as u32 {
        let row = batch.take(&[i]);
        for (col, e) in cols.iter_mut().zip(exprs) {
            col.push(eval_ev(&e.expr, &row)?.value_at(0));
        }
    }
    Ok(cols
        .into_iter()
        .map(|c| ColumnVector::from_values(c).into())
        .collect())
}

/// `pred` as `col OP const` over a column the batch has, the constant on
/// the right.
fn col_cmp_const(pred: &Expr, width: usize) -> Option<(usize, BinOp, &Value)> {
    let Expr::Binary { op, left, right } = pred else {
        return None;
    };
    let (col, op, k) = match (&**left, &**right) {
        (Expr::Col(i), k) => (*i, *op, k),
        (k, Expr::Col(i)) => (*i, flip_cmp(*op), k),
        _ => return None,
    };
    match k {
        Expr::Lit(k) | Expr::RecurringParam { value: k, .. } if is_cmp(op) && col < width => {
            Some((col, op, k))
        }
        _ => None,
    }
}

fn col_oob(i: usize, width: usize) -> ScopeError {
    ScopeError::Expression(format!("column {i} out of range (row width {width})"))
}

fn eval_ev(expr: &Expr, batch: &RecordBatch) -> Result<Ev> {
    let rows = batch.num_rows();
    match expr {
        Expr::Col(i) => {
            if *i >= batch.width() {
                return Err(col_oob(*i, batch.width()));
            }
            Ok(Ev::Col(batch.columns()[*i].clone()))
        }
        Expr::Lit(v) => Ok(Ev::Const(v.clone())),
        Expr::RecurringParam { value, .. } => Ok(Ev::Const(value.clone())),
        Expr::Unary { op, child } => {
            let c = eval_ev(child, batch)?;
            eval_unary_ev(*op, c, rows)
        }
        Expr::Binary { op, left, right } => {
            let l = eval_ev(left, batch)?;
            // The scalar reference skips the right operand on every row the
            // left decides; when the left decides them all, so do we.
            if matches!(op, BinOp::And | BinOp::Or) {
                let decisive = Value::Bool(*op == BinOp::Or);
                if (0..rows).all(|i| l.value_at(i) == decisive) {
                    return Ok(Ev::Const(decisive));
                }
            }
            let r = eval_ev(right, batch)?;
            eval_binary_ev(*op, l, r, rows)
        }
        Expr::Func { func, args } => {
            let evs: Vec<Ev> = args
                .iter()
                .map(|a| eval_ev(a, batch))
                .collect::<Result<_>>()?;
            if evs.iter().all(|e| matches!(e, Ev::Const(_))) {
                let vals: Vec<Value> = evs.iter().map(|e| e.value_at(0)).collect();
                return Ok(Ev::Const(eval_func(*func, &vals)?));
            }
            if let (ScalarFunc::Least | ScalarFunc::Greatest, [a, b]) = (func, &evs[..]) {
                let least = *func == ScalarFunc::Least;
                if let Some(out) = float_pick(least, a, b, rows) {
                    return Ok(Ev::cells(out));
                }
            }
            let mut out = Vec::with_capacity(rows);
            let mut scratch: Vec<Value> = Vec::with_capacity(evs.len());
            for i in 0..rows {
                scratch.clear();
                scratch.extend(evs.iter().map(|e| e.value_at(i)));
                out.push(eval_func(*func, &scratch)?);
            }
            Ok(Ev::cells(ColumnVector::from_values(out)))
        }
    }
}

fn eval_unary_ev(op: UnaryOp, child: Ev, rows: usize) -> Result<Ev> {
    match child {
        Ev::Const(v) => Ok(Ev::Const(eval_unary(op, v)?)),
        Ev::Col(col) => {
            // Typed fast paths.
            match (op, col.dense()) {
                (UnaryOp::IsNull, c) => {
                    let data: Vec<bool> = (0..rows).map(|i| c.is_null(i)).collect();
                    return Ok(Ev::cells(ColumnVector::Bool { data, nulls: None }));
                }
                (UnaryOp::Not, ColumnVector::Bool { data, nulls }) => {
                    return Ok(Ev::cells(ColumnVector::Bool {
                        data: data.iter().map(|b| !b).collect(),
                        nulls: nulls.clone(),
                    }));
                }
                (UnaryOp::Neg, ColumnVector::Int { data, nulls }) => {
                    return Ok(Ev::cells(ColumnVector::Int {
                        data: data.iter().map(|i| i.wrapping_neg()).collect(),
                        nulls: nulls.clone(),
                    }));
                }
                (UnaryOp::Neg, ColumnVector::Float { data, nulls }) => {
                    return Ok(Ev::cells(ColumnVector::Float {
                        data: data.iter().map(|f| -f).collect(),
                        nulls: nulls.clone(),
                    }));
                }
                _ => {}
            }
            let mut out = Vec::with_capacity(rows);
            for i in 0..rows {
                out.push(eval_unary(op, col.dense().value(i))?);
            }
            Ok(Ev::cells(ColumnVector::from_values(out)))
        }
    }
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

fn cmp_holds(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => !ord.is_eq(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("cmp_holds on non-comparison"),
    }
}

/// Mirrors a comparison so `const OP col` can reuse the `col OP const`
/// kernels: `a < b  ⟺  b > a`, etc.
fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other, // Eq / Ne are symmetric
    }
}

fn eval_binary_ev(op: BinOp, l: Ev, r: Ev, rows: usize) -> Result<Ev> {
    // Const ⊗ Const: one scalar evaluation covers every row.
    if let (Ev::Const(a), Ev::Const(b)) = (&l, &r) {
        return Ok(Ev::Const(eval_binary(op, a.clone(), b.clone())?));
    }

    // Typed fast paths.
    if is_cmp(op) {
        match (&l, &r) {
            (Ev::Col(c), Ev::Const(k)) => {
                if let Some(out) = cmp_col_const(op, c.dense(), k, rows) {
                    return Ok(Ev::cells(out));
                }
            }
            (Ev::Const(k), Ev::Col(c)) => {
                if let Some(out) = cmp_col_const(flip_cmp(op), c.dense(), k, rows) {
                    return Ok(Ev::cells(out));
                }
            }
            _ => {}
        }
    }
    if matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
    ) {
        if let Some(out) = num_arith(op, &l, &r, rows) {
            return Ok(Ev::cells(out));
        }
    }
    if matches!(op, BinOp::And | BinOp::Or) {
        if let Some(out) = bool_logic(op, &l, &r, rows) {
            return Ok(Ev::cells(out));
        }
    }

    // Generic per-element path: same scalar kernel as the row executor,
    // including its per-row AND/OR short-circuit.
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let lv = l.value_at(i);
        match op {
            BinOp::And if lv == Value::Bool(false) => {
                out.push(Value::Bool(false));
                continue;
            }
            BinOp::Or if lv == Value::Bool(true) => {
                out.push(Value::Bool(true));
                continue;
            }
            _ => {}
        }
        out.push(eval_binary(op, lv, r.value_at(i))?);
    }
    Ok(Ev::cells(ColumnVector::from_values(out)))
}

/// `col OP const` comparisons on matching concrete types. Returns `None`
/// when no fast kernel applies (the generic path takes over).
fn cmp_col_const(op: BinOp, col: &ColumnVector, k: &Value, rows: usize) -> Option<ColumnVector> {
    // NULL literal: every comparison is NULL.
    if k.is_null() {
        return Some(ColumnVector::Bool {
            data: vec![false; rows],
            nulls: Some(vec![true; rows]),
        });
    }
    macro_rules! kernel {
        ($data:expr, $nulls:expr, $k:expr, $cmp:expr) => {{
            let data: Vec<bool> = $data.iter().map(|v| cmp_holds(op, $cmp(v, $k))).collect();
            Some(ColumnVector::Bool {
                data,
                nulls: $nulls.clone(),
            })
        }};
    }
    match (col, k) {
        (ColumnVector::Int { data, nulls }, Value::Int(k)) => {
            kernel!(data, nulls, k, |v: &i64, k: &i64| v.cmp(k))
        }
        (ColumnVector::Date { data, nulls }, Value::Date(k)) => {
            kernel!(data, nulls, k, |v: &i32, k: &i32| v.cmp(k))
        }
        (ColumnVector::Str { data, nulls }, Value::Str(k)) => {
            // Each dictionary entry compared once, each row mapped through.
            let o: Vec<_> = data.dict.iter().map(|v| v.cmp(k)).collect();
            kernel!(data.codes, nulls, &o, |&c: &u32, o: &Vec<_>| o[c as usize])
        }
        (ColumnVector::Float { data, nulls }, Value::Float(k)) => {
            kernel!(data, nulls, k, |v: &f64, k: &f64| v.total_cmp(k))
        }
        // Cross-numeric (Int col vs Float literal and vice versa) follows the
        // Value total order, which compares the two exactly.
        (ColumnVector::Int { data, nulls }, Value::Float(k)) => {
            kernel!(data, nulls, k, |v: &i64, k: &f64| int_float_cmp(*v, *k))
        }
        (ColumnVector::Float { data, nulls }, Value::Int(k)) => {
            kernel!(data, nulls, k, |v: &f64, k: &i64| int_float_cmp(*k, *v)
                .reverse())
        }
        _ => None,
    }
}

/// A number of a typed numeric operand.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

/// An `Int` or `Float` column, or a constant of either type: an operand the
/// numeric kernels read row by row.
enum NumSide<'a> {
    Ints(&'a [i64], &'a Option<NullMask>),
    Floats(&'a [f64], &'a Option<NullMask>),
    Const(Num),
}

impl NumSide<'_> {
    fn of(e: &Ev) -> Option<NumSide<'_>> {
        Some(match e {
            Ev::Const(Value::Int(k)) => NumSide::Const(Num::Int(*k)),
            Ev::Const(Value::Float(k)) => NumSide::Const(Num::Float(*k)),
            Ev::Col(c) => match c.dense() {
                ColumnVector::Int { data, nulls } => NumSide::Ints(data, nulls),
                ColumnVector::Float { data, nulls } => NumSide::Floats(data, nulls),
                _ => return None,
            },
            Ev::Const(_) => return None,
        })
    }

    fn get(&self, i: usize) -> Option<Num> {
        let null = |n: &Option<NullMask>| n.as_ref().is_some_and(|m| m[i]);
        match self {
            NumSide::Const(k) => Some(*k),
            NumSide::Ints(d, n) => (!null(n)).then(|| Num::Int(d[i])),
            NumSide::Floats(d, n) => (!null(n)).then(|| Num::Float(d[i])),
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, NumSide::Ints(..) | NumSide::Const(Num::Int(_)))
    }
}

/// Arithmetic over numeric operands, exactly the scalar `arith`: `Int ⊗
/// Int` stays `Int` (Div yields `Float`), every other pair computes in
/// `f64`; x/0 and x%0 are NULL, as is any NULL operand.
fn num_arith(op: BinOp, l: &Ev, r: &Ev, rows: usize) -> Option<ColumnVector> {
    let (a, b) = (NumSide::of(l)?, NumSide::of(r)?);
    let ints = a.is_int() && b.is_int() && op != BinOp::Div;
    let (mut int_data, mut float_data) = (Vec::new(), Vec::new());
    let mut nulls: NullMask = Vec::with_capacity(rows);
    for i in 0..rows {
        let out = match (a.get(i), b.get(i)) {
            (Some(Num::Int(x)), Some(Num::Int(y))) if ints => match op {
                BinOp::Add => Some(x.wrapping_add(y)),
                BinOp::Sub => Some(x.wrapping_sub(y)),
                BinOp::Mul => Some(x.wrapping_mul(y)),
                BinOp::Mod => (y != 0).then(|| x.rem_euclid(y)),
                _ => unreachable!("num_arith on non-arith op"),
            }
            .map(Num::Int),
            (Some(Num::Int(x)), Some(Num::Int(y))) => {
                (y != 0).then(|| Num::Float(x as f64 / y as f64))
            }
            (Some(x), Some(y)) => {
                let f = |n| match n {
                    Num::Int(i) => i as f64,
                    Num::Float(f) => f,
                };
                let (x, y) = (f(x), f(y));
                match op {
                    BinOp::Add => Some(x + y),
                    BinOp::Sub => Some(x - y),
                    BinOp::Mul => Some(x * y),
                    BinOp::Div => (y != 0.0).then(|| x / y),
                    BinOp::Mod => (y != 0.0).then(|| x.rem_euclid(y)),
                    _ => unreachable!("num_arith on non-arith op"),
                }
                .map(Num::Float)
            }
            _ => None,
        };
        nulls.push(out.is_none());
        match out {
            Some(Num::Int(x)) => int_data.push(x),
            Some(Num::Float(x)) => float_data.push(x),
            None if ints => int_data.push(0),
            None => float_data.push(0.0),
        }
    }
    let nulls = nulls.contains(&true).then_some(nulls);
    Some(match ints {
        true => ColumnVector::Int {
            data: int_data,
            nulls,
        },
        false => ColumnVector::Float {
            data: float_data,
            nulls,
        },
    })
}

/// LEAST (`least`) or GREATEST of two `Float` operands, exactly the
/// scalar: NULL when either is NULL, else the first when it is `<=` the
/// second (in total order) for LEAST, when it is not for GREATEST.
fn float_pick(least: bool, a: &Ev, b: &Ev, rows: usize) -> Option<ColumnVector> {
    let (a, b) = (NumSide::of(a)?, NumSide::of(b)?);
    if a.is_int() || b.is_int() {
        return None;
    }
    let (mut data, mut nulls) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    for i in 0..rows {
        let out = match (a.get(i), b.get(i)) {
            (Some(Num::Float(x)), Some(Num::Float(y))) => {
                Some(if x.total_cmp(&y).is_le() == least {
                    x
                } else {
                    y
                })
            }
            _ => None,
        };
        data.push(out.unwrap_or(0.0));
        nulls.push(out.is_none());
    }
    let nulls = nulls.contains(&true).then_some(nulls);
    Some(ColumnVector::Float { data, nulls })
}

/// Three-valued AND/OR over boolean columns/constants. Returns `None` when
/// either side is not boolean-typed (the generic path handles errors).
fn bool_logic(op: BinOp, l: &Ev, r: &Ev, rows: usize) -> Option<ColumnVector> {
    fn tri(e: &Ev, i: usize) -> Option<Option<bool>> {
        match e {
            Ev::Const(Value::Bool(b)) => Some(Some(*b)),
            Ev::Const(Value::Null) => Some(None),
            Ev::Const(_) => None,
            Ev::Col(c) => match c.dense() {
                ColumnVector::Bool { data, nulls } => Some(match nulls {
                    Some(m) if m[i] => None,
                    _ => Some(data[i]),
                }),
                _ => None,
            },
        }
    }
    // Reject non-boolean shapes up front (probe row 0 is not enough for
    // Mixed columns, so only typed Bool columns and Bool/Null consts pass).
    let ok = |e: &Ev| {
        matches!(e, Ev::Const(Value::Bool(_)) | Ev::Const(Value::Null))
            || matches!(e, Ev::Col(c) if matches!(c.dense(), ColumnVector::Bool { .. }))
    };
    if !ok(l) || !ok(r) {
        return None;
    }
    let mut data = Vec::with_capacity(rows);
    let mut nulls: NullMask = Vec::with_capacity(rows);
    let mut any_null = false;
    for i in 0..rows {
        let (a, b) = (tri(l, i)?, tri(r, i)?);
        let out: Option<bool> = match (op, a, b) {
            (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
            (BinOp::And, Some(true), Some(true)) => Some(true),
            (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
            (BinOp::Or, Some(false), Some(false)) => Some(false),
            _ => None,
        };
        data.push(out.unwrap_or(false));
        nulls.push(out.is_none());
        any_null |= out.is_none();
    }
    Some(ColumnVector::Bool {
        data,
        nulls: if any_null { Some(nulls) } else { None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tests::{batch_of, cells_gathered, random_rows};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn numeric_kernels_match_the_scalar_evaluator() {
        let mut rng = SmallRng::seed_from_u64(49);
        let (i, f) = (Expr::col(0), Expr::col(3));
        let operands = [
            i.clone(),
            f.clone(),
            Expr::lit(0i64),
            Expr::lit(3i64),
            Expr::lit(0.0),
            Expr::lit(-1.5),
        ];
        let mut exprs = Vec::new();
        for a in &operands[..2] {
            for b in &operands {
                for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod] {
                    let (left, right) = (Box::new(a.clone()), Box::new(b.clone()));
                    exprs.push(Expr::Binary { op, left, right });
                }
            }
            for func in [ScalarFunc::Least, ScalarFunc::Greatest] {
                for b in [&f, &operands[4], &operands[5]] {
                    exprs.push(Expr::func(func, vec![a.clone(), b.clone()]));
                    exprs.push(Expr::func(func, vec![b.clone(), a.clone()]));
                }
            }
        }
        let named: Vec<NamedExpr> = exprs
            .iter()
            .map(|e| NamedExpr::new("x", e.clone()))
            .collect();
        for _ in 0..20 {
            let (schema, rows) = random_rows(&mut rng, 64);
            let columns = eval_exprs(&named, &batch_of((schema, rows.clone()))).unwrap();
            for (e, column) in exprs.iter().zip(&columns) {
                for (r, row) in rows.iter().enumerate() {
                    let want = e.eval(row).unwrap();
                    let got = column.dense().value(r);
                    let same = got.cmp(&want).is_eq() && got.data_type() == want.data_type();
                    assert!(same, "{e:?} on {row:?}: {got:?}");
                }
            }
        }
    }

    #[test]
    fn a_column_compared_with_a_constant_is_read_where_it_lies() {
        let mut rng = SmallRng::seed_from_u64(48);
        let constants = [
            Value::Null,
            Value::Int(0),
            Value::Float(0.5),
            Value::Date(17_002),
            Value::Str("b".into()),
            Value::Bool(true),
        ];
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        for _ in 0..20 {
            let (schema, rows) = random_rows(&mut rng, 64);
            // Every other row, picked through an unread recipe.
            let idx: Vec<u32> = (0..64).step_by(2).collect();
            let batch = batch_of((schema, rows.clone())).take(&idx);
            for col in 0..batch.width() {
                for k in &constants {
                    for op in ops {
                        let (c, k) = (Expr::col(col), Expr::lit(k.clone()));
                        let binary = |left: &Expr, right: &Expr| Expr::Binary {
                            op,
                            left: Box::new(left.clone()),
                            right: Box::new(right.clone()),
                        };
                        for pred in [binary(&c, &k), binary(&k, &c)] {
                            let before = cells_gathered();
                            let (sel, stopped) = eval_predicate_selection(&pred, &batch);
                            assert_eq!(cells_gathered(), before, "{pred:?} copied cells");
                            stopped.unwrap();
                            let holds = |i: &u32| pred.eval(&rows[*i as usize]).unwrap().is_true();
                            let want: Vec<u32> = (0..idx.len() as u32)
                                .filter(|&i| holds(&idx[i as usize]))
                                .collect();
                            assert_eq!(sel, want, "{pred:?}");
                        }
                    }
                }
            }
        }
    }
}
