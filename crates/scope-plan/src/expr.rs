//! Scalar and aggregate expressions.
//!
//! Expressions evaluate row-at-a-time against a `&[Value]` input row. Two
//! details matter for the paper reproduction:
//!
//! * [`Expr::RecurringParam`] marks literals that change between recurring
//!   instances of a job (dates, run ids, window bounds). The *precise*
//!   signature hashes the parameter's current value; the *normalized*
//!   signature hashes only the parameter's name — this is exactly the
//!   normalization of paper Section 3.
//! * Every expression can feed itself into a stable hasher in either mode
//!   via [`Expr::stable_hash_into`].

use scope_common::hash::SipHasher24;
use scope_common::{Result, ScopeError};

use crate::schema::Schema;
use crate::types::{DataType, Value};

/// How an expression should be hashed into a signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HashMode {
    /// Include recurring parameter values (precise signature).
    Precise,
    /// Replace recurring parameter values by their names (normalized
    /// signature).
    Normalized,
}

/// Unary scalar operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// SQL `IS NULL`.
    IsNull,
}

/// Binary scalar operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition (numeric).
    Add,
    /// Subtraction (numeric).
    Sub,
    /// Multiplication (numeric).
    Mul,
    /// Division (numeric; x/0 is NULL).
    Div,
    /// Modulo (integer; x%0 is NULL).
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND (NULL-safe: false AND x = false).
    And,
    /// Logical OR (NULL-safe: true OR x = true).
    Or,
}

/// Built-in scalar functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ScalarFunc {
    /// Year component of a date (epoch-day / 365 for the synthetic calendar).
    Year,
    /// Month component of a date (1..=12 in the synthetic calendar).
    Month,
    /// String length.
    Len,
    /// Lowercase a string.
    Lower,
    /// Uppercase a string.
    Upper,
    /// First `n` characters: `substr(s, n)`.
    Prefix,
    /// Absolute value.
    Abs,
    /// Stable 64-bit hash of the argument (useful for sampling predicates).
    Hash64,
    /// String concatenation of all arguments.
    Concat,
    /// `if(cond, a, b)`.
    If,
    /// Minimum of two numerics.
    Least,
    /// Maximum of two numerics.
    Greatest,
}

impl ScalarFunc {
    fn name(self) -> &'static str {
        match self {
            ScalarFunc::Year => "year",
            ScalarFunc::Month => "month",
            ScalarFunc::Len => "len",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Prefix => "prefix",
            ScalarFunc::Abs => "abs",
            ScalarFunc::Hash64 => "hash64",
            ScalarFunc::Concat => "concat",
            ScalarFunc::If => "if",
            ScalarFunc::Least => "least",
            ScalarFunc::Greatest => "greatest",
        }
    }
}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// Reference to input column by position.
    Col(usize),
    /// Constant literal.
    Lit(Value),
    /// A literal that varies across recurring instances of the same job
    /// template. `name` is stable across instances ("@@startDate"), `value`
    /// is the per-instance binding.
    RecurringParam {
        /// Stable parameter name.
        name: String,
        /// Per-instance value.
        value: Value,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        child: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Built-in function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Recurring parameter (normalization strips `value`).
    pub fn param(name: impl Into<String>, v: impl Into<Value>) -> Expr {
        Expr::RecurringParam {
            name: name.into(),
            value: v.into(),
        }
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Le,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Gt,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Ge,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::And,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Or,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Add,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Mul,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self % other`.
    pub fn modulo(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinOp::Mod,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Function call.
    pub fn func(func: ScalarFunc, args: Vec<Expr>) -> Expr {
        Expr::Func { func, args }
    }

    /// Evaluates against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(i) => row.get(*i).cloned().ok_or_else(|| {
                ScopeError::Expression(format!("column {i} out of range (row width {})", row.len()))
            }),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::RecurringParam { value, .. } => Ok(value.clone()),
            Expr::Unary { op, child } => eval_unary(*op, child.eval(row)?),
            Expr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit logic ops for NULL-safety.
                match op {
                    BinOp::And if l == Value::Bool(false) => return Ok(Value::Bool(false)),
                    BinOp::Or if l == Value::Bool(true) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(*op, l, r)
            }
            Expr::Func { func, args } => {
                let vals: Result<Vec<Value>> = args.iter().map(|a| a.eval(row)).collect();
                eval_func(*func, &vals?)
            }
        }
    }

    /// Infers the output type given the input schema; used to derive
    /// operator output schemas. Returns the type NULL-agnostically.
    pub fn infer_type(&self, input: &Schema) -> Result<DataType> {
        match self {
            Expr::Col(i) => Ok(input.column(*i)?.dtype),
            Expr::Lit(v) | Expr::RecurringParam { value: v, .. } => {
                Ok(v.data_type().unwrap_or(DataType::Int))
            }
            Expr::Unary { op, child } => match op {
                UnaryOp::Not | UnaryOp::IsNull => Ok(DataType::Bool),
                UnaryOp::Neg => child.infer_type(input),
            },
            Expr::Binary { op, left, right } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    let l = left.infer_type(input)?;
                    let r = right.infer_type(input)?;
                    if l == DataType::Float || r == DataType::Float || *op == BinOp::Div {
                        Ok(DataType::Float)
                    } else {
                        Ok(l)
                    }
                }
                _ => Ok(DataType::Bool),
            },
            Expr::Func { func, args } => match func {
                ScalarFunc::Year | ScalarFunc::Month | ScalarFunc::Len => Ok(DataType::Int),
                ScalarFunc::Hash64 => Ok(DataType::Int),
                ScalarFunc::Lower | ScalarFunc::Upper | ScalarFunc::Prefix | ScalarFunc::Concat => {
                    Ok(DataType::Str)
                }
                ScalarFunc::Abs | ScalarFunc::Least | ScalarFunc::Greatest => args
                    .first()
                    .map(|a| a.infer_type(input))
                    .unwrap_or(Ok(DataType::Float)),
                ScalarFunc::If => args
                    .get(1)
                    .map(|a| a.infer_type(input))
                    .unwrap_or(Ok(DataType::Int)),
            },
        }
    }

    /// Column indices referenced anywhere in the expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) | Expr::RecurringParam { .. } => {}
            Expr::Unary { child, .. } => child.referenced_columns(out),
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Feeds the expression into a stable hasher in the given mode.
    pub fn stable_hash_into(&self, h: &mut SipHasher24, mode: HashMode) {
        match self {
            Expr::Col(i) => {
                h.write_u8(1);
                h.write_u64(*i as u64);
            }
            Expr::Lit(v) => {
                h.write_u8(2);
                v.stable_hash_into(h);
            }
            Expr::RecurringParam { name, value } => {
                h.write_u8(3);
                h.write_str(name);
                if mode == HashMode::Precise {
                    value.stable_hash_into(h);
                }
            }
            Expr::Unary { op, child } => {
                h.write_u8(4);
                h.write_u8(*op as u8);
                child.stable_hash_into(h, mode);
            }
            Expr::Binary { op, left, right } => {
                h.write_u8(5);
                h.write_u8(*op as u8);
                left.stable_hash_into(h, mode);
                right.stable_hash_into(h, mode);
            }
            Expr::Func { func, args } => {
                h.write_u8(6);
                h.write_str(func.name());
                h.write_u64(args.len() as u64);
                for a in args {
                    a.stable_hash_into(h, mode);
                }
            }
        }
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer fast-path keeps int columns int.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.rem_euclid(*b))
                }
            }
            _ => unreachable!("arith called with non-arith op"),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(ScopeError::Expression(format!("arithmetic on {l} and {r}")));
        }
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a.rem_euclid(b))
            }
        }
        _ => unreachable!("arith called with non-arith op"),
    })
}

/// Applies a unary operator to an already-evaluated operand: the one
/// definition [`Expr::eval`] and the vectorized evaluator's per-element
/// fallback share. `Neg` wraps on `i64::MIN`, like the typed column kernel.
pub fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(ScopeError::Expression(format!("NOT on {other}"))),
        },
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(i.wrapping_neg()),
            Value::Float(f) => Value::Float(-f),
            other => return Err(ScopeError::Expression(format!("NEG on {other}"))),
        },
        UnaryOp::IsNull => Value::Bool(v.is_null()),
    })
}

/// Applies a binary operator to two already-evaluated operands.
///
/// Public so vectorized evaluators can apply the exact same scalar
/// semantics element-wise; [`Expr::eval`] routes through this after its
/// short-circuit check, so per-element calls agree with row-at-a-time
/// evaluation bit for bit.
pub fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => arith(op, &l, &r),
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.cmp(&r);
            Ok(Value::Bool(match op {
                Eq => ord.is_eq(),
                Ne => !ord.is_eq(),
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        And | Or => {
            let lb = match &l {
                Value::Null => None,
                Value::Bool(b) => Some(*b),
                other => {
                    return Err(ScopeError::Expression(format!("logic on {other}")));
                }
            };
            let rb = match &r {
                Value::Null => None,
                Value::Bool(b) => Some(*b),
                other => {
                    return Err(ScopeError::Expression(format!("logic on {other}")));
                }
            };
            Ok(match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
                (And, Some(true), Some(true)) => Value::Bool(true),
                (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
                (Or, Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
    }
}

/// Applies a scalar function to already-evaluated arguments.
///
/// Public for the same reason as [`eval_binary`]: batch evaluators call it
/// per element to stay value- and error-identical with [`Expr::eval`].
pub fn eval_func(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    let need = |n: usize| -> Result<()> {
        if args.len() != n {
            Err(ScopeError::Expression(format!(
                "{} expects {n} args, got {}",
                func.name(),
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match func {
        ScalarFunc::Year => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => Value::Int(v.as_i64().unwrap_or(0).div_euclid(365)),
            })
        }
        ScalarFunc::Month => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => Value::Int(v.as_i64().unwrap_or(0).rem_euclid(365) / 31 + 1),
            })
        }
        ScalarFunc::Len => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Int(s.len() as i64),
                other => {
                    return Err(ScopeError::Expression(format!("len on {other}")));
                }
            })
        }
        ScalarFunc::Lower | ScalarFunc::Upper => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Str(if func == ScalarFunc::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }),
                other => {
                    return Err(ScopeError::Expression(format!("case on {other}")));
                }
            })
        }
        ScalarFunc::Prefix => {
            need(2)?;
            match (&args[0], &args[1]) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), n) => {
                    let n = n.as_i64().unwrap_or(0).max(0) as usize;
                    let cut = s.char_indices().nth(n).map(|(i, _)| i).unwrap_or(s.len());
                    Ok(Value::Str(s[..cut].to_string()))
                }
                (other, _) => Err(ScopeError::Expression(format!("prefix on {other}"))),
            }
        }
        ScalarFunc::Abs => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(i.wrapping_abs()),
                Value::Float(f) => Value::Float(f.abs()),
                other => {
                    return Err(ScopeError::Expression(format!("abs on {other}")));
                }
            })
        }
        ScalarFunc::Hash64 => {
            need(1)?;
            let mut h = SipHasher24::new_with_keys(0x5ca1ab1e, 0xdeadbeef);
            args[0].stable_hash_into(&mut h);
            Ok(Value::Int((h.finish() >> 1) as i64))
        }
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Null => return Ok(Value::Null),
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(out))
        }
        ScalarFunc::If => {
            need(3)?;
            Ok(if args[0].is_true() {
                args[1].clone()
            } else {
                args[2].clone()
            })
        }
        ScalarFunc::Least | ScalarFunc::Greatest => {
            need(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let pick_first = (args[0] <= args[1]) == (func == ScalarFunc::Least);
            Ok(if pick_first {
                args[0].clone()
            } else {
                args[1].clone()
            })
        }
    }
}

/// A named output expression (one column of a `Project`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NamedExpr {
    /// Output column name.
    pub name: String,
    /// The expression.
    pub expr: Expr,
}

impl NamedExpr {
    /// Builds a named expression.
    pub fn new(name: impl Into<String>, expr: Expr) -> Self {
        NamedExpr {
            name: name.into(),
            expr,
        }
    }
}

/// Aggregate functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// Row count (argument ignored).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
    /// Count of distinct values.
    CountDistinct,
}

impl AggFunc {
    /// Lowercase name for signatures and display.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::CountDistinct => "count_distinct",
        }
    }

    /// Output type given the input column type.
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Sum => input,
            AggFunc::Min | AggFunc::Max => input,
            AggFunc::Avg => DataType::Float,
        }
    }
}

/// One aggregate output column: `name = func(col)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AggExpr {
    /// Output column name.
    pub name: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column index (ignored by `Count`).
    pub input: usize,
}

impl AggExpr {
    /// Builds an aggregate expression.
    pub fn new(name: impl Into<String>, func: AggFunc, input: usize) -> Self {
        AggExpr {
            name: name.into(),
            func,
            input,
        }
    }

    /// Feeds into a stable hasher.
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        h.write_str(&self.name);
        h.write_str(self.func.name());
        h.write_u64(self.input as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Str("Hello".into()),
            Value::Float(2.5),
            Value::Null,
            Value::Bool(true),
            Value::Date(730),
        ]
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(7i64).eval(&row()).unwrap(), Value::Int(7));
        assert!(Expr::col(99).eval(&row()).is_err());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = Expr::col(0).add(Expr::lit(5i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e = Expr::col(2).mul(Expr::lit(2.0));
        assert_eq!(e.eval(&row()).unwrap(), Value::Float(5.0));
        // int / int -> float
        let e = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::lit(7i64)),
            right: Box::new(Expr::lit(2i64)),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::lit(1i64)),
            right: Box::new(Expr::lit(0i64)),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let e = Expr::lit(5i64).modulo(Expr::lit(0i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation() {
        let e = Expr::col(3).add(Expr::lit(1i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        let e = Expr::col(3).eq(Expr::lit(1i64));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::col(3);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert_eq!(
            f.clone().and(null.clone()).eval(&row()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            t.clone().or(null.clone()).eval(&row()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            t.clone().and(null.clone()).eval(&row()).unwrap(),
            Value::Null
        );
        assert_eq!(
            f.clone().or(null.clone()).eval(&row()).unwrap(),
            Value::Null
        );
        // Reversed operand order (no short-circuit path).
        assert_eq!(
            null.clone().and(f).eval(&row()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(null.or(t).eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            Expr::col(0).lt(Expr::lit(20i64)).eval(&row()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::col(1).eq(Expr::lit("Hello")).eval(&row()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::col(0).ge(Expr::lit(10i64)).eval(&row()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn string_functions() {
        let e = Expr::func(ScalarFunc::Lower, vec![Expr::col(1)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Str("hello".into()));
        let e = Expr::func(ScalarFunc::Len, vec![Expr::col(1)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(5));
        let e = Expr::func(ScalarFunc::Prefix, vec![Expr::col(1), Expr::lit(2i64)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Str("He".into()));
        let e = Expr::func(ScalarFunc::Concat, vec![Expr::col(1), Expr::lit("!")]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Str("Hello!".into()));
    }

    #[test]
    fn date_functions() {
        let e = Expr::func(ScalarFunc::Year, vec![Expr::col(5)]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(2));
        let e = Expr::func(ScalarFunc::Month, vec![Expr::lit(Value::Date(0))]);
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(1));
    }

    #[test]
    fn if_least_greatest() {
        let e = Expr::func(
            ScalarFunc::If,
            vec![Expr::col(4), Expr::lit(1i64), Expr::lit(2i64)],
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(1));
        let e = Expr::func(ScalarFunc::Least, vec![Expr::lit(3i64), Expr::lit(5i64)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(3));
        let e = Expr::func(ScalarFunc::Greatest, vec![Expr::lit(3i64), Expr::lit(5i64)]);
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
    }

    #[test]
    fn hash64_deterministic_nonnegative() {
        let e = Expr::func(ScalarFunc::Hash64, vec![Expr::col(1)]);
        let v1 = e.eval(&row()).unwrap();
        let v2 = e.eval(&row()).unwrap();
        assert_eq!(v1, v2);
        assert!(v1.as_i64().unwrap() >= 0);
    }

    #[test]
    fn wrong_arity_errors() {
        let e = Expr::func(ScalarFunc::Len, vec![]);
        assert!(e.eval(&[]).is_err());
    }

    #[test]
    fn recurring_param_eval_and_hash() {
        let p1 = Expr::param("@@date", Value::Date(100));
        let p2 = Expr::param("@@date", Value::Date(200));
        assert_eq!(p1.eval(&[]).unwrap(), Value::Date(100));
        fn h(e: &Expr, mode: HashMode) -> u64 {
            let mut s = SipHasher24::new_with_keys(0, 0);
            e.stable_hash_into(&mut s, mode);
            s.finish()
        }
        // Precise signatures differ; normalized signatures agree.
        assert_ne!(h(&p1, HashMode::Precise), h(&p2, HashMode::Precise));
        assert_eq!(h(&p1, HashMode::Normalized), h(&p2, HashMode::Normalized));
        // Different parameter names stay distinct even normalized.
        let p3 = Expr::param("@@otherDate", Value::Date(100));
        assert_ne!(h(&p1, HashMode::Normalized), h(&p3, HashMode::Normalized));
    }

    #[test]
    fn referenced_columns_collects() {
        let e = Expr::col(1)
            .add(Expr::col(3))
            .and(Expr::col(1).eq(Expr::lit(0i64)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn type_inference() {
        let s = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("f", DataType::Float),
        ]);
        assert_eq!(Expr::col(0).infer_type(&s).unwrap(), DataType::Int);
        assert_eq!(
            Expr::col(0).add(Expr::col(2)).infer_type(&s).unwrap(),
            DataType::Float
        );
        assert_eq!(
            Expr::col(0).lt(Expr::lit(1i64)).infer_type(&s).unwrap(),
            DataType::Bool
        );
        assert_eq!(
            Expr::func(ScalarFunc::Lower, vec![Expr::col(1)])
                .infer_type(&s)
                .unwrap(),
            DataType::Str
        );
    }

    #[test]
    fn agg_output_types() {
        assert_eq!(AggFunc::Count.output_type(DataType::Str), DataType::Int);
        assert_eq!(AggFunc::Sum.output_type(DataType::Float), DataType::Float);
        assert_eq!(AggFunc::Avg.output_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Min.output_type(DataType::Str), DataType::Str);
    }
}
