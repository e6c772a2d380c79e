//! Concrete expression evaluation over a valuation.

use crate::error::EvalError;
use crate::expr::{BinOp, Expr, VarId};
use crate::value::Value;

/// A valuation `ν : Var → V` assigning a value to every variable of the
/// network, indexed by [`VarId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Valuation {
    values: Vec<Value>,
}

impl Valuation {
    /// Creates a valuation from a vector of values (one per variable, in
    /// [`VarId`] order).
    pub fn new(values: Vec<Value>) -> Self {
        Valuation { values }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the valuation holds no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads variable `v`.
    ///
    /// # Errors
    /// [`EvalError::BadVarIndex`] when `v` is out of range.
    pub fn get(&self, v: VarId) -> Result<Value, EvalError> {
        self.values.get(v.0).copied().ok_or(EvalError::BadVarIndex(v.0))
    }

    /// Writes variable `v`.
    ///
    /// # Errors
    /// [`EvalError::BadVarIndex`] when `v` is out of range.
    pub fn set(&mut self, v: VarId, value: Value) -> Result<(), EvalError> {
        match self.values.get_mut(v.0) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(EvalError::BadVarIndex(v.0)),
        }
    }

    /// Writes variable `v` and returns the value it held.
    ///
    /// # Errors
    /// [`EvalError::BadVarIndex`] when `v` is out of range.
    pub fn replace(&mut self, v: VarId, value: Value) -> Result<Value, EvalError> {
        match self.values.get_mut(v.0) {
            Some(slot) => Ok(std::mem::replace(slot, value)),
            None => Err(EvalError::BadVarIndex(v.0)),
        }
    }

    /// Iterates over `(VarId, Value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.values.iter().enumerate().map(|(i, v)| (VarId(i), *v))
    }

    /// Raw slice of values.
    pub fn as_slice(&self) -> &[Value] {
        &self.values
    }

    /// Replaces the contents with a copy of `other`, reusing the buffer
    /// (no allocation once capacities match).
    pub fn copy_from(&mut self, other: &Valuation) {
        self.values.clear();
        self.values.extend_from_slice(&other.values);
    }
}

impl FromIterator<Value> for Valuation {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Valuation::new(iter.into_iter().collect())
    }
}

/// Evaluates `expr` under valuation `nu`.
///
/// Numeric operators coerce `int` to `real` when operand kinds are mixed;
/// `int op int` stays exact (checked for overflow).
///
/// # Errors
/// Returns [`EvalError`] on division by zero, overflow, dynamic type
/// confusion (prevented for validated models) or bad variable indices.
pub fn eval(expr: &Expr, nu: &Valuation) -> Result<Value, EvalError> {
    match expr {
        Expr::Const(v) => Ok(*v),
        Expr::Var(v) => nu.get(*v),
        Expr::Not(e) => Ok(Value::Bool(!eval(e, nu)?.as_bool()?)),
        Expr::Neg(e) => match eval(e, nu)? {
            Value::Int(i) => i.checked_neg().map(Value::Int).ok_or(EvalError::Overflow),
            Value::Real(r) => Ok(Value::Real(-r)),
            v => Err(EvalError::TypeConfusion { context: format!("negating {v}") }),
        },
        Expr::Bin(op, a, b) => {
            // Short-circuit logical operators first.
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(eval(a, nu)?.as_bool()? && eval(b, nu)?.as_bool()?))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(eval(a, nu)?.as_bool()? || eval(b, nu)?.as_bool()?))
                }
                BinOp::Implies => {
                    return Ok(Value::Bool(!eval(a, nu)?.as_bool()? || eval(b, nu)?.as_bool()?))
                }
                BinOp::Xor => {
                    return Ok(Value::Bool(eval(a, nu)?.as_bool()? ^ eval(b, nu)?.as_bool()?))
                }
                _ => {}
            }
            let va = eval(a, nu)?;
            let vb = eval(b, nu)?;
            eval_bin(*op, va, vb)
        }
        Expr::Ite(c, t, e) => {
            if eval(c, nu)?.as_bool()? {
                eval(t, nu)
            } else {
                eval(e, nu)
            }
        }
    }
}

/// Evaluates `expr` and requires a Boolean result.
///
/// # Errors
/// Propagates [`eval`] errors; additionally fails if the result is numeric.
pub fn eval_bool(expr: &Expr, nu: &Valuation) -> Result<bool, EvalError> {
    eval(expr, nu)?.as_bool()
}

/// Evaluates `expr` and requires a numeric result, returned as `f64`.
///
/// # Errors
/// Propagates [`eval`] errors; additionally fails if the result is Boolean.
pub fn eval_real(expr: &Expr, nu: &Valuation) -> Result<f64, EvalError> {
    eval(expr, nu)?.as_real()
}

pub(crate) fn eval_bin(op: BinOp, va: Value, vb: Value) -> Result<Value, EvalError> {
    if op.is_comparison() {
        return eval_cmp(op, va, vb);
    }
    debug_assert!(op.is_arithmetic());
    match (va, vb) {
        (Value::Int(x), Value::Int(y)) if op != BinOp::Div => {
            let r = match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                BinOp::Mul => x.checked_mul(y),
                BinOp::Min => Some(x.min(y)),
                BinOp::Max => Some(x.max(y)),
                _ => unreachable!("div handled below, logical handled by caller"),
            };
            r.map(Value::Int).ok_or(EvalError::Overflow)
        }
        (a, b) => {
            let x = a.as_real()?;
            let y = b.as_real()?;
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    x / y
                }
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => unreachable!(),
            };
            Ok(Value::Real(r))
        }
    }
}

fn eval_cmp(op: BinOp, va: Value, vb: Value) -> Result<Value, EvalError> {
    // Boolean equality.
    if let (Value::Bool(a), Value::Bool(b)) = (va, vb) {
        return match op {
            BinOp::Eq => Ok(Value::Bool(a == b)),
            BinOp::Ne => Ok(Value::Bool(a != b)),
            _ => Err(EvalError::TypeConfusion { context: format!("{a} {} {b}", op.symbol()) }),
        };
    }
    let x = va.as_real()?;
    let y = vb.as_real()?;
    let r = match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!(),
    };
    Ok(Value::Bool(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn nu(vals: &[Value]) -> Valuation {
        Valuation::new(vals.to_vec())
    }

    #[test]
    fn arithmetic_int_exact() {
        let v = nu(&[Value::Int(7)]);
        let e = Expr::var(VarId(0)).mul(Expr::int(6));
        assert_eq!(eval(&e, &v), Ok(Value::Int(42)));
    }

    #[test]
    fn arithmetic_mixed_coerces() {
        let v = nu(&[Value::Int(7), Value::Real(0.5)]);
        let e = Expr::var(VarId(0)).add(Expr::var(VarId(1)));
        assert_eq!(eval(&e, &v), Ok(Value::Real(7.5)));
    }

    #[test]
    fn division_always_real_and_checked() {
        let v = nu(&[]);
        assert_eq!(eval(&Expr::int(7).div(Expr::int(2)), &v), Ok(Value::Real(3.5)));
        assert_eq!(eval(&Expr::int(7).div(Expr::int(0)), &v), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn overflow_detected() {
        let v = nu(&[]);
        let e = Expr::int(i64::MAX).add(Expr::int(1));
        assert_eq!(eval(&e, &v), Err(EvalError::Overflow));
        let n = Expr::int(i64::MIN).neg();
        assert_eq!(eval(&n, &v), Err(EvalError::Overflow));
    }

    #[test]
    fn short_circuit_skips_errors() {
        // false and (1/0 = 1) must not evaluate the division.
        let v = nu(&[]);
        let bad = Expr::int(1).div(Expr::int(0)).eq(Expr::int(1));
        let e = Expr::FALSE.and(bad.clone());
        assert_eq!(eval(&e, &v), Ok(Value::Bool(false)));
        let e = Expr::TRUE.or(bad);
        assert_eq!(eval(&e, &v), Ok(Value::Bool(true)));
    }

    #[test]
    fn implication_truth_table() {
        let v = nu(&[]);
        for (a, b, want) in
            [(false, false, true), (false, true, true), (true, false, false), (true, true, true)]
        {
            let e = Expr::bool(a).implies(Expr::bool(b));
            assert_eq!(eval(&e, &v), Ok(Value::Bool(want)), "{a} => {b}");
        }
    }

    #[test]
    fn comparisons_coerce() {
        let v = nu(&[Value::Real(2.0)]);
        assert_eq!(eval_bool(&Expr::var(VarId(0)).eq(Expr::int(2)), &v), Ok(true));
        assert_eq!(eval_bool(&Expr::var(VarId(0)).lt(Expr::int(2)), &v), Ok(false));
    }

    #[test]
    fn bool_comparison_with_number_rejected() {
        let v = nu(&[Value::Bool(true)]);
        assert!(eval(&Expr::var(VarId(0)).lt(Expr::int(1)), &v).is_err());
    }

    #[test]
    fn ite_selects_branch() {
        let v = nu(&[Value::Bool(true)]);
        let e = Expr::ite(Expr::var(VarId(0)), Expr::int(1), Expr::int(2));
        assert_eq!(eval(&e, &v), Ok(Value::Int(1)));
    }

    #[test]
    fn min_max() {
        let v = nu(&[]);
        assert_eq!(eval(&Expr::int(3).min(Expr::int(5)), &v), Ok(Value::Int(3)));
        assert_eq!(eval(&Expr::real(3.0).max(Expr::int(5)), &v), Ok(Value::Real(5.0)));
    }

    #[test]
    fn valuation_accessors() {
        let mut v = nu(&[Value::Int(1), Value::Bool(false)]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        v.set(VarId(1), Value::Bool(true)).unwrap();
        assert_eq!(v.get(VarId(1)), Ok(Value::Bool(true)));
        assert!(v.get(VarId(5)).is_err());
        assert!(v.set(VarId(5), Value::Int(0)).is_err());
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs[0], (VarId(0), Value::Int(1)));
    }
}
