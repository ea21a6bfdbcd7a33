//! Evaluation of expressions against tuple functions.
//!
//! There is one evaluator. It walks the [`Expr`] over borrowed values —
//! a stored attribute or a literal is read in place, never cloned — and
//! asks a resolver what an attribute reference reads. The by-name entry
//! points ([`eval`], [`eval_with`], [`eval_predicate`]) resolve against
//! the tuple's shape on every reference, exactly as `t('attr')` does; a
//! [`Compiled`] expression has resolved every reference to a slot of one
//! input [`Shape`] up front, so an executor compiles once per shape and
//! evaluates any number of rows of that shape ([`Slots`]) by position.
//! Computed and missing attributes, short-circuiting, function calls and
//! every error text are the same on both paths (pinned against each other
//! by this module's tests and `tests/tests/physical_plan.rs`).

use crate::ast::{BinOp, Expr};
use crate::error::ExprError;
use crate::funcs::{default_registry, Registry};
use fdm_core::{FdmError, Shape, TupleF, Value, ValueType};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// A row as a [`Compiled`] expression reads it: values by slot of the
/// shape the expression was compiled for.
pub trait Slots {
    /// The value in `slot` — borrowed where it is stored, computed (and
    /// possibly failing) otherwise.
    fn slot(&self, slot: usize) -> fdm_core::Result<Cow<'_, Value>>;
}

impl Slots for TupleF {
    #[inline(always)]
    fn slot(&self, slot: usize) -> fdm_core::Result<Cow<'_, Value>> {
        self.at(slot)
    }
}

/// What an attribute reference reads, for the one evaluator.
trait Resolve<'a> {
    fn attr(&self, name: &Arc<str>) -> Result<Cow<'a, Value>, ExprError>;
}

/// By name, against a tuple: `t('attr')`, stored or computed alike.
impl<'a> Resolve<'a> for &'a TupleF {
    #[inline(always)]
    fn attr(&self, name: &Arc<str>) -> Result<Cow<'a, Value>, ExprError> {
        let t: &'a TupleF = self;
        match t.shape().position(name) {
            Some(slot) => t.at(slot).map_err(fdm_err),
            None => Err(missing(name)),
        }
    }
}

/// An expression with every attribute reference resolved to a slot of one
/// input [`Shape`]: build it once per shape, evaluate it against every row
/// of that shape. A reference the shape lacks fails when — and only when —
/// evaluation reaches it, with the error `t('attr')` reports.
#[derive(Debug, Clone)]
pub struct Compiled {
    expr: Expr,
    /// The slot each attribute reference reads (`None`: the shape lacks
    /// it), keyed by the address of the reference's name in `expr` — a
    /// pointer compare per reference, never a name compare.
    slots: Vec<(usize, Option<usize>)>,
}

fn address(name: &Arc<str>) -> usize {
    Arc::as_ptr(name) as *const u8 as usize
}

impl Compiled {
    /// Resolves `expr`'s attribute references against `shape`.
    pub fn new(expr: &Expr, shape: &Shape) -> Compiled {
        fn walk(e: &Expr, shape: &Shape, slots: &mut Vec<(usize, Option<usize>)>) {
            match e {
                Expr::Attr(a) => {
                    if !slots.iter().any(|&(at, _)| at == address(a)) {
                        slots.push((address(a), shape.position(a)));
                    }
                }
                Expr::Lit(_) | Expr::Param(_) => {}
                Expr::Bin { lhs, rhs, .. } => {
                    walk(lhs, shape, slots);
                    walk(rhs, shape, slots);
                }
                Expr::Not(e) | Expr::Neg(e) => walk(e, shape, slots),
                Expr::Call { args, .. } => args.iter().for_each(|a| walk(a, shape, slots)),
            }
        }
        let mut slots = Vec::new();
        walk(expr, shape, &mut slots);
        Compiled {
            expr: expr.clone(),
            slots,
        }
    }

    /// Evaluates against one row of the compiled-for shape, resolving
    /// function calls in `registry`.
    pub fn eval_with<'a, R: Slots + ?Sized>(
        &'a self,
        row: &'a R,
        registry: &Registry,
    ) -> Result<Cow<'a, Value>, ExprError> {
        eval_in(
            &self.expr,
            &Bound {
                compiled: self,
                row,
            },
            registry,
        )
    }

    /// Evaluates as a predicate: must produce a boolean.
    pub fn eval_predicate<R: Slots + ?Sized>(&self, row: &R) -> Result<bool, ExprError> {
        let row = Bound {
            compiled: self,
            row,
        };
        test(&self.expr, &row, default_registry(), None)
    }
}

/// A compiled expression reading one row.
struct Bound<'a, R: ?Sized> {
    compiled: &'a Compiled,
    row: &'a R,
}

impl<'a, R: Slots + ?Sized> Resolve<'a> for Bound<'a, R> {
    #[inline(always)]
    fn attr(&self, name: &Arc<str>) -> Result<Cow<'a, Value>, ExprError> {
        let at = address(name);
        match self.compiled.slots.iter().find(|&&(a, _)| a == at) {
            Some(&(_, Some(slot))) => self.row.slot(slot).map_err(fdm_err),
            _ => Err(missing(name)),
        }
    }
}

fn fdm_err(e: FdmError) -> ExprError {
    ExprError::eval(e.to_string())
}

fn missing(name: &str) -> ExprError {
    fdm_err(FdmError::NoSuchAttribute {
        attr: name.to_string(),
    })
}

/// Evaluates `expr` against the tuple function `t` (attribute references
/// become `t('attr')` calls — stored or computed, indistinguishably).
/// Scalar-function calls resolve against the default built-in registry;
/// use [`eval_with`] to supply user-registered functions.
pub fn eval(expr: &Expr, t: &TupleF) -> Result<Value, ExprError> {
    eval_with(expr, t, default_registry())
}

/// Evaluates `expr` against `t`, resolving function calls in `registry`
/// (paper contribution 8: user/library functions in queries).
pub fn eval_with(expr: &Expr, t: &TupleF, registry: &Registry) -> Result<Value, ExprError> {
    eval_in(expr, &t, registry).map(Cow::into_owned)
}

/// The evaluator: `expr` over the values `row` resolves, borrowed wherever
/// they are stored or literal. Boolean operators and comparisons — what a
/// filter is made of — answer through [`test`].
fn eval_in<'a>(
    expr: &'a Expr,
    row: &impl Resolve<'a>,
    registry: &Registry,
) -> Result<Cow<'a, Value>, ExprError> {
    let value = match expr {
        Expr::Attr(_) | Expr::Lit(_) => return operand(expr, row, registry),
        Expr::Bin { op, lhs, rhs } if op.is_arithmetic() => {
            let l = operand(lhs, row, registry)?;
            let r = operand(rhs, row, registry)?;
            match op {
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                _ => l.div(&r),
            }
            .map_err(fdm_err)?
        }
        Expr::Bin { .. } | Expr::Not(_) => Value::Bool(test(expr, row, registry, None)?),
        Expr::Neg(e) => match &*eval_in(e, row, registry)? {
            Value::Int(i) => Value::Int(-i),
            Value::Float(x) => Value::Float(-x),
            other => {
                return Err(ExprError::eval(format!(
                    "cannot negate a {} value",
                    other.value_type()
                )))
            }
        },
        Expr::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_in(a, row, registry).map(Cow::into_owned))
                .collect::<Result<_, _>>()?;
            registry.call(name, &vals)?
        }
        Expr::Param(p) => {
            return Err(ExprError::eval(format!(
                "unbound parameter '${p}' at evaluation time (bind it with Params first)"
            )))
        }
    };
    Ok(Cow::Owned(value))
}

/// `expr` in a boolean context: a predicate (`what` is `None`), or the
/// operand of `and`/`or`/`not` that `what` names. Boolean operators and
/// comparisons answer a `bool` directly; anything else is evaluated and
/// must be one.
fn test<'a>(
    expr: &'a Expr,
    row: &impl Resolve<'a>,
    registry: &Registry,
    what: Option<&str>,
) -> Result<bool, ExprError> {
    match expr {
        Expr::Bin { op, lhs, rhs } => match op {
            BinOp::And => Ok(test(lhs, row, registry, Some("left operand of 'and'"))?
                && test(rhs, row, registry, Some("right operand of 'and'"))?),
            BinOp::Or => Ok(test(lhs, row, registry, Some("left operand of 'or'"))?
                || test(rhs, row, registry, Some("right operand of 'or'"))?),
            cmp if cmp.is_comparison() => {
                let l = operand(lhs, row, registry)?;
                let r = operand(rhs, row, registry)?;
                compare(*cmp, &l, &r)
            }
            _ => truth(eval_in(expr, row, registry)?, what),
        },
        Expr::Not(e) => Ok(!test(e, row, registry, Some("operand of 'not'"))?),
        other => truth(eval_in(other, row, registry)?, what),
    }
}

/// Applies a comparison operator with type checking: equality works on any
/// equal-typed pair (and int/float cross-numerically); ordering requires
/// comparable types.
#[inline]
pub fn compare(op: BinOp, l: &Value, r: &Value) -> Result<bool, ExprError> {
    debug_assert!(op.is_comparison());
    let lt = l.value_type();
    let rt = r.value_type();
    match op {
        BinOp::Eq | BinOp::Ne => {
            // equality across incomparable types is simply false/true, not
            // an error — but comparing a function to a scalar is almost
            // certainly a bug, so reject it.
            if (lt == ValueType::Function) != (rt == ValueType::Function) {
                return Err(ExprError::eval(format!("cannot compare {lt} with {rt}")));
            }
            let eq = l == r;
            Ok(if op == BinOp::Eq { eq } else { !eq })
        }
        _ => {
            if !lt.comparable_with(rt) {
                return Err(ExprError::eval(format!("cannot order {lt} against {rt}")));
            }
            let ord = l.cmp(r);
            Ok(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!("comparison op"),
            })
        }
    }
}

/// An operand: an attribute or a literal read in place, anything else
/// evaluated — inlined into its operator, so a comparison of an attribute
/// with a literal is one evaluator call, not three.
#[inline(always)]
fn operand<'a>(
    expr: &'a Expr,
    row: &impl Resolve<'a>,
    registry: &Registry,
) -> Result<Cow<'a, Value>, ExprError> {
    match expr {
        Expr::Attr(a) => row.attr(a),
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        other => eval_in(other, row, registry),
    }
}

/// Evaluates `expr` as a predicate: must produce a boolean.
pub fn eval_predicate(expr: &Expr, t: &TupleF) -> Result<bool, ExprError> {
    test(expr, &t, default_registry(), None)
}

/// A boolean in the context `what` names, or the error saying it is not —
/// `None`: the value of a whole predicate.
fn truth(v: Cow<'_, Value>, what: Option<&str>) -> Result<bool, ExprError> {
    match (&*v, what) {
        (Value::Bool(b), _) => Ok(*b),
        (other, Some(what)) => other.as_bool(what).map_err(fdm_err),
        (other, None) => Err(ExprError::eval(format!(
            "predicate evaluated to a {} value, expected bool",
            other.value_type()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::Params;
    use crate::parser::parse;

    // Every case below runs through both entry points — by name, and
    // compiled once against the tuple's shape — which must agree on the
    // value (type included) or on the error text.

    fn eval_predicate(e: &Expr, t: &TupleF) -> Result<bool, ExprError> {
        let by_name = super::eval_predicate(e, t);
        let compiled = Compiled::new(e, t.shape()).eval_predicate(t);
        assert_eq!(by_name, compiled, "{e}");
        by_name
    }

    fn eval_with(e: &Expr, t: &TupleF, registry: &Registry) -> Result<Value, ExprError> {
        let by_name = super::eval_with(e, t, registry);
        let compiled = Compiled::new(e, t.shape());
        let compiled = compiled.eval_with(t, registry).map(Cow::into_owned);
        let typed =
            |r: &Result<Value, ExprError>| format!("{:?}", r.as_ref().map(|v| (v.value_type(), v)));
        assert_eq!(typed(&by_name), typed(&compiled), "{e}");
        by_name
    }

    fn eval(e: &Expr, t: &TupleF) -> Result<Value, ExprError> {
        eval_with(e, t, default_registry())
    }

    fn alice() -> TupleF {
        TupleF::builder("t")
            .attr("name", "Alice")
            .attr("age", 43)
            .attr("score", 1.5)
            .attr("active", true)
            .build()
    }

    fn check(src: &str, expect: bool) {
        let e = parse(src).unwrap();
        assert_eq!(eval_predicate(&e, &alice()).unwrap(), expect, "{src}");
        assert_eq!(eval(&e, &alice()).unwrap(), Value::Bool(expect), "{src}");
    }

    #[test]
    fn paper_filter_predicate() {
        // customers older than 42 (Fig. 4a)
        check("age > 42", true);
        check("age > 43", false);
    }

    #[test]
    fn comparisons_and_logic() {
        check("age >= 43 and name == 'Alice'", true);
        check("age < 43 or name != 'Alice'", false);
        check("not (age < 43)", true);
        check("age <= 43", true);
        check("name <> 'Bob'", true);
    }

    #[test]
    fn arithmetic_in_predicates() {
        check("age * 2 > 85", true);
        check("age + 1 == 44", true);
        check("age - 3 == 40", true);
        check("age / 2 == 21", true);
        check("-age < 0", true);
        check("score * 2.0 == 3.0", true);
    }

    #[test]
    fn cross_numeric_comparison() {
        check("age > 42.5", true);
        check("score < 2", true);
    }

    #[test]
    fn computed_attrs_transparent_to_expressions() {
        let t = TupleF::builder("t")
            .attr("foo", 12)
            .computed("bar", |t| t.get("foo")?.mul(&Value::Int(42)))
            .build();
        let e = parse("bar == 504").unwrap();
        assert!(eval_predicate(&e, &t).unwrap());
    }

    #[test]
    fn bound_parameters_evaluate() {
        let e = parse("age > $min and age < $max").unwrap();
        let bound = Params::new()
            .set("min", 40)
            .set("max", 50)
            .bind(&e)
            .unwrap();
        assert!(eval_predicate(&bound, &alice()).unwrap());
    }

    #[test]
    fn unbound_parameter_fails_at_eval() {
        let e = parse("age > $min").unwrap();
        let err = eval_predicate(&e, &alice()).unwrap_err();
        assert!(err.to_string().contains("$min"));
    }

    #[test]
    fn type_errors_are_reported() {
        let err = eval_predicate(&parse("name > 5").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("cannot order"), "{err}");
        let err = eval_predicate(&parse("age + 'x'").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
        let err = eval_predicate(&parse("age").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("expected bool"), "{err}");
        let err = eval_predicate(&parse("missing == 1").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("no attribute"), "{err}");
    }

    #[test]
    fn equality_across_types_is_false_not_error() {
        check("name == 5", false);
        check("name != 5", true);
        check("active == true", true);
    }

    #[test]
    fn function_calls_in_predicates() {
        check("len(name) == 5", true);
        check("upper(name) == 'ALICE'", true);
        check("contains(name, 'lic')", true);
        check("starts_with(lower(name), 'al')", true);
        check("abs(-age) == 43", true);
        check("max2(age, 100) == 100", true);
        check("len(concat(name, 'x')) == 6", true);
    }

    #[test]
    fn user_registry_functions_via_eval_with() {
        let mut reg = Registry::with_builtins();
        reg.register("is_adult", 1, |args| {
            let age = args[0]
                .as_int("is_adult")
                .map_err(|e| ExprError::eval(e.to_string()))?;
            Ok(Value::Bool(age >= 18))
        });
        let e = parse("is_adult(age)").unwrap();
        assert_eq!(eval_with(&e, &alice(), &reg).unwrap(), Value::Bool(true));
        // unknown through the default registry
        let err = eval(&e, &alice()).unwrap_err();
        assert!(err.to_string().contains("unknown function"), "{err}");
    }

    #[test]
    fn call_errors() {
        let err = eval_predicate(&parse("len()").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("expects 1"), "{err}");
        let err = eval_predicate(&parse("nope(1)").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("unknown function"), "{err}");
        let err = eval_predicate(&parse("len(age)").unwrap(), &alice()).unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
    }

    #[test]
    fn params_inside_calls_bind() {
        let e = parse("contains(name, $needle)").unwrap();
        let bound = Params::new().set("needle", "lic").bind(&e).unwrap();
        assert!(eval_predicate(&bound, &alice()).unwrap());
    }

    #[test]
    fn short_circuit_prevents_spurious_errors() {
        // `missing` would error, but the left side decides.
        check("age > 100 and missing == 1", false);
        check("age > 0 or missing == 1", true);
    }

    #[test]
    fn compiled_once_evaluates_every_row_of_its_shape() {
        // one compile, two tuples over one shape: slots, not names, are read
        let shape = alice().shape().clone();
        let bob = TupleF::from_shape(
            "t",
            shape.clone(),
            vec!["Bob".into(), 30.into(), 0.5.into(), false.into()],
        );
        let e = parse("age > 40 or name == 'Bob'").unwrap();
        let compiled = Compiled::new(&e, &shape);
        assert!(compiled.eval_predicate(&alice()).unwrap());
        assert!(compiled.eval_predicate(&bob).unwrap());
        // a name the shape lacks fails only where evaluation reaches it
        let e = parse("active or missing == 1").unwrap();
        let compiled = Compiled::new(&e, &shape);
        assert!(compiled.eval_predicate(&alice()).unwrap());
        let err = compiled.eval_predicate(&bob).unwrap_err();
        assert!(err.to_string().contains("no attribute 'missing'"), "{err}");
        // a stored value comes back borrowed
        let age = parse("age").unwrap();
        let compiled = Compiled::new(&age, &shape);
        let alice = alice();
        let age = compiled.eval_with(&alice, default_registry()).unwrap();
        assert!(matches!(age, Cow::Borrowed(Value::Int(43))));
    }
}
