//! Constant folding over filter predicates, via the `fdm_expr` evaluator.

use crate::optimizer::{OptimizationRule, PlanContext};
use crate::plan::Query;
use fdm_core::{TupleF, Value};
use fdm_expr::{BinOp, Expr};
use std::sync::Arc;

/// Evaluates constant predicate subexpressions at plan time with the very
/// evaluator that would run them per-tuple at execution time, so folding
/// cannot change semantics — `10 > 3 and age > 40` becomes `age > 40`,
/// and a filter whose whole predicate folds to `true` disappears.
///
/// A subexpression folds when it references no attributes, no unbound
/// parameters, and no scalar-function calls (calls resolve against a
/// registry at evaluation time and are conservatively left alone). On top
/// of pure folding, the short-circuit boolean identities are applied:
/// `true and x → x`, `false and x → false`, `true or x → true`,
/// `false or x → x`, plus the right-side cases that cannot suppress a
/// left-side runtime error (`x and true → x`, `x or false → x`). A
/// subexpression whose constant evaluation *errors* (`1 + 'a'`) is left
/// in place: the error still surfaces at [`Query::eval`], exactly as
/// declared.
///
/// Pinned by the unit tests in this module and the result-equivalence
/// proptest in `tests/tests/optimizer_rules.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantFoldingExpr;

impl OptimizationRule for ConstantFoldingExpr {
    fn name(&self) -> &'static str {
        "constant_folding"
    }

    fn apply(&self, plan: &Query, _ctx: &PlanContext) -> Option<Query> {
        let (next, changed) = fold_plan(plan.clone());
        changed.then_some(next)
    }
}

fn fold_plan(q: Query) -> (Query, bool) {
    let (mut q, c_in) = q.map_input(fold_plan);
    let Query::Filter { pred, .. } = &mut q else {
        return (q, c_in);
    };
    let (folded, c_pred) = fold_expr(pred);
    if matches!(folded, Expr::Lit(Value::Bool(true))) {
        // the filter keeps every tuple under its own key — drop it
        if let Some(inner) = q.take_input() {
            return (inner, true);
        }
    } else if c_pred {
        *pred = folded;
    }
    (q, c_in || c_pred)
}

/// `true` when evaluating `e` needs no tuple, no parameters, and no
/// function registry — i.e. plan-time evaluation is the same computation
/// execution would repeat per tuple.
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Lit(_) => true,
        Expr::Attr(_) | Expr::Param(_) | Expr::Call { .. } => false,
        Expr::Bin { lhs, rhs, .. } => is_const(lhs) && is_const(rhs),
        Expr::Not(x) | Expr::Neg(x) => is_const(x),
    }
}

/// Folds children first, then the node itself when it became constant.
fn fold_expr(e: &Expr) -> (Expr, bool) {
    match e {
        Expr::Lit(_) | Expr::Attr(_) | Expr::Param(_) => (e.clone(), false),
        Expr::Not(x) => {
            let (fx, c) = fold_expr(x);
            finish(Expr::Not(Arc::new(fx)), c)
        }
        Expr::Neg(x) => {
            let (fx, c) = fold_expr(x);
            finish(Expr::Neg(Arc::new(fx)), c)
        }
        Expr::Bin { op, lhs, rhs } => {
            let (fl, cl) = fold_expr(lhs);
            let (fr, cr) = fold_expr(rhs);
            // Short-circuit boolean identities. Left-literal cases mirror
            // the evaluator's own short-circuiting; of the right-literal
            // cases only the ones that keep evaluating the left side
            // (`and true`, `or false`) are safe — `x and false → false`
            // would suppress a runtime error in `x`.
            let lit_bool = |e: &Expr| match e {
                Expr::Lit(Value::Bool(b)) => Some(*b),
                _ => None,
            };
            match (op, lit_bool(&fl), lit_bool(&fr)) {
                (BinOp::And, Some(true), _) => return (fr, true),
                (BinOp::And, Some(false), _) => return (Expr::Lit(Value::Bool(false)), true),
                (BinOp::And, None, Some(true)) => return (fl, true),
                (BinOp::Or, Some(true), _) => return (Expr::Lit(Value::Bool(true)), true),
                (BinOp::Or, Some(false), _) => return (fr, true),
                (BinOp::Or, None, Some(false)) => return (fl, true),
                _ => {}
            }
            finish(
                Expr::Bin {
                    op: *op,
                    lhs: Arc::new(fl),
                    rhs: Arc::new(fr),
                },
                cl || cr,
            )
        }
        Expr::Call { name, args } => {
            // fold the arguments, never the call itself
            let mut changed = false;
            let folded: Vec<Arc<Expr>> = args
                .iter()
                .map(|a| {
                    let (fa, c) = fold_expr(a);
                    changed |= c;
                    Arc::new(fa)
                })
                .collect();
            (
                Expr::Call {
                    name: name.clone(),
                    args: folded,
                },
                changed,
            )
        }
    }
}

fn finish(e: Expr, changed: bool) -> (Expr, bool) {
    if !matches!(e, Expr::Lit(_)) && is_const(&e) {
        let empty = TupleF::builder("const").build();
        if let Ok(v) = fdm_expr::eval(&e, &empty) {
            return (Expr::Lit(v), true);
        }
    }
    (e, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_expr::Params;

    fn ctx_apply(q: &Query) -> Option<Query> {
        ConstantFoldingExpr.apply(q, &PlanContext::without_stats())
    }

    #[test]
    fn folds_constant_conjunct_and_drops_true_filter() {
        let q = Query::scan("customers").filter("10 > 3 and age > 40", Params::new());
        let folded = ctx_apply(&q).expect("constant conjunct folds");
        let plan = folded.explain();
        assert!(plan.contains("filter((age > 40))"), "{plan}");
        assert!(ctx_apply(&folded).is_none(), "fixpoint");

        let q = Query::scan("customers").filter("1 + 1 == 2", Params::new());
        let folded = ctx_apply(&q).expect("all-constant predicate folds away");
        assert!(!folded.explain().contains("filter"), "{}", folded.explain());
    }

    #[test]
    fn noops_on_non_constant_and_on_erroring_constants() {
        let q = Query::scan("customers").filter("age > 40", Params::new());
        assert!(ctx_apply(&q).is_none(), "nothing constant to fold");
        // a constant that *errors* is left for eval to report
        let q = Query::scan("customers").filter("1 + 'a' == 2 and age > 40", Params::new());
        assert!(ctx_apply(&q).is_none(), "erroring constant stays declared");
    }

    #[test]
    fn unbound_params_are_not_constants() {
        let expr = fdm_expr::parse("$min < 10").unwrap();
        let q = Query::scan("customers").filter_expr(expr);
        assert!(ctx_apply(&q).is_none(), "params are data, not literals");
    }
}
