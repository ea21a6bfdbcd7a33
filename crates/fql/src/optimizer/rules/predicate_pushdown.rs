//! Filter fusion + predicate pushdown, as a rule.

use crate::optimizer::{OptimizationRule, PlanContext};
use crate::plan::Query;
use fdm_expr::parser::MAX_DEPTH;
use fdm_expr::{BinOp, Expr};

/// Fuses adjacent filters and pushes predicates down through projections
/// and joins (never through sorts), one rewrite per firing — the
/// statistics-free heart of the optimizer.
///
/// * adjacent `Filter(Filter(..))` pairs fuse into one `and` predicate,
///   as long as it stays within [`MAX_DEPTH`], the parser's bound: every
///   walk of a predicate recurses once per level;
/// * a filter moves below a `Project` when it references only projected
///   attributes;
/// * a filter moves below a `Join` when it never references the joined
///   relation's qualified (`"{rel}."`-prefixed) attributes;
/// * a filter **never** moves below an `OrderBy`: the sort assigns rank
///   keys, and filtering before vs after ranking yields observably
///   different keys (gapped vs contiguous).
///
/// Pinned by `optimize_fuses_filters`, `optimize_pushes_filter_below_join`,
/// `optimize_pushes_filter_below_project`, `filter_stays_above_order_by`
/// (`crates/fql/src/plan.rs`) and the docs transcript test.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredicatePushdown;

impl OptimizationRule for PredicatePushdown {
    fn name(&self) -> &'static str {
        "predicate_pushdown"
    }

    fn apply(&self, plan: &Query, _ctx: &PlanContext) -> Option<Query> {
        let (next, changed) = push_down_once(plan.clone());
        changed.then_some(next)
    }
}

/// One bottom-up pushdown step; the fixpoint driver repeats it until the
/// plan is quiet.
fn push_down_once(mut q: Query) -> (Query, bool) {
    let Query::Filter { input, pred } = &mut q else {
        return q.map_input(push_down_once);
    };
    match &mut **input {
        // fuse adjacent filters: the one below takes both predicates,
        // unless their `and` would nest deeper than a parsed predicate may
        Query::Filter { pred: p2, .. } if p2.depth().max(pred.depth()) < MAX_DEPTH => {
            *p2 = Expr::bin(BinOp::And, take(p2), take(pred));
            let fused = q.take_input();
            return (fused.unwrap_or(q), true);
        }
        // push below project when the predicate only uses projected
        // attributes
        Query::Project { attrs, .. } if reads_only(pred, attrs) => {}
        // push below join when the predicate never references the joined
        // relation's (prefixed) attributes
        Query::Join { rel, .. } if !reads_from(pred, rel) => {}
        // NOTE: a filter is deliberately NOT pushed below an OrderBy. The
        // sort assigns rank keys; filtering before vs after ranking yields
        // different keys (contiguous vs gapped), and the optimizer must
        // never change observable results — only their cost.
        _ => return q.map_input(push_down_once),
    }
    // swap the filter and the operator it reads: the filter takes that
    // operator's input, and the operator reads the filter
    let Some(below) = q.take_input() else {
        return (q, false);
    };
    let (pushed, _) = below.map_input(|inner| q.map_input(|_| (inner, true)));
    (pushed, true)
}

/// Moves `e` out, leaving a literal that allocates nothing in its place.
fn take(e: &mut Expr) -> Expr {
    std::mem::replace(e, Expr::Lit(fdm_core::Value::Unit))
}

/// `true` when every attribute `pred` reads is one of `attrs`.
fn reads_only(pred: &Expr, attrs: &[String]) -> bool {
    let refs = pred.referenced_attrs();
    refs.iter().all(|r| attrs.iter().any(|a| a == r.as_ref()))
}

/// `true` when `pred` reads an attribute of the joined relation `rel`
/// (`"{rel}.…"`).
fn reads_from(pred: &Expr, rel: &str) -> bool {
    let prefix = format!("{rel}.");
    let refs = pred.referenced_attrs();
    refs.iter().any(|r| r.starts_with(&prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_expr::Params;

    #[test]
    fn fires_on_pushable_filter_and_noops_at_fixpoint() {
        let ctx = PlanContext::without_stats();
        let q = Query::scan("orders")
            .join("customers", "cid", "cid")
            .filter("date == '2026-01-05'", Params::new());
        let pushed = PredicatePushdown
            .apply(&q, &ctx)
            .expect("left-side-only predicate moves below the join");
        let plan = pushed.explain();
        let filter_line = plan.lines().position(|l| l.contains("filter")).unwrap();
        let join_line = plan.lines().position(|l| l.contains("join")).unwrap();
        assert!(filter_line > join_line, "{plan}");
        // at the fixpoint the rule reports "nothing to do"
        assert!(PredicatePushdown.apply(&pushed, &ctx).is_none());
    }

    #[test]
    fn fusion_stops_at_the_parser_bound() {
        let ctx = PlanContext::without_stats();
        let deep = format!("v >= 0{}", " and v >= 0".repeat(MAX_DEPTH - 3));
        let q = Query::scan("r")
            .filter(&deep, Params::new())
            .filter("v < 5", Params::new());
        let fused = PredicatePushdown
            .apply(&q, &ctx)
            .expect("one level to spare");
        let Query::Filter { pred, input } = &fused else {
            panic!("{}", fused.explain())
        };
        assert_eq!(pred.depth(), MAX_DEPTH);
        assert!(matches!(**input, Query::Scan { .. }));
        // a level deeper, the two filters stay apart
        let q = fused.filter("v > 1", Params::new());
        assert!(
            PredicatePushdown.apply(&q, &ctx).is_none(),
            "{}",
            q.explain()
        );
    }

    #[test]
    fn noops_on_join_side_predicate() {
        use fdm_expr::{BinOp, Expr};
        let ctx = PlanContext::without_stats();
        // qualified join-output references are built programmatically —
        // the predicate *language* has no dotted identifiers
        let pred = Expr::bin(
            BinOp::Gt,
            Expr::Attr(std::sync::Arc::from("customers.age")),
            Expr::lit(40),
        );
        let q = Query::scan("orders")
            .join("customers", "cid", "cid")
            .filter_expr(pred);
        assert!(
            PredicatePushdown.apply(&q, &ctx).is_none(),
            "a predicate on the joined side is pinned above the join"
        );
    }
}
