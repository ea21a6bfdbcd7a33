//! The rule-engine optimizer: an [`OptimizationRule`] trait, a fixpoint
//! driver, and the built-in rule set.
//!
//! An [`Optimizer`] is configured only by its rule list: constant
//! folding, predicate pushdown and projection pruning rewrite the plan
//! without statistics, and one cost-based stage, [`GreedyJoinOrder`],
//! orders each join chain by estimated fan-out. `Query::optimize` and
//! `Query::optimize_for` are thin wrappers over this module. Every rule
//! walks the plan through [`Query::map_input`] and matches only the
//! operators it rewrites.
//!
//! # The driver
//!
//! [`Optimizer::optimize`] runs its rules in registration order, over and
//! over, until a whole pass fires nothing (a *fixpoint*) or the
//! [`Optimizer::MAX_PASSES`] cap stops a runaway rule. Each firing
//! replaces the plan wholesale — a rule returns `Some(rewritten)` or
//! `None`, never a partial mutation — and is recorded with its pass
//! number and before/after root cost in an [`OptimizeTrace`]
//! ([`Optimizer::optimize_traced`] returns it; per-rule fire counters
//! come from [`OptimizeTrace::fires`]).
//!
//! Rules see the plan and a [`PlanContext`] — database statistics
//! (cardinalities and distinct sketches) — and must uphold one contract:
//! **a rewrite may change cost, never observable results** (keys and data
//! of every evaluated relation). The canonical-row-id scheme on `Query::Join` is
//! what makes join-order rewrites satisfy that contract;
//! `tests/tests/optimizer_rules.rs` proptests it over random plans.
//!
//! # The default rule set
//!
//! | order | rule | needs stats | pinned by |
//! |---|---|---|---|
//! | 1 | [`ConstantFoldingExpr`] | no | its module tests + equivalence proptest |
//! | 2 | [`PredicatePushdown`] | no | `plan.rs` pushdown tests + docs transcript |
//! | 3 | [`ProjectionPruning`] | no | its module tests (canonical-id reset below joins) |
//! | 4 | [`GreedyJoinOrder`] | yes | `plan_reordering.rs` + `escapes_the_adjacent_local_optimum` |
//!
//! [`Optimizer::statistics_free`] is rules 1–3; it keeps every join
//! chain in its declared order.
//!
//! # Adding a rule
//!
//! ```
//! use fdm_fql::optimizer::{OptimizationRule, Optimizer, PlanContext};
//! use fdm_fql::plan::Query;
//!
//! /// Rewrites `limit(0)` plans — nothing below them can matter... except
//! /// that eval errors still must surface, so a real rule would check the
//! /// subtree is infallible first. Rules may change cost, never results.
//! struct NoteLimitZero;
//! impl OptimizationRule for NoteLimitZero {
//!     fn name(&self) -> &'static str { "note_limit_zero" }
//!     fn apply(&self, _plan: &Query, _ctx: &PlanContext) -> Option<Query> {
//!         None // observe-only: never fires
//!     }
//! }
//!
//! let opt = Optimizer::default().with_rule(Box::new(NoteLimitZero));
//! assert!(opt.rule_names().contains(&"note_limit_zero"));
//! ```

pub mod context;
mod rules;
pub mod trace;

pub use context::PlanContext;
pub use rules::{ConstantFoldingExpr, GreedyJoinOrder, PredicatePushdown, ProjectionPruning};
pub use trace::{OptimizeTrace, TraceEntry};

use crate::plan::Query;
use fdm_core::{DatabaseF, Result};

/// One plan-rewriting rule. Implementations are stateless and
/// `Send + Sync`: a single [`Optimizer`] may be shared across threads.
///
/// The contract every rule must uphold: `apply` returns `Some(rewritten)`
/// only for rewrites that preserve **observable results** — the keys and
/// data of the evaluated relation, and which errors surface — and returns
/// `None` when it has nothing (or nothing *provably safe*) to do. The
/// driver calls `apply` repeatedly; a rule that keeps returning `Some`
/// for the same plan never converges and gets cut off at the pass cap.
pub trait OptimizationRule: Send + Sync {
    /// Stable identifier used in traces and fire counters.
    fn name(&self) -> &'static str;

    /// One rewrite attempt: `Some(rewritten)` if the rule changed the
    /// plan, `None` if the plan is already at this rule's fixpoint.
    fn apply(&self, plan: &Query, ctx: &PlanContext) -> Option<Query>;
}

/// The fixpoint driver over an ordered rule list. See the module docs
/// for semantics; see [`Optimizer::default`] for the built-in rule set.
pub struct Optimizer {
    rules: Vec<Box<dyn OptimizationRule>>,
}

impl Default for Optimizer {
    /// The full built-in rule set, in the documented order:
    /// [`Optimizer::statistics_free`] then [`GreedyJoinOrder`]. This is
    /// exactly what `Query::optimize_for` runs — pinned by
    /// `optimize_for_is_default_optimizer` in
    /// `tests/tests/optimizer_rules.rs`.
    fn default() -> Optimizer {
        Optimizer::statistics_free().with_rule(Box::new(GreedyJoinOrder))
    }
}

impl Optimizer {
    /// The fixpoint pass cap (see [`Optimizer::optimize_traced`]): plans
    /// are shallow trees and every rule in the default set strictly
    /// shrinks some measure, so real plans converge in a handful of
    /// passes — the cap only bounds a misbehaving user rule.
    pub const MAX_PASSES: usize = 64;

    /// An optimizer with no rules (the identity transformation).
    pub fn new() -> Optimizer {
        Optimizer { rules: Vec::new() }
    }

    /// The statistics-free subset of the default set (constant folding,
    /// predicate pushdown, projection pruning) — every rewrite that needs
    /// no database, with join chains kept in their declared order. This
    /// is exactly what `Query::optimize` runs.
    pub fn statistics_free() -> Optimizer {
        Optimizer::new()
            .with_rule(Box::new(ConstantFoldingExpr))
            .with_rule(Box::new(PredicatePushdown))
            .with_rule(Box::new(ProjectionPruning))
    }

    /// Appends a rule; rules run in registration order within each pass.
    pub fn with_rule(mut self, rule: Box<dyn OptimizationRule>) -> Optimizer {
        self.rules.push(rule);
        self
    }

    /// Registered rule names, in run order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Rewrites `plan` to fixpoint against `db`'s statistics.
    pub fn optimize(&self, plan: Query, db: &DatabaseF) -> Query {
        self.optimize_traced(plan, db).0
    }

    /// [`Self::optimize`], also returning the ordered [`OptimizeTrace`]
    /// of `(rule, pass, cost before, cost after)` firings.
    pub fn optimize_traced(&self, plan: Query, db: &DatabaseF) -> (Query, OptimizeTrace) {
        self.drive(plan, &PlanContext::new(db))
    }

    /// Rewrites `plan` without statistics: estimate accessors answer
    /// `None`, so cost-driven rules no-op and only structural rewrites
    /// fire.
    pub fn optimize_without_stats(&self, plan: Query) -> Query {
        self.drive(plan, &PlanContext::without_stats()).0
    }

    /// The optimized plan's cost-annotated tree preceded by the rewrite
    /// trace — `explain_with_cost` for the whole optimization run, and
    /// the output the `docs/OPTIMIZER.md` traced-transcript test keeps
    /// live.
    pub fn explain_optimized(&self, plan: Query, db: &DatabaseF) -> Result<String> {
        let (optimized, trace) = self.optimize_traced(plan, db);
        let mut out = trace.render();
        out.push_str(&optimized.explain_with_cost(db)?);
        Ok(out)
    }

    /// The fixpoint loop. A plan deeper than
    /// [`crate::plan::MAX_PLAN_DEPTH`] comes back as [`Query::Invalid`]
    /// without a rule seeing it: every rule recurses once per operator.
    fn drive(&self, plan: Query, ctx: &PlanContext) -> (Query, OptimizeTrace) {
        let mut trace = OptimizeTrace::default();
        if let Err(e) = plan.check_depth() {
            let message = e.to_string();
            return (Query::Invalid { message }, trace);
        }
        let mut q = plan;
        for pass in 1..=Self::MAX_PASSES {
            trace.passes = pass;
            let mut fired = false;
            for rule in &self.rules {
                if let Some(next) = rule.apply(&q, ctx) {
                    trace.entries.push(TraceEntry {
                        rule: rule.name(),
                        pass,
                        cost_before: ctx.estimated_rows(&q),
                        cost_after: ctx.estimated_rows(&next),
                    });
                    q = next;
                    fired = true;
                }
            }
            if !fired {
                trace.converged = true;
                break;
            }
        }
        (q, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::skewed_db;

    #[test]
    fn default_set_is_the_documented_order() {
        assert_eq!(
            Optimizer::default().rule_names(),
            vec![
                "constant_folding",
                "predicate_pushdown",
                "projection_pruning",
                "greedy_join_order",
            ]
        );
        assert_eq!(
            Optimizer::statistics_free().rule_names(),
            vec![
                "constant_folding",
                "predicate_pushdown",
                "projection_pruning",
            ]
        );
    }

    #[test]
    fn driver_reaches_fixpoint_and_counts_fires() {
        use fdm_expr::{BinOp, Expr};
        let db = skewed_db();
        // `2 > 1 and narrow.nv >= 10` — the qualified join-output attr is
        // built programmatically (no dotted identifiers in the language);
        // the constant conjunct feeds constant folding, and the qualified
        // ref only becomes pushable after greedy reordering puts the
        // `wide` join on top — so pushdown firing proves the driver loops
        let pred = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Gt, Expr::lit(2), Expr::lit(1)),
            Expr::bin(
                BinOp::Ge,
                Expr::Attr(std::sync::Arc::from("narrow.nv")),
                Expr::lit(10),
            ),
        );
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2")
            .filter_expr(pred);
        let (opt, trace) = Optimizer::default().optimize_traced(q.clone(), &db);
        assert!(trace.converged, "small plans converge well under the cap");
        assert!(trace.passes <= Optimizer::MAX_PASSES);
        assert_eq!(trace.fires("constant_folding"), 1, "{:?}", trace.entries);
        assert!(trace.fires("predicate_pushdown") >= 1);
        assert_eq!(trace.fires("greedy_join_order"), 1);
        // rewrites never change results
        let a = q.eval(&db).unwrap();
        let b = opt.eval(&db).unwrap();
        assert_eq!(a.stored_keys(), b.stored_keys());
    }

    #[test]
    fn pass_cap_stops_a_runaway_rule() {
        /// Deliberately violates the convergence contract: always fires.
        struct Runaway;
        impl OptimizationRule for Runaway {
            fn name(&self) -> &'static str {
                "runaway"
            }
            fn apply(&self, plan: &Query, _ctx: &PlanContext) -> Option<Query> {
                Some(plan.clone())
            }
        }
        let db = skewed_db();
        let opt = Optimizer::new().with_rule(Box::new(Runaway));
        let (_, trace) = opt.optimize_traced(Query::scan("base"), &db);
        assert!(!trace.converged);
        assert_eq!(trace.passes, Optimizer::MAX_PASSES);
        assert_eq!(trace.fires("runaway"), Optimizer::MAX_PASSES);
        let cap = format!("stopped at the {}-pass cap", Optimizer::MAX_PASSES);
        assert!(trace.render().contains(&cap));
    }

    #[test]
    fn explain_optimized_carries_trace_and_costs() {
        let db = skewed_db();
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2");
        let s = Optimizer::default().explain_optimized(q, &db).unwrap();
        assert!(s.contains("greedy_join_order"), "{s}");
        assert!(s.contains("fixpoint after"), "{s}");
        assert!(s.contains("scan(base)"), "{s}");
        assert!(s.contains("rows"), "{s}");
    }
}
