//! Pins the rule-engine optimizer's public contract:
//!
//! * `Query::optimize_for` is *exactly* `Optimizer::default()` — the
//!   wrapper may never drift from the rule engine it wraps;
//! * the default optimizer reorders the chain fixture that no adjacent
//!   swap improves, against the declared order that
//!   `Optimizer::statistics_free()` keeps, and measurably shrinks its
//!   intermediates;
//! * the `OptimizationRule` trait is implementable from outside the
//!   crate, and a custom rule drives through the same fixpoint loop with
//!   the same trace accounting as the built-ins;
//! * on randomized plan trees — join chains below and above every other
//!   operator — the driver terminates (converges under the pass cap) and
//!   the optimized plan evaluates to the declared plan's keyed data: the
//!   "cost may change, results may not" contract;
//! * `docs/OPTIMIZER.md`'s traced transcript equals the live
//!   `Optimizer::explain_optimized` output.

use fdm_core::{RelationF, Value};
use fdm_expr::Params;
use fdm_fql::optimizer::{OptimizationRule, Optimizer, PlanContext};
use fdm_fql::plan::Query;
use fdm_fql::testutil::{chain_db, skewed_db};
use fdm_fql::AggSpec;
use proptest::prelude::*;

/// Keyed content of a result: every canonical row id with its tuple's
/// canonical data key.
fn keyed_data(rel: &RelationF) -> Vec<(Value, Value)> {
    rel.tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| (k, t.data_key().unwrap()))
        .collect()
}

/// A small corpus spanning every operator the rules rewrite: join chains
/// (reorderable and pinned), pushable and pinned filters, constant
/// conjuncts, prunable projections, aggregates, sorts, limits.
fn corpus() -> Vec<Query> {
    vec![
        Query::scan("base"),
        Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2"),
        Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2")
            .filter("2 > 1 and nk >= 2", Params::new()),
        Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "wide.wv", "k2"),
        Query::scan("base")
            .filter("nk > 1", Params::new())
            .project(&["wk", "nk"])
            .group_agg(&["nk"], &[("n", AggSpec::Count)]),
        Query::scan("base")
            .join("narrow", "nk", "k2")
            .order_by("nk", fdm_fql::transform::Order::Desc)
            .limit(3),
        // a deferred construction error must ride through untouched
        Query::scan("base").filter("nk >", Params::new()),
    ]
}

#[test]
fn optimize_for_is_default_optimizer() {
    let db = skewed_db();
    for q in corpus() {
        assert_eq!(
            q.clone().optimize_for(&db).explain(),
            Optimizer::default().optimize(q.clone(), &db).explain(),
            "optimize_for drifted from Optimizer::default() on:\n{}",
            q.explain()
        );
    }
}

/// A rule defined *outside* `fdm-fql`: collapses stacked `Limit` nodes to
/// the smaller bound. `limit(a).limit(b)` and `limit(min(a, b))` keep
/// exactly the same rows, so the results contract holds.
struct CollapseLimits;

impl OptimizationRule for CollapseLimits {
    fn name(&self) -> &'static str {
        "collapse_limits"
    }

    fn apply(&self, plan: &Query, _ctx: &PlanContext) -> Option<Query> {
        // one collapse per firing; every other operator is walked through
        // the same `Query::map_input` the built-in rules use
        fn collapse(mut q: Query) -> (Query, bool) {
            let Query::Limit { input, k } = &mut q else {
                return q.map_input(collapse);
            };
            let Query::Limit { k: k2, .. } = &mut **input else {
                return q.map_input(collapse);
            };
            // the lower limit takes the smaller bound and replaces this one
            *k2 = (*k).min(*k2);
            match q.take_input() {
                Some(lower) => (lower, true),
                None => (q, false),
            }
        }
        let (next, changed) = collapse(plan.clone());
        changed.then_some(next)
    }
}

#[test]
fn external_rules_drive_through_the_same_fixpoint() {
    let db = skewed_db();
    let q = Query::scan("base")
        .order_by("nk", fdm_fql::transform::Order::Asc)
        .limit(5)
        .limit(3)
        .limit(4);
    let opt = Optimizer::new().with_rule(Box::new(CollapseLimits));
    let (collapsed, trace) = opt.optimize_traced(q.clone(), &db);
    assert!(trace.converged);
    assert_eq!(trace.fires("collapse_limits"), 2, "{:?}", trace.entries);
    let Query::Limit { k, input } = &collapsed else {
        panic!("limit survives: {}", collapsed.explain())
    };
    assert_eq!(*k, 3);
    assert!(
        !matches!(input.as_ref(), Query::Limit { .. }),
        "one limit left: {}",
        collapsed.explain()
    );
    assert_eq!(
        keyed_data(&q.eval(&db).unwrap()),
        keyed_data(&collapsed.eval(&db).unwrap())
    );
    // and it composes with the built-ins
    let full = Optimizer::default().with_rule(Box::new(CollapseLimits));
    assert_eq!(full.rule_names().len(), 5);
    assert_eq!(
        keyed_data(&full.optimize(q.clone(), &db).eval(&db).unwrap()),
        keyed_data(&q.eval(&db).unwrap())
    );
}

#[test]
fn greedy_beats_declared_on_the_chain_fixture() {
    // the fixture where adjacent swaps are stuck: a (fan-out 8) must stay
    // before dependent b, and (b, c) ties — only whole-chain enumeration
    // hoists the independent fan-out-1 c below everything
    let db = chain_db(8);
    let q = Query::scan("base")
        .join("a", "ak", "k")
        .join("b", "a.av", "k2")
        .join("c", "ck", "k3");
    let declared = Optimizer::statistics_free().optimize(q.clone(), &db);
    let greedy = Optimizer::default().optimize(q.clone(), &db);
    assert_eq!(
        declared.explain(),
        q.explain(),
        "the statistics-free optimizer keeps the declared chain"
    );
    assert_ne!(greedy.explain(), q.explain(), "greedy reorders it");
    let (_, s_declared) = declared.eval_with_stats(&db).unwrap();
    let (_, s_greedy) = greedy.eval_with_stats(&db).unwrap();
    assert!(
        s_greedy.total_intermediate() < s_declared.total_intermediate(),
        "measured intermediates shrink: {} vs {}",
        s_greedy.total_intermediate(),
        s_declared.total_intermediate()
    );
    assert_eq!(
        keyed_data(&declared.eval(&db).unwrap()),
        keyed_data(&greedy.eval(&db).unwrap())
    );
}

#[test]
fn optimizer_md_traced_transcript_is_live() {
    // docs/OPTIMIZER.md shows a real `explain_optimized` run; the fenced
    // block between the trace-transcript markers must equal live output.
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/OPTIMIZER.md"))
        .expect("docs/OPTIMIZER.md exists");
    let begin = md
        .find("<!-- trace-transcript:begin -->")
        .expect("trace-transcript begin marker");
    let end = md
        .find("<!-- trace-transcript:end -->")
        .expect("trace-transcript end marker");
    let block = &md[begin..end];
    let fence_open = block.find("```text").expect("```text fence") + "```text\n".len();
    let fence_close = block[fence_open..].find("```").expect("closing fence") + fence_open;
    let documented = &block[fence_open..fence_close];

    let db = chain_db(8);
    let q = Query::scan("base")
        .join("a", "ak", "k")
        .join("b", "a.av", "k2")
        .join("c", "ck", "k3")
        .filter("2 > 1 and ck <= 4", Params::new());
    let actual = Optimizer::default().explain_optimized(q, &db).unwrap();
    assert_eq!(
        documented, actual,
        "docs/OPTIMIZER.md traced transcript drifted from real \
         explain_optimized output"
    );
}

proptest! {
    /// Random plan trees over the skewed fixture: a join chain either at
    /// the bottom or above a filter and a tail (`Project`, `GroupAgg`,
    /// `OrderBy` + `Limit`, a filter over a `Limit`), so every rule walks
    /// through every operator. The driver always converges under the pass
    /// cap, and the optimized plan produces the declared plan's keyed
    /// data exactly — with and without the cost-based stage.
    #[test]
    fn fixpoint_terminates_and_preserves_results(
        join_shape in 0usize..4,
        joins_on_top in any::<bool>(),
        filter_shape in 0usize..6,
        tail_shape in 0usize..5,
        cost_based in any::<bool>(),
    ) {
        let db = skewed_db();
        let joins = |mut q: Query| {
            if join_shape & 1 != 0 {
                q = q.join("wide", "wk", "k");
            }
            if join_shape & 2 != 0 {
                q = q.join("narrow", "nk", "k2");
            }
            q
        };
        let mut q = Query::scan("base");
        if !joins_on_top {
            q = joins(q);
        }
        q = match filter_shape {
            1 => q.filter("nk > 1", Params::new()),
            2 => q.filter("2 > 1 and nk >= 2 and wk <= 5", Params::new()),
            3 => q.filter("1 > 2", Params::new()),
            // on base's key: pushed down to the scan, which then reads
            // `id` off the function input instead of an inlined copy
            4 => q.filter("id > 2", Params::new()),
            5 => q.filter("id >= 2 and nk <= 5 and 2 > 1", Params::new()),
            _ => q,
        };
        // every tail keeps `wk` and `nk`, so a chain on top can bind
        q = match tail_shape {
            1 => q.project(&["nk", "wk"]),
            2 => q.group_agg(&["nk", "wk"], &[("n", AggSpec::Count)]),
            3 => q.order_by("nk", fdm_fql::transform::Order::Asc).limit(4),
            4 => q.limit(4).filter("nk > 1", Params::new()),
            _ => q,
        };
        if joins_on_top {
            q = joins(q);
        }
        let opt = if cost_based {
            Optimizer::default()
        } else {
            Optimizer::statistics_free()
        };
        let (optimized, trace) = opt.optimize_traced(q.clone(), &db);
        prop_assert!(
            trace.converged,
            "must converge under the pass cap: {:?}",
            trace.fire_counts()
        );
        prop_assert_eq!(
            keyed_data(&q.eval(&db).unwrap()),
            keyed_data(&optimized.eval(&db).unwrap())
        );
    }
}
