//! Greedy n-way join-order enumeration: the optimizer's one cost-based
//! stage.

use crate::optimizer::{OptimizationRule, PlanContext};
use crate::plan::Query;

/// Reorders a whole left-deep join *chain* at once: smallest estimated
/// fan-out first, among the joins whose dependencies are already placed.
/// Looking at the whole chain escapes the local optima that swapping
/// adjacent joins gets stuck in: with `A` (fan-out 8), `B` (depends on
/// `A`), `C` (independent, fan-out 1) declared as `A, B, C`, no *adjacent*
/// swap improves anything — `(A,B)` is pinned dependent and `(B,C)` is a
/// tie — yet `C, A, B` runs the whole pipeline on 8× smaller
/// intermediates. The greedy enumerator finds it.
///
/// What makes the rewrite *legal* is the canonical-row-id contract
/// (`Query::Join`): output rows are keyed by their data fingerprint, not
/// emission order, so any dependency-respecting permutation of the chain
/// produces the identical keyed relation. The constraints:
///
/// * a join whose `input_attr` references `"{rel}."` must stay after
///   every chain join binding `rel` (and the whole chain bails to
///   declared order if it references a rel joined *later* — a plan that
///   errors as declared must keep erroring);
/// * joins binding the same relation keep their relative order;
/// * fan-outs come from `rows(rel) / distinct(rel, rel_attr)` sketch
///   estimates; if any is unavailable the chain keeps declared order;
///   ties keep declared order (greedy picks the earliest-declared
///   candidate).
///
/// The placement itself is O(n²) in the chain length with no estimate
/// re-derivation per step — fan-outs are per-join constants, so "cheapest
/// next intermediate" is "smallest fan-out among ready joins".
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyJoinOrder;

impl OptimizationRule for GreedyJoinOrder {
    fn name(&self) -> &'static str {
        "greedy_join_order"
    }

    fn apply(&self, plan: &Query, ctx: &PlanContext) -> Option<Query> {
        ctx.db()?;
        let (next, changed) = reorder(plan.clone(), ctx);
        changed.then_some(next)
    }
}

struct JoinSpec {
    rel: String,
    input_attr: String,
    rel_attr: String,
}

fn reorder(q: Query, ctx: &PlanContext) -> (Query, bool) {
    if !matches!(q, Query::Join { .. }) {
        return q.map_input(|input| reorder(input, ctx));
    }
    let (specs, stem) = collect_chain(q);
    // chains deeper in the plan (below a filter/sort/aggregate) reorder
    // independently
    let (stem, stem_changed) = reorder(stem, ctx);
    match greedy_order(&specs, ctx) {
        Some(order) => (rebuild(stem, specs, &order), true),
        None => {
            let identity: Vec<usize> = (0..specs.len()).collect();
            (rebuild(stem, specs, &identity), stem_changed)
        }
    }
}

/// Peels the maximal run of `Join` nodes off the top of `q`. Returns the
/// specs in **declared execution order** (innermost first) plus the
/// non-join stem below them.
fn collect_chain(mut q: Query) -> (Vec<JoinSpec>, Query) {
    let mut specs = Vec::new();
    while let Query::Join {
        rel,
        input_attr,
        rel_attr,
        ..
    } = &mut q
    {
        specs.push(JoinSpec {
            rel: std::mem::take(rel),
            input_attr: std::mem::take(input_attr),
            rel_attr: std::mem::take(rel_attr),
        });
        let Some(input) = q.take_input() else { break };
        q = input;
    }
    specs.reverse();
    (specs, q)
}

/// The greedy placement, as a permutation of declared indices — or `None`
/// when the chain must keep declared order (too short, an estimate
/// unavailable, a forward dependency, or greedy agreeing with declared).
fn greedy_order(specs: &[JoinSpec], ctx: &PlanContext) -> Option<Vec<usize>> {
    let n = specs.len();
    if n < 2 {
        return None;
    }
    // per-join fan-out: rows(rel) / distinct(rel, rel_attr)
    let mut fanout = Vec::with_capacity(n);
    for s in specs {
        let rows = ctx.relation_rows(&s.rel)? as f64;
        let distinct = ctx.estimate_distinct(&s.rel, &s.rel_attr)?.max(1) as f64;
        fanout.push(rows / distinct);
    }
    // deps[i] = declared indices that must be placed before i
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, other) in specs.iter().enumerate() {
            if j == i {
                continue;
            }
            if specs[i].input_attr.starts_with(&format!("{}.", other.rel)) {
                if j < i {
                    deps[i].push(j);
                } else {
                    // references a relation joined later in declared
                    // order: the declared plan errors at eval — keep it
                    return None;
                }
            }
        }
        for j in 0..i {
            if specs[j].rel == specs[i].rel {
                deps[i].push(j);
            }
        }
    }
    // place the smallest-fan-out ready join, ties by declared index
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for i in 0..n {
            if placed[i] || !deps[i].iter().all(|&j| placed[j]) {
                continue;
            }
            if best.is_none_or(|b| fanout[i] < fanout[b]) {
                best = Some(i);
            }
        }
        let i = best.expect("deps only point backward: someone is always ready");
        placed[i] = true;
        order.push(i);
    }
    if order.iter().copied().eq(0..n) {
        None
    } else {
        Some(order)
    }
}

fn rebuild(stem: Query, specs: Vec<JoinSpec>, order: &[usize]) -> Query {
    let mut slots: Vec<Option<JoinSpec>> = specs.into_iter().map(Some).collect();
    let mut q = stem;
    for &i in order {
        let s = slots[i].take().expect("each index placed once");
        q = Query::Join {
            input: Box::new(q),
            rel: s.rel,
            input_attr: s.input_attr,
            rel_attr: s.rel_attr,
        };
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{chain_db, skewed_db};

    /// Executed order of relation names, innermost (first-executed) first.
    fn executed_order(q: &Query) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        let mut cur = q;
        while let Query::Join { input, rel, .. } = cur {
            names.push(rel.clone());
            cur = input;
        }
        names.reverse();
        names
    }

    #[test]
    fn escapes_the_adjacent_local_optimum() {
        // declared a(fan-out 8), b(depends on a), c(independent, fan-out 1):
        // no adjacent swap improves — (a,b) pinned, (b,c) is a 1-vs-1 tie —
        // but greedy hoists c below everything
        let db = chain_db(8);
        let ctx = PlanContext::new(&db);
        let base_a = Query::scan("base").join("a", "ak", "k");
        // the one independent adjacent pair, (b, c), is an exact cost tie
        assert_eq!(
            ctx.estimated_rows(&base_a.clone().join("b", "a.av", "k2")),
            ctx.estimated_rows(&base_a.clone().join("c", "ck", "k3")),
        );
        let q = base_a.join("b", "a.av", "k2").join("c", "ck", "k3");
        let greedy = GreedyJoinOrder.apply(&q, &ctx).expect("greedy escapes");
        assert_eq!(executed_order(&greedy), ["c", "a", "b"]);
        assert!(GreedyJoinOrder.apply(&greedy, &ctx).is_none(), "fixpoint");
        // the contract: identical keyed results either way
        let declared = q.eval(&db).unwrap();
        let reordered = greedy.eval(&db).unwrap();
        assert_eq!(declared.stored_keys(), reordered.stored_keys());
        for (key, t) in declared.tuples().unwrap() {
            assert!(
                t.eq_data(&reordered.lookup(&key).unwrap()),
                "{key} diverges"
            );
        }
    }

    #[test]
    fn pins_dependencies_self_joins_and_missing_stats() {
        let db = skewed_db();
        let ctx = PlanContext::new(&db);
        // dependent pair keeps order
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "wide.wv", "k2");
        assert!(GreedyJoinOrder.apply(&q, &ctx).is_none());
        // self-join pair keeps order
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("wide", "nk", "k");
        assert!(GreedyJoinOrder.apply(&q, &ctx).is_none());
        // a relation missing from the db: estimate unavailable → declared
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("ghost", "nk", "k2");
        assert!(GreedyJoinOrder.apply(&q, &ctx).is_none());
        // no statistics at all → quiet, even on a chain that pays
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2");
        assert!(GreedyJoinOrder.apply(&q, &ctx).is_some());
        assert!(GreedyJoinOrder
            .apply(&q, &PlanContext::without_stats())
            .is_none());
    }

    #[test]
    fn reorders_chains_below_non_join_operators() {
        let db = skewed_db();
        let ctx = PlanContext::new(&db);
        let q = Query::scan("base")
            .join("wide", "wk", "k")
            .join("narrow", "nk", "k2")
            .group_agg(&["nv"], &[("n", crate::aggregate::AggSpec::Count)]);
        let opt = GreedyJoinOrder
            .apply(&q, &ctx)
            .expect("the chain under the aggregate still reorders");
        let Query::GroupAgg { input, .. } = &opt else {
            panic!("shape preserved: {}", opt.explain())
        };
        assert_eq!(executed_order(input), ["narrow", "wide"]);
    }
}
