//! Narrows projection lists to the attributes something downstream reads.

use crate::optimizer::{OptimizationRule, PlanContext};
use crate::plan::Query;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Drops attributes from existing `Project` nodes that no downstream
/// operator reads, shrinking every tuple the pipeline above materializes.
/// The pass walks top-down carrying the set of *needed* attributes: the
/// root needs everything (its output is the query result), a filter adds
/// its predicate's references, a sort adds its key, and a `GroupAgg`
/// needs exactly its grouping and aggregate inputs — which is where the
/// wins come from (`project(a, b, c, d)` under `group_agg(by a, sum b)`
/// narrows to `project(a, b)`).
///
/// Two deliberate limits keep the rule observationally safe:
///
/// * **Everything below a `Join` is needed.** Join output rows are keyed
///   by their canonical data fingerprint (`[hash, rank]` over the *whole*
///   tuple — see `Query::Join`), so dropping even an unread attribute
///   below a join would change observable row ids. The needed-set resets
///   to "all" when descending into a join's input.
/// * **Only existing `Project` nodes narrow.** The rule never inserts new
///   projections: an extra operator is an extra pass over the data, a
///   cost call that belongs to a future cost-driven rule, not a pruning
///   rewrite.
///
/// A projection never narrows to the empty list (a `project()` of nothing
/// is a degenerate plan the executor should see only if the user wrote
/// it), and attrs the needed-set cannot prove present are kept so
/// missing-attribute errors still surface at [`Query::eval`] exactly as
/// declared.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProjectionPruning;

impl OptimizationRule for ProjectionPruning {
    fn name(&self) -> &'static str {
        "projection_pruning"
    }

    fn apply(&self, plan: &Query, _ctx: &PlanContext) -> Option<Query> {
        let (next, changed) = prune(plan.clone(), &Needed::All);
        changed.then_some(next)
    }
}

/// What the operators above the current node read from its output.
#[derive(Clone)]
enum Needed {
    /// Everything — the root, and anything feeding a join.
    All,
    /// Exactly these attributes.
    Attrs(BTreeSet<String>),
}

impl Needed {
    fn of<'a>(names: impl IntoIterator<Item = &'a str>) -> Needed {
        Needed::Attrs(names.into_iter().map(str::to_string).collect())
    }

    /// This set plus the attributes `names` (All absorbs everything).
    fn plus<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Needed {
        match self {
            Needed::All => Needed::All,
            Needed::Attrs(set) => {
                let mut set = set.clone();
                set.extend(names.into_iter().map(str::to_string));
                Needed::Attrs(set)
            }
        }
    }
}

fn prune(mut q: Query, needed: &Needed) -> (Query, bool) {
    let mut narrowed = false;
    if let (Query::Project { attrs, .. }, Needed::Attrs(set)) = (&mut q, needed) {
        let kept: Vec<String> = attrs
            .iter()
            .filter(|a| set.contains(a.as_str()))
            .cloned()
            .collect();
        // a projection onto nothing keeps its attributes
        narrowed = !kept.is_empty() && kept.len() < attrs.len();
        if narrowed {
            *attrs = kept;
        }
    }
    // what this operator and everything above it read of its input
    let child_needed = match &q {
        // below a projection only its own (possibly narrowed) output
        // attributes are needed
        Query::Project { attrs, .. } => Cow::Owned(Needed::of(attrs.iter().map(String::as_str))),
        Query::Filter { pred, .. } => {
            let refs = pred.referenced_attrs();
            Cow::Owned(needed.plus(refs.iter().map(|r| r.as_ref())))
        }
        // canonical row ids fingerprint the whole output tuple: everything
        // below a join is observable
        Query::Join { .. } => Cow::Owned(Needed::All),
        Query::GroupAgg { by, aggs, .. } => {
            let mut wanted: BTreeSet<String> = by.iter().cloned().collect();
            for (_, agg) in aggs {
                if let Some(attr) = agg.input_attr() {
                    wanted.insert(attr.to_string());
                }
            }
            Cow::Owned(Needed::Attrs(wanted))
        }
        Query::OrderBy { attr, .. } => Cow::Owned(needed.plus([attr.as_str()])),
        _ => Cow::Borrowed(needed),
    };
    let (q, changed) = q.map_input(|input| prune(input, &child_needed));
    (q, narrowed || changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggSpec;
    use crate::testutil::retail_db;

    fn ctx_apply(q: &Query) -> Option<Query> {
        ProjectionPruning.apply(q, &PlanContext::without_stats())
    }

    #[test]
    fn narrows_project_under_group_agg() {
        let q = Query::scan("customers")
            .project(&["name", "age", "cid"])
            .group_agg(&["name"], &[("oldest", AggSpec::Max("age".into()))]);
        let pruned = ctx_apply(&q).expect("cid is read by nothing downstream");
        let plan = pruned.explain();
        assert!(plan.contains("project(name, age)"), "{plan}");
        assert!(ctx_apply(&pruned).is_none(), "fixpoint");
        // narrowing never changes what the query produces
        let db = retail_db();
        let a = q.eval(&db).unwrap();
        let b = pruned.eval(&db).unwrap();
        assert_eq!(a.stored_keys(), b.stored_keys());
        for (key, t) in a.tuples().unwrap() {
            assert!(t.eq_data(&b.lookup(&key).unwrap()));
        }
    }

    #[test]
    fn noops_on_root_projection_and_below_joins() {
        // the root's output is the result: nothing narrows
        let q = Query::scan("customers").project(&["name", "age"]);
        assert!(ctx_apply(&q).is_none());
        // below a join the canonical row ids see every attribute
        let q = Query::scan("orders")
            .project(&["cid", "date", "pid"])
            .join("customers", "cid", "cid")
            .group_agg(&["customers.name"], &[("n", AggSpec::Count)]);
        assert!(
            ctx_apply(&q).is_none(),
            "pruning below a join would change canonical row ids"
        );
    }

    #[test]
    fn filter_and_sort_references_stay() {
        use crate::transform::Order;
        let q = Query::scan("customers")
            .project(&["name", "age", "cid"])
            .order_by("cid", Order::Asc)
            .group_agg(&["name"], &[("oldest", AggSpec::Max("age".into()))]);
        assert!(
            ctx_apply(&q).is_none(),
            "cid is the sort key — every projected attr is read"
        );
    }
}
