//! Pins the cost-modeled join-planning guarantee: the statistics-driven
//! relationship ordering (`fdm_core::stats`) may change the **order** work
//! happens in, never **what** a join produces.
//!
//! Two layers of pinning:
//!
//! * on a database crafted so the fan-out-aware plan genuinely differs
//!   from the old raw-entry-count plan (`JoinCostModel::Entries`), the
//!   denormalized rows are identical as data (same multiset of canonical
//!   tuple data keys) — and the test *proves* the plans differed by
//!   observing the attribute order the executed order leaves behind;
//! * on the retail workload (one relationship — every plan coincides),
//!   the outputs are **byte-identical**: same keys in the same order, same
//!   attributes in the same declaration order.

use fdm_core::{
    Domain, Participant, RelationBuilder, RelationF, RelationshipBuilder, SharedDomain, TupleF,
    Value, ValueType,
};
use fdm_fql::optimizer::{JoinCostModel, OptimizerConfig};
use fdm_fql::{join, join_with};
use fdm_workload::{generate, to_fdm, RetailConfig};

/// The schema join ordered by raw relationship entry counts.
fn join_by_entries(db: &fdm_core::DatabaseF) -> RelationF {
    join_with(
        db,
        &OptimizerConfig::new().with_join_cost(JoinCostModel::Entries),
    )
    .unwrap()
}

fn int_keyed(name: &str, key: &str, n: i64, attr: &str) -> RelationF {
    let mut b = RelationBuilder::new(name, &[key]);
    for i in 1..=n {
        b.push(
            Value::Int(i),
            TupleF::builder(format!("{name}{i}"))
                .attr(attr, format!("{name}_{i}"))
                .build(),
        );
    }
    b.build().unwrap()
}

/// A database where entry-count ordering and fan-out ordering disagree.
///
/// After `r1(A, B)` seeds the working rows (smallest relationship, both
/// plans start there), two relationships connect through `B`:
///
/// * `r2(B, C)` — 50 entries, one per distinct `B` key: fan-out 1.
///   Estimated rows = rows × 50/50 = rows.
/// * `r3(B, D)` — 40 entries piled onto 4 distinct `B` keys: fan-out 10.
///   Estimated rows = rows × 40/4 = 10 × rows.
///
/// Raw entry count prefers `r3` (40 < 50) — the plan that multiplies the
/// working rows tenfold before the cheap extension. The cost model
/// prefers `r2`.
fn fanout_db() -> fdm_core::DatabaseF {
    let aid = SharedDomain::new("aid", Domain::Typed(ValueType::Int));
    let bid = SharedDomain::new("bid", Domain::Typed(ValueType::Int));
    let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
    let did = SharedDomain::new("did", Domain::Typed(ValueType::Int));

    let mut r1 = RelationshipBuilder::new(
        "r1",
        vec![
            Participant::new("a", "aid", aid.clone()),
            Participant::new("b", "bid", bid.clone()),
        ],
    );
    for (a, b) in [(1, 1), (1, 2), (2, 3), (2, 4), (2, 5)] {
        r1.push_link(&[Value::Int(a), Value::Int(b)]).unwrap();
    }
    let mut r2 = RelationshipBuilder::new(
        "r2",
        vec![
            Participant::new("b", "bid", bid.clone()),
            Participant::new("c", "cid", cid.clone()),
        ],
    );
    for b in 1..=50 {
        r2.push_link(&[Value::Int(b), Value::Int(b)]).unwrap();
    }
    let mut r3 = RelationshipBuilder::new(
        "r3",
        vec![
            Participant::new("b", "bid", bid.clone()),
            Participant::new("d", "did", did.clone()),
        ],
    );
    for b in 1..=4 {
        for d in 1..=10 {
            r3.push_link(&[Value::Int(b), Value::Int(d)]).unwrap();
        }
    }

    fdm_core::DatabaseF::new("fanout")
        .with_domain(aid)
        .with_domain(bid)
        .with_domain(cid)
        .with_domain(did)
        .with_relation(int_keyed("a", "aid", 2, "an"))
        .with_relation(int_keyed("b", "bid", 50, "bn"))
        .with_relation(int_keyed("c", "cid", 50, "cn"))
        .with_relation(int_keyed("d", "did", 10, "dn"))
        .with_relationship(r1.build().unwrap())
        .with_relationship(r2.build().unwrap())
        .with_relationship(r3.build().unwrap())
}

/// The canonical, order-insensitive content of a join result: every
/// tuple's sorted-attribute data key, as a sorted multiset.
fn row_data_keys(rel: &RelationF) -> Vec<Value> {
    let mut keys: Vec<Value> = rel
        .tuples()
        .unwrap()
        .into_iter()
        .map(|(_, t)| t.data_key().unwrap())
        .collect();
    keys.sort();
    keys
}

/// Which of the two relationship names was executed earlier, read off the
/// declaration-order attribute list the executed plan leaves behind.
fn first_executed(rel: &RelationF, earlier: &str, later: &str) -> bool {
    let (_, t) = rel.tuples().unwrap().remove(0);
    let names: Vec<String> = t.attr_names().map(|n| n.to_string()).collect();
    let pos = |prefix: &str| {
        names
            .iter()
            .position(|n| n.starts_with(prefix))
            .unwrap_or_else(|| panic!("no attribute with prefix {prefix} in {names:?}"))
    };
    pos(earlier) < pos(later)
}

#[test]
fn stats_plan_changes_order_never_results() {
    let db = fanout_db();
    let by_stats = join(&db).unwrap();
    let by_entries = join_by_entries(&db);

    // The two plans genuinely differ: the cost model binds the fan-out-1
    // r2 (reaching relation `c`) before the row-multiplying r3 (reaching
    // `d`); raw entry count does the reverse. The executed order is
    // visible in the attribute declaration order of the output rows.
    assert!(
        first_executed(&by_stats, "c.", "d."),
        "cost model should bind r2 (→ c) before r3 (→ d)"
    );
    assert!(
        first_executed(&by_entries, "d.", "c."),
        "entry-count heuristic should bind r3 (→ d) before r2 (→ c)"
    );

    // ...and yet the produced rows are identical as data.
    assert_eq!(by_stats.len(), 40, "5 seeds × fanout, b5 dangling in r3");
    assert_eq!(by_stats.len(), by_entries.len());
    assert_eq!(row_data_keys(&by_stats), row_data_keys(&by_entries));
}

#[test]
fn coinciding_plans_are_byte_identical() {
    // One relationship — every ordering heuristic picks it first, so the
    // outputs must agree to the byte: key sequence, attribute declaration
    // order, every value.
    let db = to_fdm(&generate(&RetailConfig::small()));
    let by_stats = join(&db).unwrap();
    let by_entries = join_by_entries(&db);
    let flatten = |rel: &RelationF| -> Vec<(Value, Vec<(String, Value)>)> {
        rel.tuples()
            .unwrap()
            .into_iter()
            .map(|(k, t)| {
                (
                    k,
                    t.materialize()
                        .unwrap()
                        .into_iter()
                        .map(|(n, v)| (n.to_string(), v))
                        .collect(),
                )
            })
            .collect()
    };
    assert_eq!(flatten(&by_stats), flatten(&by_entries));
}

#[test]
fn workload_relationship_stats_are_current() {
    let cfg = RetailConfig::small();
    let data = generate(&cfg);
    let db = to_fdm(&data);
    let order = db.relationship("order").unwrap();
    let stats = order.stats();
    assert_eq!(stats.entries(), data.orders.len());
    let distinct_cids: std::collections::BTreeSet<i64> =
        data.orders.iter().map(|(c, _, _, _)| *c).collect();
    let distinct_pids: std::collections::BTreeSet<i64> =
        data.orders.iter().map(|(_, p, _, _)| *p).collect();
    assert_eq!(stats.distinct(0), distinct_cids.len());
    assert_eq!(stats.distinct(1), distinct_pids.len());
    // and they stay current through point mutations
    let order2 = order
        .insert_link(&[Value::Int(1), Value::Int(1_000_000)])
        .unwrap();
    assert_eq!(order2.stats().entries(), stats.entries() + 1);
    assert_eq!(order2.stats().distinct(1), stats.distinct(1) + 1);
}
