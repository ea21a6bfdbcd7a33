//! Pins the cost-modeled join-planning guarantee: the statistics-driven
//! relationship ordering (`fdm_core::stats`) may change the **order** work
//! happens in, never **what** a join produces.
//!
//! On a database crafted so the fan-out-aware plan binds relationships in
//! a different order than raw entry counts would, the test *proves* which
//! order ran by observing the attribute order it leaves behind, and the
//! denormalized rows equal a per-entry reference binder's as data (same
//! multiset of canonical tuple data keys). Byte-identity with a
//! reference where every order coincides (one relationship) is pinned by
//! `bulk_equivalence.rs::schema_join_matches_nested_scan_reference`.

use fdm_core::{
    DatabaseF, Domain, Participant, RelationBuilder, RelationF, RelationshipBuilder, SharedDomain,
    TupleF, Value, ValueType,
};
use fdm_fql::join;
use fdm_workload::{generate, to_fdm, RetailConfig};
use std::collections::BTreeMap;

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
fn fanout_db() -> DatabaseF {
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

    DatabaseF::new("fanout")
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

/// The schema join the slow way, for databases without
/// self-relationships: relationships in the database's order, every working
/// row against every entry, each participant bound by key lookup (a
/// dangling key drops the entry) or checked against the key it is already
/// bound to. No index and no cost model; returns the rows' data keys as a
/// sorted multiset.
fn reference_join(db: &DatabaseF) -> Vec<Value> {
    // a working row: the key each bound relation is bound to, and the
    // qualified attributes so far
    type Row = (BTreeMap<String, Value>, Vec<(String, Value)>);
    let mut rows: Vec<Row> = vec![(BTreeMap::new(), Vec::new())];
    for (rname, rsf) in db.relationships() {
        let mut next = Vec::new();
        for (row_keys, row_attrs) in &rows {
            'entry: for (args, rattrs) in rsf.iter() {
                let (mut keys, mut attrs) = (row_keys.clone(), row_attrs.clone());
                for (p, arg) in rsf.participants().iter().zip(&args) {
                    let rel = p.function.to_string();
                    if let Some(bound) = keys.get(&rel) {
                        if bound != arg {
                            continue 'entry;
                        }
                        continue;
                    }
                    let Some(t) = db.relation(&rel).unwrap().lookup(arg) else {
                        continue 'entry;
                    };
                    attrs.push((format!("{rel}.{}", p.key), arg.clone()));
                    for (n, v) in t.materialize().unwrap() {
                        attrs.push((format!("{rel}.{n}"), v));
                    }
                    keys.insert(rel, arg.clone());
                }
                for (n, v) in rattrs.materialize().unwrap() {
                    attrs.push((format!("{rname}.{n}"), v));
                }
                next.push((keys, attrs));
            }
        }
        rows = next;
    }
    let mut out: Vec<Value> = rows
        .into_iter()
        .map(|(_, attrs)| {
            let mut t = TupleF::builder("j");
            for (n, v) in attrs {
                t = t.attr(n, v);
            }
            t.build().data_key().unwrap()
        })
        .collect();
    out.sort();
    out
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

    // The cost model binds the fan-out-1 r2 (reaching relation `c`) before
    // the row-multiplying r3 (reaching `d`), though raw entry count would
    // pick r3 first. The executed order is visible in the attribute
    // declaration order of the output rows.
    assert!(
        first_executed(&by_stats, "c.", "d."),
        "cost model should bind r2 (→ c) before r3 (→ d)"
    );

    // ...and the produced rows are the reference binder's, as data.
    assert_eq!(by_stats.len(), 40, "5 seeds × fanout, b5 dangling in r3");
    assert_eq!(row_data_keys(&by_stats), reference_join(&db));
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
