//! The bulk-construction fast path must be **observably invisible**: every
//! migrated FQL operator has to produce results identical to the old
//! per-tuple `insert` idiom on the retail workload.
//!
//! Each reference below re-implements the pre-builder idiom (`out =
//! out.insert(...)?` into a fresh `RelationF`, or the nested relationship
//! scan for `join`) and compares fingerprints: the exact key sequence plus
//! every tuple's materialized, name-sorted attribute list.

use fdm_core::{
    DatabaseF, Domain, FnValue, Name, Participant, RelationBuilder, RelationF, RelationshipBuilder,
    RelationshipF, SharedDomain, TupleF, Value, ValueType,
};
use fdm_expr::Params;
use fdm_fql::prelude::*;
use fdm_fql::{aggregate, group, join_on, pivot, reduce_db_with_stats, JoinOn, Query};
use fdm_workload::{generate, to_fdm, RetailConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn shop() -> DatabaseF {
    to_fdm(&generate(&RetailConfig {
        customers: 400,
        products: 60,
        orders: 1500,
        product_skew: 0.8,
        inactive_customers: 0.2,
        seed: 20260730,
    }))
}

/// A relation's full observable content: keys in iteration order, each with
/// the tuple's materialized attributes sorted by name.
fn fingerprint(rel: &RelationF) -> Vec<(Value, Vec<(String, Value)>)> {
    rel.tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| {
            let mut attrs: Vec<(String, Value)> = t
                .materialize()
                .unwrap()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect();
            attrs.sort_by(|a, b| a.0.cmp(&b.0));
            (k, attrs)
        })
        .collect()
}

fn assert_same(bulk: &RelationF, reference: &RelationF, what: &str) {
    assert_eq!(bulk.len(), reference.len(), "{what}: cardinality");
    assert_eq!(
        fingerprint(bulk),
        fingerprint(reference),
        "{what}: keys or tuple data diverge"
    );
}

/// The old idiom: rebuild a relation one persistent insert at a time.
fn insert_loop(
    name: &str,
    key_attrs: &[&str],
    entries: impl IntoIterator<Item = (Value, Arc<TupleF>)>,
) -> RelationF {
    let mut out = RelationF::new(name, key_attrs);
    for (k, t) in entries {
        out = out.insert_arc(k, t).expect("reference insert");
    }
    out
}

#[test]
fn filter_matches_insert_loop() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let bulk = filter_expr(&customers, "age > $min", Params::new().set("min", 42)).unwrap();
    let reference = insert_loop(
        "customers",
        &["cid"],
        customers
            .tuples()
            .unwrap()
            .into_iter()
            .filter(|(_, t)| t.get("age").unwrap() > Value::Int(42)),
    );
    assert_same(&bulk, &reference, "filter");
}

#[test]
fn order_by_and_limit_match_insert_loop() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let bulk = order_by(&customers, "age", Order::Asc).unwrap();
    let mut entries: Vec<(Value, Value, Arc<TupleF>)> = customers
        .tuples()
        .unwrap()
        .into_iter()
        .map(|(k, t)| (t.get("age").unwrap(), k, t))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let reference = insert_loop(
        bulk.name(),
        &["rank"],
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (_, _, t))| (Value::Int(i as i64), t)),
    );
    assert_same(&bulk, &reference, "order_by");
    assert_same(
        &limit(&bulk, 50).unwrap(),
        &insert_loop(
            bulk.name(),
            &["rank"],
            reference.tuples().unwrap().into_iter().take(50),
        ),
        "limit",
    );
}

#[test]
fn group_aggregate_matches_insert_loop() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let groups = group(&customers, &["state"]).unwrap();
    let bulk = aggregate(
        &groups,
        &[("n", AggSpec::Count), ("avg", AggSpec::Avg("age".into()))],
    )
    .unwrap();
    let mut reference = RelationF::new("aggregates", &["state"]);
    for (key, members) in groups.iter() {
        let mut sum = 0.0;
        for m in &members {
            sum += m.get("age").unwrap().as_float("age").unwrap();
        }
        let t = TupleF::builder(format!("agg[{key}]"))
            .attr("state", key.clone())
            .attr("n", members.len() as i64)
            .attr("avg", sum / members.len() as f64)
            .build();
        reference = reference.insert(key, t).unwrap();
    }
    assert_same(&bulk, &reference, "aggregate");
}

#[test]
fn pivot_matches_insert_loop() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let bulk = pivot(&customers, "state", "age", &AggSpec::Count).unwrap();
    // reference: bucket by (state, age) with per-tuple inserts
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<Value, BTreeMap<Value, i64>> = BTreeMap::new();
    for (_, t) in customers.tuples().unwrap() {
        *cells
            .entry(t.get("state").unwrap())
            .or_default()
            .entry(t.get("age").unwrap())
            .or_default() += 1;
    }
    let mut reference = RelationF::new(bulk.name(), &["state"]);
    for (state, cols) in cells {
        let mut b = TupleF::builder(format!("pivot[{state}]")).attr("state", state.clone());
        for (age, n) in cols {
            b = b.attr(age.to_string(), n);
        }
        reference = reference.insert(state, b.build()).unwrap();
    }
    assert_same(&bulk, &reference, "pivot");
}

#[test]
fn schema_join_matches_nested_scan_reference() {
    let db = shop();
    let bulk = fdm_fql::join(&db).unwrap();
    // The old algorithm on this schema: one seed row, then for every
    // relationship entry in key order, bind customer and product by lookup
    // (inner join: dangling keys drop the entry).
    let customers = db.relation("customers").unwrap();
    let products = db.relation("products").unwrap();
    let order = db.relationship("order").unwrap();
    let mut reference = RelationF::new("join_result", &["row"]);
    let mut i = 0i64;
    for (args, rattrs) in order.iter() {
        let (Some(c), Some(p)) = (customers.lookup(&args[0]), products.lookup(&args[1])) else {
            continue;
        };
        let mut b = TupleF::builder(format!("j{i}"));
        b = b.attr("customers.cid", args[0].clone());
        for (n, v) in c.materialize().unwrap() {
            b = b.attr(format!("customers.{n}"), v);
        }
        b = b.attr("products.pid", args[1].clone());
        for (n, v) in p.materialize().unwrap() {
            b = b.attr(format!("products.{n}"), v);
        }
        for (n, v) in rattrs.materialize().unwrap() {
            b = b.attr(format!("order.{n}"), v);
        }
        reference = reference.insert(Value::Int(i), b.build()).unwrap();
        i += 1;
    }
    assert_same(&bulk, &reference, "schema join");
}

#[test]
fn join_on_matches_schema_join_cardinality_and_data() {
    let db = shop();
    let order_rel = db
        .relationship("order")
        .unwrap()
        .to_relation()
        .renamed("orders");
    let db2 = db.with_relation(order_rel);
    let on = join_on(
        &db2,
        &[
            JoinOn::new("customers", "cid", "orders", "cid"),
            JoinOn::new("orders", "pid", "products", "pid"),
        ],
    )
    .unwrap();
    let schema = fdm_fql::join(&db).unwrap();
    assert_eq!(on.len(), schema.len(), "both join strategies agree on size");
    // every schema-join row has a data-equal counterpart in the on-join
    // (modulo the qualifier prefix of the flattened relationship)
    let mut schema_dates: Vec<Value> = schema
        .tuples()
        .unwrap()
        .into_iter()
        .map(|(_, t)| t.get("order.date").unwrap())
        .collect();
    let mut on_dates: Vec<Value> = on
        .tuples()
        .unwrap()
        .into_iter()
        .map(|(_, t)| t.get("orders.date").unwrap())
        .collect();
    schema_dates.sort();
    on_dates.sort();
    assert_eq!(schema_dates, on_dates);
}

// ───────────── reduce_db / outer: bulk ≡ per-entry insert, plus sharing ─────────────

/// The semi-join fixpoint as `subdb.rs` computed it before the worklist:
/// whole rounds over every relationship until nothing changes, cloning the
/// surviving keys into ordered sets.
fn reference_fixpoint(db: &DatabaseF) -> BTreeMap<Name, BTreeSet<Value>> {
    let relationships: Vec<Arc<RelationshipF>> =
        db.relationships().map(|(_, r)| r.clone()).collect();
    let mut active: BTreeMap<Name, BTreeSet<Value>> = BTreeMap::new();
    for rsf in &relationships {
        for p in rsf.participants() {
            if let Ok(rel) = db.relation(&p.function) {
                active
                    .entry(p.function.clone())
                    .or_insert_with(|| rel.stored_keys().into_iter().collect());
            }
        }
    }
    loop {
        let mut changed = false;
        for rsf in &relationships {
            let mut per_participant = vec![BTreeSet::new(); rsf.participants().len()];
            for (args, _) in rsf.iter() {
                if survives(rsf, &args, &active) {
                    for (i, arg) in args.iter().enumerate() {
                        per_participant[i].insert(arg.clone());
                    }
                }
            }
            for (i, p) in rsf.participants().iter().enumerate() {
                if let Some(keys) = active.get_mut(&p.function) {
                    let before = keys.len();
                    keys.retain(|k| per_participant[i].contains(k));
                    changed |= keys.len() != before;
                }
            }
        }
        if !changed {
            return active;
        }
    }
}

fn survives(rsf: &RelationshipF, args: &[Value], active: &BTreeMap<Name, BTreeSet<Value>>) -> bool {
    rsf.participants().iter().zip(args).all(|(p, arg)| {
        active
            .get(&p.function)
            .is_none_or(|keys| keys.contains(arg))
    })
}

fn reference_restrict(rel: &RelationF, keep: impl Fn(&Value) -> bool) -> RelationF {
    let key_attrs: Vec<&str> = rel.key_attrs().iter().map(|k| k.as_ref()).collect();
    insert_loop(
        rel.name(),
        &key_attrs,
        rel.iter_stored().filter(|(k, _)| keep(k)),
    )
}

/// The deleted `reduce_db`: every relation restricted tuple by tuple, every
/// relationship rebuilt with one persistent `RelationshipF::insert` (and
/// its statistics upkeep) per surviving entry. Nothing is shared.
fn reference_reduce_db(db: &DatabaseF) -> DatabaseF {
    let active = reference_fixpoint(db);
    let mut out = DatabaseF::new(format!("{}_reduced", db.name()));
    for (name, entry) in db.iter() {
        out = match entry {
            FnValue::Relation(rel) => match active.get(name) {
                Some(keep) => out.with_entry(
                    name.as_ref(),
                    FnValue::from(reference_restrict(rel, |k| keep.contains(k))),
                ),
                None => out.with_entry(name.as_ref(), entry.clone()),
            },
            FnValue::Relationship(rsf) => {
                let mut reduced = RelationshipF::new(rsf.name(), rsf.participants().to_vec());
                for (args, attrs) in rsf.iter() {
                    if survives(rsf, &args, &active) {
                        reduced = reduced.insert(&args, (*attrs).clone()).unwrap();
                    }
                }
                out.with_entry(name.as_ref(), FnValue::from(reduced))
            }
            other => out.with_entry(name.as_ref(), other.clone()),
        };
    }
    for (_, d) in db.shared_domains() {
        out = out.with_domain(d.clone());
    }
    out
}

/// The deleted `outer`, on the same reference fixpoint.
fn reference_outer(db: &DatabaseF, marked: &[&str]) -> DatabaseF {
    let active = reference_fixpoint(db);
    let mut out = DatabaseF::new(format!("{}_outer", db.name()));
    for (name, entry) in db.iter() {
        out = match entry {
            FnValue::Relation(rel) if marked.contains(&name.as_ref()) => {
                let keep = active.get(name).cloned().unwrap_or_default();
                let inner =
                    reference_restrict(rel, |k| keep.contains(k)).renamed(format!("{name}.inner"));
                let outer =
                    reference_restrict(rel, |k| !keep.contains(k)).renamed(format!("{name}.outer"));
                out.with_entry(format!("{name}.inner"), FnValue::from(inner))
                    .with_entry(format!("{name}.outer"), FnValue::from(outer))
            }
            FnValue::Relation(rel) => match active.get(name) {
                Some(keep) => out.with_entry(
                    name.as_ref(),
                    FnValue::from(reference_restrict(rel, |k| keep.contains(k))),
                ),
                None => out.with_entry(name.as_ref(), entry.clone()),
            },
            other => out.with_entry(name.as_ref(), other.clone()),
        };
    }
    out
}

/// Every entry of the two databases agrees: relations by name, key
/// attributes, keys and tuple data; relationships by name, participants,
/// entries **and statistics** — entry count, per-position distinct counts
/// and the sketch registers themselves.
fn assert_same_db(got: &DatabaseF, want: &DatabaseF, what: &str) {
    assert_eq!(got.name(), want.name(), "{what}: database name");
    assert_eq!(got.names(), want.names(), "{what}: entry names");
    for (name, entry) in want.iter() {
        match (got.entry(name).unwrap(), entry) {
            (FnValue::Relation(g), FnValue::Relation(w)) => {
                assert_eq!(g.name(), w.name(), "{what}/{name}: relation name");
                assert_eq!(
                    g.key_attrs(),
                    w.key_attrs(),
                    "{what}/{name}: key attributes"
                );
                assert_same(g, w, &format!("{what}/{name}"));
            }
            (FnValue::Relationship(g), FnValue::Relationship(w)) => {
                assert_eq!(g.name(), w.name(), "{what}/{name}: relationship name");
                let sig = |r: &RelationshipF| -> Vec<(Name, Name)> {
                    r.participants()
                        .iter()
                        .map(|p| (p.function.clone(), p.key.clone()))
                        .collect()
                };
                assert_eq!(sig(g), sig(w), "{what}/{name}: participants");
                assert_eq!(g.len(), w.len(), "{what}/{name}: entry count");
                for ((ga, gt), (wa, wt)) in g.iter().zip(w.iter()) {
                    assert_eq!(ga, wa, "{what}/{name}: entry keys");
                    assert!(gt.eq_data(&wt), "{what}/{name}: attributes of {ga:?}");
                }
                assert_eq!(g.stats().entries(), w.stats().entries(), "{what}/{name}");
                for pos in 0..w.arity_k() {
                    assert_eq!(
                        g.stats().distinct(pos),
                        w.stats().distinct(pos),
                        "{what}/{name}: distinct keys at position {pos}"
                    );
                    assert!(
                        g.stats().sketch(pos) == w.stats().sketch(pos),
                        "{what}/{name}: sketch registers at position {pos}"
                    );
                }
            }
            (g, w) => assert_eq!(g.kind(), w.kind(), "{what}/{name}: entry kind"),
        }
    }
    let domains =
        |db: &DatabaseF| -> Vec<Name> { db.shared_domains().map(|(n, _)| n.clone()).collect() };
    assert_eq!(domains(got), domains(want), "{what}: shared domains");
}

/// Where the reference removed nothing from an entry, the output entry is
/// the input's own `Arc`; where it removed something, it is not.
fn assert_shares_untouched(db: &DatabaseF, reduced: &DatabaseF, reference: &DatabaseF) {
    for (name, entry) in db.iter() {
        let (len, kept) = match (entry, reference.entry(name).unwrap()) {
            (FnValue::Relation(a), FnValue::Relation(b)) => (a.len(), b.len()),
            (FnValue::Relationship(a), FnValue::Relationship(b)) => (a.len(), b.len()),
            _ => continue,
        };
        assert_eq!(
            entry.identity() == reduced.entry(name).unwrap().identity(),
            len == kept,
            "'{name}' ({kept} of {len} kept) must be shared exactly when nothing is reduced"
        );
    }
}

fn int_domain(name: &str) -> SharedDomain {
    SharedDomain::new(name, Domain::Typed(ValueType::Int))
}

fn ids(name: &str, key: &str, keys: impl IntoIterator<Item = i64>) -> RelationF {
    let mut b = RelationBuilder::new(name, &[key]);
    for k in keys {
        b.push(
            Value::Int(k),
            TupleF::builder("t").attr("n", k * 10).build(),
        );
    }
    b.build().unwrap()
}

fn links(
    name: &str,
    left: (&str, &str),
    right: (&str, &str),
    pairs: &[(i64, i64)],
) -> RelationshipF {
    let mut b = RelationshipBuilder::new(
        name,
        vec![
            Participant::new(left.0, left.1, int_domain(left.1)),
            Participant::new(right.0, right.1, int_domain(right.1)),
        ],
    );
    for (l, r) in pairs {
        b.push(
            &[Value::Int(*l), Value::Int(*r)],
            TupleF::builder("l").attr("w", l + r).build(),
        )
        .unwrap();
    }
    b.build().unwrap()
}

/// The retail fixture without the two orders of product 10: Bob, who
/// ordered nothing else, goes with them.
fn cascade_db() -> DatabaseF {
    let db = fdm_fql::testutil::retail_db();
    let order = db.relationship("order").unwrap();
    let mut rebuilt = RelationshipBuilder::new("order", order.participants().to_vec());
    for (args, attrs) in order.iter_entries().filter(|(a, _)| a[1] != Value::Int(10)) {
        rebuilt.push_arc(args, attrs.clone()).unwrap();
    }
    db.with_relationship(rebuilt.build().unwrap())
}

/// a —ab— b —bc— c —cd— d, where only `cd` knows that c2 is dead: `bc`
/// and then `ab` learn it one rescan each, so rounds alone need three.
fn chain_db() -> DatabaseF {
    DatabaseF::new("chain")
        .with_relation(ids("a", "ak", 1..=3))
        .with_relation(ids("b", "bk", 1..=3))
        .with_relation(ids("c", "ck", 1..=3))
        .with_relation(ids("d", "dk", [1, 3]))
        .with_relationship(links(
            "ab",
            ("a", "ak"),
            ("b", "bk"),
            &[(1, 1), (2, 2), (3, 3)],
        ))
        .with_relationship(links(
            "bc",
            ("b", "bk"),
            ("c", "ck"),
            &[(1, 1), (2, 2), (3, 3)],
        ))
        .with_relationship(links("cd", ("c", "ck"), ("d", "dk"), &[(1, 1), (3, 3)]))
}

/// `order` names a `products` relation the database does not hold (that
/// position is unconstrained) and a customer 9 nobody stored (that entry
/// dies, and takes nothing with it).
fn dangling_db() -> DatabaseF {
    DatabaseF::new("dangling")
        .with_relation(ids("customers", "cid", 1..=4))
        .with_relationship(links(
            "order",
            ("customers", "cid"),
            ("products", "pid"),
            &[(1, 70), (1, 71), (3, 70), (9, 72)],
        ))
}

/// One relation at both positions: the two restrictions intersect, which
/// can kill entries the same scan kept.
fn self_db() -> DatabaseF {
    DatabaseF::new("org")
        .with_relation(ids("people", "pid", 1..=5))
        .with_relationship(links(
            "manages",
            ("people", "eid"),
            ("people", "mid"),
            &[(2, 1), (3, 2), (1, 3), (4, 1), (5, 5)],
        ))
}

#[test]
fn reduce_db_and_outer_match_per_entry_reference() {
    for (what, db, marked) in [
        ("retail", shop(), vec!["customers", "products"]),
        ("cascade", cascade_db(), vec!["products"]),
        ("chain", chain_db(), vec!["a", "d"]),
        ("dangling", dangling_db(), vec!["customers", "nowhere"]),
        ("self", self_db(), vec!["people"]),
    ] {
        let reference = reference_reduce_db(&db);
        let reduced = reduce_db(&db).unwrap();
        assert_same_db(&reduced, &reference, what);
        assert_shares_untouched(&db, &reduced, &reference);
        // a reduced database is its own reduction, entry for entry
        let again = reduce_db(&reduced).unwrap();
        for (name, entry) in reduced.iter() {
            assert_eq!(
                entry.identity(),
                again.entry(name).unwrap().identity(),
                "{what}/{name}: nothing left to reduce, so the entry is shared"
            );
        }
        assert_same_db(
            &outer(&db, &marked).unwrap(),
            &reference_outer(&db, &marked),
            &format!("{what} outer"),
        );
    }
    // the fixtures do reduce what their names promise
    let sizes = |db: &DatabaseF, names: &[&str]| -> Vec<usize> {
        names
            .iter()
            .map(|n| db.relation(n).unwrap().len())
            .collect()
    };
    let cascade = reduce_db(&cascade_db()).unwrap();
    assert_eq!(sizes(&cascade, &["customers", "products"]), [1, 1]);
    let chain = reduce_db(&chain_db()).unwrap();
    assert_eq!(sizes(&chain, &["a", "b", "c", "d"]), [2, 2, 2, 2]);
    assert_eq!(chain.relationship("ab").unwrap().len(), 2);
    let dangling = reduce_db(&dangling_db()).unwrap();
    assert_eq!(sizes(&dangling, &["customers"]), [2]);
    assert_eq!(dangling.relationship("order").unwrap().len(), 3);
    let org = reduce_db(&self_db()).unwrap();
    assert_eq!(sizes(&org, &["people"]), [4], "4 manages, is never managed");
}

#[test]
fn reduce_db_worklist_scans_only_what_a_shrink_invalidates() {
    let scans = |db: &DatabaseF| -> Vec<(String, usize)> {
        reduce_db_with_stats(db)
            .unwrap()
            .1
            .visits
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect()
    };
    // one relationship: its own restriction cannot invalidate its entries
    assert_eq!(scans(&shop()), [("order".to_string(), 1)]);
    assert_eq!(scans(&cascade_db()), [("order".to_string(), 1)]);
    // the chain: `cd` shrinks c (rescan `bc`), which shrinks b (rescan `ab`)
    assert_eq!(
        scans(&chain_db()),
        [
            ("ab".to_string(), 2),
            ("bc".to_string(), 2),
            ("cd".to_string(), 1)
        ]
    );
    // one relation at two positions: the intersection can invalidate the
    // scan that produced it, so the relationship rescans itself
    assert!(scans(&self_db())[0].1 >= 2);
}

#[test]
fn reduce_db_shared_relationship_keeps_its_statistics() {
    // Entries removed *before* reduce_db leave their keys in the
    // insert-monotone sketches; a relationship reduce_db has nothing to
    // remove from comes back as the same Arc, those statistics included.
    let db = fdm_fql::testutil::retail_db();
    let order = db.relationship("order").unwrap();
    let order = order.remove(&[Value::Int(2), Value::Int(10)]).unwrap();
    let db = db.with_relationship(order);
    let reduced = reduce_db(&db).unwrap();
    assert!(Arc::ptr_eq(
        &db.relationship("order").unwrap(),
        &reduced.relationship("order").unwrap()
    ));
    assert_eq!(
        reduced.relation("customers").unwrap().len(),
        1,
        "Bob is gone"
    );
}

/// Every stored customer ordered, but product 12 was never stored: the
/// only dangling key sits at the second position.
fn second_dangling_db() -> DatabaseF {
    DatabaseF::new("second")
        .with_relation(ids("customers", "cid", 1..=3))
        .with_relation(ids("products", "pid", [10, 11]))
        .with_relationship(links(
            "order",
            ("customers", "cid"),
            ("products", "pid"),
            &[(1, 10), (2, 11), (3, 12)],
        ))
}

/// The reference, except that a relationship it keeps whole is the
/// input's own, statistics included: entries removed before the reduction
/// left their keys in the insert-monotone sketches, which a rebuild does
/// not see.
fn reference_sharing(db: &DatabaseF) -> DatabaseF {
    let mut reference = reference_reduce_db(db);
    for (name, rsf) in db.relationships() {
        if reference.relationship(name).unwrap().len() == rsf.len() {
            reference = reference.with_entry(name.as_ref(), FnValue::Relationship(rsf.clone()));
        }
    }
    reference
}

#[test]
fn reduce_db_answers_from_key_maps_unless_a_key_dangles() {
    // `(relationship, visits, entry scans)`, after checking the result
    let work = |db: &DatabaseF| -> Vec<(String, usize, usize)> {
        let (reduced, stats) = reduce_db_with_stats(db).unwrap();
        assert_same_db(&reduced, &reference_sharing(db), db.name());
        stats
            .visits
            .iter()
            .zip(&stats.entry_scans)
            .map(|((name, visits), (_, scans))| (name.to_string(), *visits, *scans))
            .collect()
    };
    let order = |visits, scans| vec![("order".to_string(), visits, scans)];
    // every key of every entry is stored: no entry is touched, although
    // inactive customers and unsold products are reduced away
    assert_eq!(work(&shop()), order(1, 0));
    assert_eq!(
        reduce_db_with_stats(&shop())
            .unwrap()
            .1
            .answered_from_key_maps(),
        1
    );
    assert_eq!(work(&cascade_db()), order(1, 0));
    // entries removed after the build: their keys left the count maps
    let removed = fdm_fql::testutil::retail_db();
    let rsf = removed.relationship("order").unwrap();
    let removed = removed.with_relationship(rsf.remove(&[Value::Int(2), Value::Int(10)]).unwrap());
    assert_eq!(work(&removed), order(1, 0));
    // a dangling key at either position forces the scan
    assert_eq!(work(&dangling_db()), order(1, 1));
    assert_eq!(work(&second_dangling_db()), order(1, 1));
    assert_eq!(
        reduce_db_with_stats(&dangling_db())
            .unwrap()
            .1
            .answered_from_key_maps(),
        0
    );
    // the chain: `cd` answers from its maps and shrinks c, after which
    // c2 dangles in `bc`, and then b2 in `ab`
    assert_eq!(
        work(&chain_db()),
        [
            ("ab".to_string(), 2, 1),
            ("bc".to_string(), 2, 1),
            ("cd".to_string(), 1, 0)
        ]
    );
    // one relation at two positions: the first visit is answered from
    // the maps, the intersection it leaves makes person 4 dangle
    assert_eq!(work(&self_db()), [("manages".to_string(), 2, 1)]);
}

/// A random database for the key-map property: three relations over
/// small key ranges, and relationships among them (or a relation the
/// database lacks, `r3`), built in bulk, then thinned by `remove` so their
/// statistics went through `with_removed`. Entry keys overshoot the
/// relations' ranges, so keys dangle at either position.
fn random_db(rels: &[BTreeSet<i64>], rsfs: &[RandomLinks]) -> DatabaseF {
    let mut db = DatabaseF::new("random");
    for (i, keys) in rels.iter().enumerate() {
        db = db.with_relation(ids(&format!("r{i}"), "k", keys.iter().copied()));
    }
    for (n, (left, right, pairs, removals)) in rsfs.iter().enumerate() {
        let pairs: Vec<(i64, i64)> = pairs.iter().copied().collect();
        let mut rsf = links(
            &format!("l{n}"),
            (&format!("r{left}"), "lk"),
            (&format!("r{right}"), "rk"),
            &pairs,
        );
        for &at in removals {
            if let Some((l, r)) = pairs.get(at % (pairs.len() + 1)) {
                if rsf.relates(&[Value::Int(*l), Value::Int(*r)]) {
                    rsf = rsf.remove(&[Value::Int(*l), Value::Int(*r)]).unwrap();
                }
            }
        }
        db = db.with_relationship(rsf);
    }
    db
}

/// `(left relation, right relation, entries, entries to remove)`.
type RandomLinks = (usize, usize, BTreeSet<(i64, i64)>, Vec<usize>);

proptest::proptest! {
    #[test]
    fn key_map_step_matches_the_entry_scan_reference(
        rels in proptest::collection::vec(proptest::collection::btree_set(0i64..8, 0..8), 3),
        rsfs in proptest::collection::vec(
            (
                0usize..4,
                0usize..4,
                proptest::collection::btree_set((0i64..10, 0i64..10), 0..14),
                proptest::collection::vec(0usize..16, 0..5),
            ),
            1..5,
        ),
        marked in 0usize..4,
    ) {
        let db = random_db(&rels, &rsfs);
        let reference = reference_sharing(&db);
        let (reduced, stats) = reduce_db_with_stats(&db).unwrap();
        assert_same_db(&reduced, &reference, "random");
        assert_shares_untouched(&db, &reduced, &reference);
        // a relationship walks its entries exactly when it loses some
        for ((name, visits), (_, scans)) in stats.visits.iter().zip(&stats.entry_scans) {
            assert!(scans <= visits, "{name}: {scans} scans in {visits} visits");
            let (before, after) = (
                db.relationship(name).unwrap().len(),
                reference.relationship(name).unwrap().len(),
            );
            assert_eq!(*scans == 0, before == after, "{name}: {scans} entry scans, {after} of {before} kept");
        }
        let marked = [format!("r{marked}")];
        let marked: Vec<&str> = marked.iter().map(String::as_str).collect();
        assert_same_db(
            &outer(&db, &marked).unwrap(),
            &reference_outer(&db, &marked),
            "random outer",
        );
    }
}

#[test]
fn setops_match_insert_loop() {
    let db = shop();
    let copy = deep_copy(&db).unwrap();
    assert_same(
        &copy.relation("customers").unwrap(),
        &db.relation("customers").unwrap(),
        "deep_copy",
    );
    // mutate the copy, then union/minus must match key-by-key references
    let customers = copy.relation("customers").unwrap();
    let customers = customers.delete(&Value::Int(1)).unwrap();
    let copy2 = copy.with_entry("customers", fdm_core::FnValue::from(customers));
    let u = union(&db, &copy2).unwrap();
    assert_same(
        &u.relation("customers").unwrap(),
        &db.relation("customers").unwrap(),
        "union with subset",
    );
    let m = minus(&db, &copy2).unwrap();
    assert_eq!(m.relation("customers").unwrap().len(), 1);
    let i = intersect(&db, &copy2).unwrap();
    assert_eq!(
        i.relation("customers").unwrap().len(),
        db.relation("customers").unwrap().len() - 1
    );
}

#[test]
fn plan_pipeline_matches_eager_operators() {
    let db = shop();
    let order_rel = db
        .relationship("order")
        .unwrap()
        .to_relation()
        .renamed("orders");
    let db = db.with_relation(order_rel);
    let q = Query::scan("orders")
        .join("customers", "cid", "cid")
        .filter("quantity > 2", Params::new())
        .group_agg(&["customers.state"], &[("n", AggSpec::Count)]);
    let lazy = q.clone().eval(&db).unwrap();
    let optimized = q.optimize().eval(&db).unwrap();
    assert_same(&lazy, &optimized, "optimizer must not change results");
}

#[test]
fn index_by_matches_per_tuple_grouping() {
    let db = shop();
    let customers = db.relation("customers").unwrap();
    let by_state = customers.index_by("state").unwrap();
    assert!(by_state.is_multi());
    let mut total = 0usize;
    for key in by_state.stored_keys() {
        let members = by_state.lookup_all(&key);
        total += members.len();
        for m in &members {
            assert_eq!(m.get("state").unwrap(), key);
        }
    }
    assert_eq!(total, customers.len(), "index_by partitions the relation");
    // group order within a key follows base key order (stable sort)
    let ny = by_state.lookup_all(&Value::str("NY"));
    let mut last = i64::MIN;
    for m in &ny {
        // tuple names are c<cid>, so recover cid ordering via the name
        let cid: i64 = m.name().trim_start_matches('c').parse().unwrap();
        assert!(cid > last, "stable grouping preserves base order");
        last = cid;
    }
}

#[test]
fn builder_duplicate_keys_error_like_insert() {
    let mut b = fdm_core::RelationBuilder::new("dup", &["id"]);
    b.push(Value::Int(2), TupleF::builder("t").attr("x", 1).build());
    b.push(Value::Int(1), TupleF::builder("t").attr("x", 2).build());
    b.push(Value::Int(2), TupleF::builder("t").attr("x", 3).build());
    let err = b.build().unwrap_err();
    assert!(
        matches!(err, fdm_core::FdmError::DuplicateKey { .. }),
        "builder mirrors insert's duplicate-key error, got {err}"
    );
}

/// A multi body (a secondary index) enumerates duplicate keys; `extend`
/// and `extend_stored` rebuild it as a unique relation and must surface
/// exactly the first error `RelationBuilder` reports for the same input.
#[test]
fn duplicate_key_error_is_identical() {
    let db = shop();
    let by_age = db.relation("customers").unwrap().index_by("age").unwrap();
    assert!(by_age.is_multi());
    let mut b = by_age.builder_like();
    for (k, t) in by_age.tuples().unwrap() {
        b.push_arc(k, t);
    }
    let want = b.build().unwrap_err();
    assert!(
        matches!(want, fdm_core::FdmError::DuplicateKey { .. }),
        "{want}"
    );
    let extended = extend(&by_age, "x", |t| t.get("age")).unwrap_err();
    let stored = extend_stored(&by_age, "x", |t| t.get("age")).unwrap_err();
    assert_eq!(extended.to_string(), want.to_string(), "extend");
    assert_eq!(stored.to_string(), want.to_string(), "extend_stored");
}
