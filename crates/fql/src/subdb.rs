//! Subdatabases: the ResultDB semantics (paper Fig. 5) and the
//! generalized outer join (paper Fig. 7).
//!
//! Instead of shoehorning a multi-relation query result into one
//! denormalized stream, FQL returns a **subdatabase**: the input relations
//! restricted to the tuples that participate in the join result, each as
//! its own relation function. [`reduce_db`] performs that restriction
//! (a semi-join reduction to fixpoint, the paper's \[35\] RESULTDB
//! semantics).
//!
//! [`outer`] generalizes outer joins: relations marked "outer" come back
//! as **two** relation functions — `rel.inner` (participating tuples) and
//! `rel.outer` (non-participating) — instead of NULL-padded rows. The
//! paper notes that "left"/"right" stop making sense: any subset of the n
//! participants can be marked.

use crate::filter::filter_db;
use fdm_core::{DatabaseF, FnValue, Name, RelationF, Result, Value};
use fdm_storage::PSet;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Picks a subset of entries by name (Fig. 5's
/// `filter(lambda kv: kv[0] in relations, DB)`), keeping every
/// relationship function whose participants all remain.
pub fn subdatabase(db: &DatabaseF, names: &[&str]) -> DatabaseF {
    let keep: BTreeSet<&str> = names.iter().copied().collect();
    let with_rels = filter_db(db, |name, entry| {
        keep.contains(name)
            || matches!(entry, FnValue::Relationship(r)
                if r.participants().iter().all(|p| keep.contains(p.function.as_ref())))
    });
    with_rels
}

/// The per-relation key sets that survive the semi-join fixpoint.
#[derive(Debug)]
struct ActiveKeys {
    /// relation name → surviving keys (None = relation not constrained by
    /// any relationship, keep everything). Persistent sets so each
    /// fixpoint round shrinks them with an O(n) merge intersection
    /// instead of a per-element retain.
    keys: BTreeMap<Name, PSet<Value>>,
}

/// Computes the semi-join fixpoint over all relationship functions in
/// `db`: a relationship entry survives iff every participant key exists in
/// the participant relation *and still survives*; a participant tuple
/// survives iff its key appears in some surviving entry of every
/// relationship that touches its relation.
fn semi_join_fixpoint(db: &DatabaseF) -> Result<ActiveKeys> {
    // start: every stored key of every participating relation is active
    let mut active: BTreeMap<Name, PSet<Value>> = BTreeMap::new();
    let relationships: Vec<(Name, Arc<fdm_core::RelationshipF>)> = db
        .relationships()
        .map(|(n, r)| (n.clone(), r.clone()))
        .collect();
    for (_, rsf) in &relationships {
        for p in rsf.participants() {
            if let Ok(rel) = db.relation(&p.function) {
                // stored_keys is key-ordered: the O(n) bulk set build
                active
                    .entry(p.function.clone())
                    .or_insert_with(|| PSet::from_sorted_vec(rel.stored_keys()));
            }
        }
    }
    loop {
        let mut changed = false;
        for (_, rsf) in &relationships {
            // surviving entries of this relationship
            let mut per_participant: Vec<BTreeSet<Value>> =
                vec![BTreeSet::new(); rsf.participants().len()];
            for (args, _) in rsf.iter() {
                let ok = rsf.participants().iter().zip(&args).all(|(p, arg)| {
                    active
                        .get(&p.function)
                        .map(|keys| keys.contains(arg))
                        .unwrap_or(true)
                });
                if ok {
                    for (i, arg) in args.iter().enumerate() {
                        per_participant[i].insert(arg.clone());
                    }
                }
            }
            // restrict each participant to keys seen in surviving entries:
            // one bulk merge intersection per participant
            for (i, p) in rsf.participants().iter().enumerate() {
                if let Some(keys) = active.get_mut(&p.function) {
                    let before = keys.len();
                    let seen = PSet::from_sorted_iter(per_participant[i].iter().cloned());
                    *keys = keys.merge_intersection(&seen);
                    if keys.len() != before {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(ActiveKeys { keys: active })
}

fn restrict_relation(rel: &RelationF, keep: &PSet<Value>) -> Result<RelationF> {
    // iter_stored is key-ordered → the builder's no-sort bulk path
    let mut out = rel.builder_like();
    for (key, tuple) in rel.iter_stored() {
        if keep.contains(&key) {
            out.push_arc(key, tuple);
        }
    }
    out.build()
}

/// `reduce_DB` (Fig. 5): returns the subdatabase in which every relation
/// holds exactly the tuples that participate in the (n-ary) join implied
/// by the relationship functions, and every relationship holds exactly
/// the surviving entries. The output schema *is* the input schema — the
/// result is a database, not a flattened table.
pub fn reduce_db(db: &DatabaseF) -> Result<DatabaseF> {
    let active = semi_join_fixpoint(db)?;
    let mut out = DatabaseF::new(format!("{}_reduced", db.name()));
    for (name, entry) in db.iter() {
        match entry {
            FnValue::Relation(rel) => match active.keys.get(name) {
                Some(keep) => {
                    out =
                        out.with_entry(name.as_ref(), FnValue::from(restrict_relation(rel, keep)?));
                }
                None => {
                    out = out.with_entry(name.as_ref(), entry.clone());
                }
            },
            FnValue::Relationship(rsf) => {
                let mut reduced =
                    fdm_core::RelationshipF::new(rsf.name(), rsf.participants().to_vec());
                for (args, attrs) in rsf.iter() {
                    let ok = rsf.participants().iter().zip(&args).all(|(p, arg)| {
                        active
                            .keys
                            .get(&p.function)
                            .map(|keys| keys.contains(arg))
                            .unwrap_or(true)
                    });
                    if ok {
                        reduced = reduced.insert(&args, (*attrs).clone())?;
                    }
                }
                out = out.with_entry(name.as_ref(), FnValue::from(reduced));
            }
            other => {
                out = out.with_entry(name.as_ref(), other.clone());
            }
        }
    }
    for (_, d) in db.shared_domains() {
        out = out.with_domain(d.clone());
    }
    Ok(out)
}

/// The generalized outer join (Fig. 7): like [`reduce_db`], but every
/// relation named in `outer_marked` is returned as **two** entries:
/// `"<rel>.inner"` (tuples that participate in the join) and
/// `"<rel>.outer"` (tuples that do not). No NULL padding anywhere.
pub fn outer(db: &DatabaseF, outer_marked: &[&str]) -> Result<DatabaseF> {
    let marked: BTreeSet<&str> = outer_marked.iter().copied().collect();
    let active = semi_join_fixpoint(db)?;
    let mut out = DatabaseF::new(format!("{}_outer", db.name()));
    for (name, entry) in db.iter() {
        match entry {
            FnValue::Relation(rel) if marked.contains(name.as_ref()) => {
                let keep = active.keys.get(name).cloned().unwrap_or_default();
                let inner = restrict_relation(rel, &keep)?.renamed(format!("{name}.inner"));
                let all = PSet::from_sorted_vec(rel.stored_keys());
                let outer_keys = all.merge_difference(&keep);
                let outer_rel =
                    restrict_relation(rel, &outer_keys)?.renamed(format!("{name}.outer"));
                out = out
                    .with_entry(format!("{name}.inner"), FnValue::from(inner))
                    .with_entry(format!("{name}.outer"), FnValue::from(outer_rel));
            }
            FnValue::Relation(rel) => match active.keys.get(name) {
                Some(keep) => {
                    out =
                        out.with_entry(name.as_ref(), FnValue::from(restrict_relation(rel, keep)?));
                }
                None => out = out.with_entry(name.as_ref(), entry.clone()),
            },
            other => {
                out = out.with_entry(name.as_ref(), other.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::retail_db;

    #[test]
    fn fig5_subdatabase_picks_relations_and_relationships() {
        let db = retail_db();
        let sub = subdatabase(&db, &["order", "products", "customers"]);
        assert!(sub.contains("products"));
        assert!(sub.contains("customers"));
        assert!(
            sub.contains("order"),
            "relationship kept: participants present"
        );
        let sub2 = subdatabase(&db, &["products"]);
        assert!(
            !sub2.contains("order"),
            "relationship dropped: customers missing"
        );
    }

    #[test]
    fn fig5_reduce_db_keeps_only_participating_tuples() {
        let db = retail_db();
        // retail_db: customers {1 Alice, 2 Bob, 3 Carol}, products {10, 11, 12},
        // orders {(1,10),(1,11),(2,10)} → Carol and product 12 do not participate.
        let reduced = reduce_db(&db).unwrap();
        let customers = reduced.relation("customers").unwrap();
        assert_eq!(customers.len(), 2);
        assert!(
            customers.lookup(&Value::Int(3)).is_none(),
            "Carol reduced away"
        );
        let products = reduced.relation("products").unwrap();
        assert_eq!(products.len(), 2);
        assert!(products.lookup(&Value::Int(12)).is_none());
        let order = reduced.relationship("order").unwrap();
        assert_eq!(order.len(), 3, "all orders reference live tuples");
        // Crucially: the result is STILL A DATABASE — normalized, no
        // duplication. Alice appears once even though she has two orders.
        assert_eq!(reduced.total_tuples(), 2 + 2 + 3);
    }

    #[test]
    fn reduce_db_cascades_through_chains() {
        // chain: customers —order— products, plus a dangling order
        let db = retail_db();
        let order = db.relationship("order").unwrap();
        // remove all orders touching product 10 → customer 2 (Bob) only
        // ordered product 10, so Bob must cascade away too.
        let order2 = order.remove(&[Value::Int(1), Value::Int(10)]).unwrap();
        let order2 = order2.remove(&[Value::Int(2), Value::Int(10)]).unwrap();
        let db = db.with_relationship(order2);
        let reduced = reduce_db(&db).unwrap();
        assert_eq!(
            reduced.relation("customers").unwrap().len(),
            1,
            "only Alice"
        );
        assert_eq!(
            reduced.relation("products").unwrap().len(),
            1,
            "only product 11"
        );
        assert_eq!(reduced.relationship("order").unwrap().len(), 1);
    }

    #[test]
    fn fig7_outer_separates_inner_from_outer() {
        let db = retail_db();
        let out = outer(&db, &["products"]).unwrap();
        let sold = out.relation("products.inner").unwrap();
        let unsold = out.relation("products.outer").unwrap();
        assert_eq!(sold.len(), 2);
        assert_eq!(unsold.len(), 1);
        assert!(unsold.lookup(&Value::Int(12)).is_some());
        // no NULLs were manufactured: each side is a plain relation
        // function with the products schema.
        let (_, t) = unsold.tuples().unwrap().remove(0);
        assert!(t.has_attr("name"));
        assert_eq!(t.attr_count(), 2, "name + price, nothing padded");
        // inner+outer partition the original
        assert_eq!(
            sold.len() + unsold.len(),
            db.relation("products").unwrap().len()
        );
    }

    #[test]
    fn fig7_multiple_relations_marked() {
        let db = retail_db();
        let out = outer(&db, &["products", "customers"]).unwrap();
        assert!(out.contains("products.inner"));
        assert!(out.contains("products.outer"));
        assert!(out.contains("customers.inner"));
        assert!(out.contains("customers.outer"));
        assert_eq!(out.relation("customers.outer").unwrap().len(), 1, "Carol");
    }

    #[test]
    fn reduce_db_without_relationships_is_identity_on_relations() {
        let db = DatabaseF::new("plain").with_relation(crate::testutil::customers_relation());
        let reduced = reduce_db(&db).unwrap();
        assert_eq!(
            reduced.relation("customers").unwrap().len(),
            db.relation("customers").unwrap().len()
        );
    }
}
