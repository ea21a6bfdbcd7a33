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
use fdm_core::{
    DatabaseF, FnValue, Name, RelationF, RelationshipBuilder, RelationshipF, Result, Value,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// How much work [`reduce_db_with_stats`] did to reach the fixpoint.
#[derive(Debug, Clone, Default)]
pub struct ReduceStats {
    /// `(relationship, times the fixpoint visited it)` in name order: once,
    /// plus once for every time *another* relationship shrank one of its
    /// participants afterwards.
    pub visits: Vec<(Name, usize)>,
    /// `(relationship, how many of those visits walked its entries)`, in
    /// the same order; every other visit was answered from its key maps.
    pub entry_scans: Vec<(Name, usize)>,
}

impl ReduceStats {
    /// How many relationships were answered without walking an entry.
    pub fn answered_from_key_maps(&self) -> usize {
        self.entry_scans.iter().filter(|(_, n)| *n == 0).count()
    }
}

/// The stored keys of one relation that survive the semi-join fixpoint,
/// borrowed from the relation itself.
struct ActiveKeys<'a> {
    /// Ascending and distinct; only ever shrinks.
    keys: Vec<&'a Value>,
    /// How many stored keys the relation has, so `keys.len() == stored`
    /// says nothing was reduced away.
    stored: usize,
}

/// What the semi-join fixpoint leaves of a database.
struct Survivors<'a> {
    /// Relation name → surviving keys. A relation no relationship touches
    /// has no entry and keeps everything.
    keys: BTreeMap<&'a str, ActiveKeys<'a>>,
    /// Relationship name → one flag per entry, in entry order; `None` when
    /// every entry survives.
    entries: BTreeMap<&'a str, Option<Vec<bool>>>,
    stats: ReduceStats,
}

/// One flag per active key of each position, none set yet (no flags for
/// an unconstrained position).
fn unnamed(active: &[Option<&[&Value]>]) -> Vec<Vec<bool>> {
    active
        .iter()
        .map(|a| vec![false; a.map_or(0, <[_]>::len)])
        .collect()
}

/// The key-map step, for a relationship whose entries are all alive: each
/// position's distinct keys (ascending, from the relationship's
/// statistics) are merge-walked against that participant's active keys.
/// If none dangles, every entry survives, and the flags mark exactly the
/// keys a scan of the entries would mark; `None` if some key is not
/// active.
fn named_by_key_maps(rsf: &RelationshipF, active: &[Option<&[&Value]>]) -> Option<Vec<Vec<bool>>> {
    let mut named = unnamed(active);
    for (i, (active, named)) in active.iter().zip(named.iter_mut()).enumerate() {
        let Some(active) = active else { continue };
        let mut at = 0;
        for key in rsf.stats().keys_at(i) {
            while active.get(at).is_some_and(|k| *k < key) {
                at += 1;
            }
            if active.get(at) != Some(&key) {
                return None;
            }
            named[at] = true;
        }
    }
    Some(named)
}

/// The entry scan: the keys named by the entries of `rsf` that name only
/// active keys, and one survival flag per entry.
fn named_by_entries(
    rsf: &RelationshipF,
    active: &[Option<&[&Value]>],
) -> (Vec<Vec<bool>>, Vec<bool>) {
    let mut named = unnamed(active);
    let mut at = vec![0usize; active.len()];
    let alive = rsf
        .iter_entries()
        .map(|(args, _)| {
            for (i, arg) in args.iter().enumerate() {
                let Some(active) = active[i] else { continue };
                // entries arrive in key order: the leading positions
                // mostly repeat their previous hit
                if active.get(at[i]).is_some_and(|k| *k == arg) {
                    continue;
                }
                match active.binary_search(&arg) {
                    Ok(found) => at[i] = found,
                    Err(_) => return false,
                }
            }
            for (named, &at) in named.iter_mut().zip(&at) {
                if let Some(flag) = named.get_mut(at) {
                    *flag = true;
                }
            }
            true
        })
        .collect();
    (named, alive)
}

/// Computes the semi-join fixpoint over all relationship functions in
/// `db`: a relationship entry survives iff every participant key exists in
/// the participant relation *and still survives*; a participant tuple
/// survives iff its key appears in some surviving entry of every
/// relationship that touches its relation.
///
/// A worklist, not rounds: visiting relationship R restricts R's
/// participants to the keys R's surviving entries name, which cannot
/// invalidate any of those entries, so only the *other* relationships
/// touching a participant that shrank go back on the list (and R itself
/// just when one relation sits at two of its positions, where the two
/// restrictions intersect). A database with one relationship converges in
/// one visit.
///
/// A visit first tries the key maps ([`named_by_key_maps`]), which touch
/// one key per distinct value instead of one per entry; only a dangling
/// key, or a relationship that already lost entries, walks the entries.
fn semi_join_fixpoint(db: &DatabaseF) -> Survivors<'_> {
    let relationships: Vec<(&Name, &Arc<RelationshipF>)> = db.relationships().collect();
    // start: every stored key of every participating relation is active
    let mut keys: BTreeMap<&str, ActiveKeys> = BTreeMap::new();
    for (_, rsf) in &relationships {
        for p in rsf.participants() {
            if let Ok(FnValue::Relation(rel)) = db.entry(&p.function) {
                keys.entry(p.function.as_ref()).or_insert_with(|| {
                    let keys: Vec<&Value> = rel.stored_key_refs().collect();
                    ActiveKeys {
                        stored: keys.len(),
                        keys,
                    }
                });
            }
        }
    }
    let mut entries: Vec<Option<Vec<bool>>> = vec![None; relationships.len()];
    let mut visits = vec![0usize; relationships.len()];
    let mut entry_scans = vec![0usize; relationships.len()];
    let mut queue: VecDeque<usize> = (0..relationships.len()).collect();
    let mut queued = vec![true; relationships.len()];
    while let Some(r) = queue.pop_front() {
        queued[r] = false;
        visits[r] += 1;
        let rsf = relationships[r].1;
        let parts = rsf.participants();
        // per position: the participant's active keys (none: not a relation
        // of this database, so unconstrained) and which of them a surviving
        // entry names
        let active: Vec<Option<&[&Value]>> = parts
            .iter()
            .map(|p| keys.get(p.function.as_ref()).map(|a| a.keys.as_slice()))
            .collect();
        let from_key_maps = match entries[r] {
            None => named_by_key_maps(rsf, &active),
            Some(_) => None,
        };
        let named = from_key_maps.unwrap_or_else(|| {
            let (named, alive) = named_by_entries(rsf, &active);
            entries[r] = Some(alive);
            entry_scans[r] += 1;
            named
        });
        // restrict every participant relation to the keys a surviving entry
        // named, at each position the relation holds
        for (i, p) in parts.iter().enumerate() {
            let relation = &p.function;
            if parts[..i].iter().any(|q| q.function == *relation) {
                continue;
            }
            let Some(active) = keys.get_mut(relation.as_ref()) else {
                continue;
            };
            let positions: Vec<usize> = (i..parts.len())
                .filter(|&j| parts[j].function == *relation)
                .collect();
            let before = active.keys.len();
            let mut kept = (0..before).map(|k| positions.iter().all(|&j| named[j][k]));
            active
                .keys
                .retain(|_| kept.next().expect("one flag per active key"));
            if active.keys.len() == before {
                continue;
            }
            for (o, (_, other)) in relationships.iter().enumerate() {
                let invalidated = (o != r || positions.len() > 1)
                    && other.participants().iter().any(|q| q.function == *relation);
                if invalidated && !queued[o] {
                    queued[o] = true;
                    queue.push_back(o);
                }
            }
        }
    }
    let names = || relationships.iter().map(|&(name, _)| name);
    Survivors {
        keys,
        entries: names().map(|name| name.as_ref()).zip(entries).collect(),
        stats: ReduceStats {
            visits: names().cloned().zip(visits).collect(),
            entry_scans: names().cloned().zip(entry_scans).collect(),
        },
    }
}

/// The stored tuples of `rel` whose key is (`inside`) or is not in the
/// ascending `keys`: one merge walk over two key-ordered runs, feeding the
/// builder's no-sort bulk path.
fn restrict_relation(rel: &RelationF, keys: &[&Value], inside: bool) -> Result<RelationF> {
    let mut out = rel.builder_like();
    let mut keys = keys.iter().peekable();
    for (key, tuple) in rel.iter_stored() {
        while keys.next_if(|k| ***k < key).is_some() {}
        if keys.peek().is_some_and(|k| ***k == key) == inside {
            out.push_arc(key, tuple);
        }
    }
    out.build()
}

/// A relation entry after reduction: the input's own entry when nothing was
/// reduced away, otherwise the restriction to the surviving keys.
fn reduced_relation(
    entry: &FnValue,
    rel: &RelationF,
    active: Option<&ActiveKeys>,
) -> Result<FnValue> {
    match active {
        Some(active) if active.keys.len() < active.stored => {
            restrict_relation(rel, &active.keys, true).map(FnValue::from)
        }
        _ => Ok(entry.clone()),
    }
}

/// `reduce_DB` (Fig. 5): returns the subdatabase in which every relation
/// holds exactly the tuples that participate in the (n-ary) join implied
/// by the relationship functions, and every relationship holds exactly
/// the surviving entries. The output schema *is* the input schema — the
/// result is a database, not a flattened table.
///
/// A relation or relationship from which nothing is removed comes back as
/// the input's own `Arc` (constraints, statistics and caches included);
/// the others are bulk-built from their key-ordered survivors.
pub fn reduce_db(db: &DatabaseF) -> Result<DatabaseF> {
    reduce_db_with_stats(db).map(|(reduced, _)| reduced)
}

/// [`reduce_db`], also reporting how many relationship visits the
/// fixpoint took and how many of them walked the entries.
pub fn reduce_db_with_stats(db: &DatabaseF) -> Result<(DatabaseF, ReduceStats)> {
    let survivors = semi_join_fixpoint(db);
    let mut out = DatabaseF::new(format!("{}_reduced", db.name()));
    for (name, entry) in db.iter() {
        let reduced = match entry {
            FnValue::Relation(rel) => {
                reduced_relation(entry, rel, survivors.keys.get(name.as_ref()))?
            }
            // an entry scan always kills an entry: the dangling key that
            // forced it is carried by one
            FnValue::Relationship(rsf) => match &survivors.entries[name.as_ref()] {
                None => entry.clone(),
                Some(alive) => {
                    // entries arrive key-ordered: the builder's O(n) path,
                    // statistics counted once at the end
                    let kept = alive.iter().filter(|a| **a).count();
                    let mut reduced =
                        RelationshipBuilder::new(rsf.name(), rsf.participants().to_vec())
                            .with_capacity(kept);
                    for ((args, attrs), _) in rsf.iter_entries().zip(alive).filter(|(_, a)| **a) {
                        reduced.push_arc(args, attrs.clone())?;
                    }
                    FnValue::from(reduced.build()?)
                }
            },
            other => other.clone(),
        };
        out = out.with_entry(name.as_ref(), reduced);
    }
    for (_, d) in db.shared_domains() {
        out = out.with_domain(d.clone());
    }
    Ok((out, survivors.stats))
}

/// The generalized outer join (Fig. 7): like [`reduce_db`], but every
/// relation named in `outer_marked` is returned as **two** entries:
/// `"<rel>.inner"` (tuples that participate in the join) and
/// `"<rel>.outer"` (tuples that do not). No NULL padding anywhere.
pub fn outer(db: &DatabaseF, outer_marked: &[&str]) -> Result<DatabaseF> {
    let marked: BTreeSet<&str> = outer_marked.iter().copied().collect();
    let survivors = semi_join_fixpoint(db);
    let mut out = DatabaseF::new(format!("{}_outer", db.name()));
    for (name, entry) in db.iter() {
        let active = survivors.keys.get(name.as_ref());
        match entry {
            FnValue::Relation(rel) if marked.contains(name.as_ref()) => {
                // a relation no relationship touches participates in nothing
                let keep = active.map_or(&[][..], |a| &a.keys);
                let inner = restrict_relation(rel, keep, true)?.renamed(format!("{name}.inner"));
                let outer_rel =
                    restrict_relation(rel, keep, false)?.renamed(format!("{name}.outer"));
                out = out
                    .with_entry(format!("{name}.inner"), FnValue::from(inner))
                    .with_entry(format!("{name}.outer"), FnValue::from(outer_rel));
            }
            FnValue::Relation(rel) => {
                out = out.with_entry(name.as_ref(), reduced_relation(entry, rel, active)?);
            }
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
