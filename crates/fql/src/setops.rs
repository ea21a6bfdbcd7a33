//! Set operations on **entire databases** (paper Fig. 9).
//!
//! SQL's UNION/INTERSECT/EXCEPT work on single relations; FQL lifts them
//! one level: `union(DB, DB_copy)` operates relation-wise over whole
//! database functions, and [`difference`] computes a *differential
//! database* showing, per relation, what was added and what was removed —
//! the paper's "DB_diff just showing changes".
//!
//! Element identity for these operations is the **mapping**: a relation
//! function is a set of `key → tuple` assignments, so two relations share
//! an element when they map the *same key* to *data-equal tuples*
//! ([`fdm_core::TupleF::data_key`] — evaluated attributes,
//! order-insensitive, so stored vs computed stays invisible, as the model
//! demands). Union is left-biased when the same key maps to different
//! data in the two inputs (the result must stay a function: one output
//! per input).
//!
//! Scope: the operations are **relation-wise** — only relation entries
//! take part. Relationship functions, nested databases and other entries
//! appear in no result of [`union`], [`intersect`] or [`minus`], and
//! [`difference`] cannot report a changed link. On the retail database
//! the 2,000-link `order` relationship is in neither `union`'s nor
//! `intersect`'s result (pinned by `f9_set_operations_see_the_edit_at_scale`
//! in `tests/tests/paper_figures.rs`).

//! Implementation note: each relation's mappings are (or become) a
//! persistent key-ordered map, and the set operations run as the storage
//! layer's **join-based merges** ([`fdm_storage::PMap::merge_union`] and
//! friends) — not a per-element insert/lookup loop. Two relations of n and
//! m ≤ n mappings cost O(m · log(n/m + 1)): linear when the sides are
//! comparable, logarithmic per mapping when one side is a small delta, and
//! the result shares the larger side's untouched subtrees. Fig. 9's own
//! case — a database against an edited copy of itself — is cheaper still
//! for `union`: subtrees the two versions share are taken whole without
//! being walked (`intersect`/`minus` compare data under every shared key,
//! so they visit each one). The bounds and the sharing are pinned in
//! `crates/storage/tests/prop_pmap.rs` and by
//! `merge_shares_the_larger_operand` in `crates/storage/src/pmap.rs`. For
//! plain stored relations the input map is shared
//! O(1) from the relation body; data keys (the expensive part: a
//! materialized, order-insensitive attribute fingerprint) are needed only
//! for the keys both inputs share, where data equality actually decides
//! something — and they come from each tuple's **cached fingerprint**
//! ([`fdm_core::TupleF::fingerprint`]): the first differential over a
//! database pays the materialization once per shared tuple, every later
//! one compares two precomputed hashes.

use fdm_core::{DatabaseF, FdmError, FnValue, Name, RelationF, Result, TupleF, Value};
use fdm_storage::PMap;
use std::sync::Arc;

/// Deep-copies one relation function: every tuple is re-materialized into
/// fresh storage, computed attributes evaluated and frozen (§4.4's
/// `copy(foo)` at relation granularity — what
/// [`materialize_view`](crate::view::materialize_view) stores, instead of
/// wrapping the relation in a throwaway database).
pub fn deep_copy_relation(rel: &RelationF) -> Result<RelationF> {
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()? {
        out.push(key, tuple.frozen()?);
    }
    out.build()
}

/// A deep copy of a database: every relation's tuples are materialized
/// into fresh storage (paper Fig. 9 `deep_copy(DB)`, and §4.4's
/// `copy(foo)` for materialized views). Computed attributes are evaluated
/// and frozen — the copy is a snapshot of *values*, not of formulas.
/// Each relation copies through [`deep_copy_relation`].
pub fn deep_copy(db: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("{}_copy", db.name()));
    for (name, entry) in db.iter() {
        match entry {
            FnValue::Relation(rel) => {
                out = out.with_entry(name.as_ref(), FnValue::from(deep_copy_relation(rel)?));
            }
            FnValue::Database(inner) => {
                let copied = deep_copy(inner)?;
                out = out.with_entry(name.as_ref(), FnValue::from(copied));
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

/// A relation's mappings as a persistent key → tuple map: shared O(1)
/// from a plain stored body, bulk-built O(n) from the (key-ordered)
/// enumerated tuples otherwise. Multi bodies collapse duplicate keys to
/// the last tuple, matching the old `BTreeMap::insert` indexing.
pub(crate) fn key_map(rel: &RelationF) -> Result<PMap<Value, Arc<TupleF>>> {
    if let Some(m) = rel.stored_map() {
        return Ok(m.clone());
    }
    let mut entries = rel.tuples()?;
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // stable sort → the last tuple of a duplicate-key run wins
        entries.reverse();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries.reverse();
    }
    Ok(PMap::from_sorted_vec(entries))
}

/// Compares two same-key tuples by their cached data-key fingerprints
/// (hash first, full key only on hash equality), reporting the first
/// materialization error through `err` (the merge combiners cannot return
/// `Result` themselves).
fn data_equal(ta: &TupleF, tb: &TupleF, err: &mut Option<FdmError>) -> bool {
    if err.is_some() {
        return false;
    }
    match (ta.fingerprint(), tb.fingerprint()) {
        (Ok(da), Ok(db_)) => da == db_,
        (Err(e), _) | (_, Err(e)) => {
            *err = Some(e);
            false
        }
    }
}

/// Relation-wise set union of two databases: every relation name present
/// in either input appears in the output with the union of its mappings.
/// When both inputs map the same key (to equal or different data), the
/// left input's tuple wins — the result must remain a function. Entries
/// that are not relations (relationship functions among them) are left
/// out.
pub fn union(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} union {})", a.name(), b.name()));
    let mut names: Vec<Name> = Vec::new();
    for (n, e) in a.iter() {
        if matches!(e, FnValue::Relation(_)) {
            names.push(n.clone());
        }
    }
    for (n, e) in b.iter() {
        if matches!(e, FnValue::Relation(_)) && !names.contains(n) {
            names.push(n.clone());
        }
    }
    for name in names {
        let template = a
            .relation(&name)
            .or_else(|_| b.relation(&name))
            .expect("name came from one of the inputs");
        let ma = match a.relation(&name) {
            Ok(r) => key_map(&r)?,
            Err(_) => PMap::new(),
        };
        let mb = match b.relation(&name) {
            Ok(r) => key_map(&r)?,
            Err(_) => PMap::new(),
        };
        // left-biased key merge; no data keys needed — the key decides
        out = out.with_entry(
            name.as_ref(),
            FnValue::from(template.with_stored_map(ma.merge_union(&mb))),
        );
    }
    Ok(out)
}

/// Relation-wise intersection: only relation names present in both inputs
/// appear, holding the tuples common to both (same key, data-equal
/// tuples). Entries that are not relations are left out.
pub fn intersect(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} ∩ {})", a.name(), b.name()));
    for (name, entry) in a.iter() {
        let FnValue::Relation(ra) = entry else {
            continue;
        };
        let Ok(rb) = b.relation(name) else { continue };
        let ma = key_map(ra)?;
        let mb = key_map(&rb)?;
        let mut err = None;
        let merged = ma.merge_intersection_with(&mb, |_, ta, tb| {
            data_equal(ta, tb, &mut err).then(|| ta.clone())
        });
        if let Some(e) = err {
            return Err(e);
        }
        out = out.with_entry(name.as_ref(), FnValue::from(ra.with_stored_map(merged)));
    }
    Ok(out)
}

/// Relation-wise difference `a − b`: relations of `a` minus the tuples
/// (by data equality) that also appear in `b`'s same-named relation.
/// Entries that are not relations are left out.
pub fn minus(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let mut out = DatabaseF::new(format!("({} − {})", a.name(), b.name()));
    for (name, entry) in a.iter() {
        let FnValue::Relation(ra) = entry else {
            continue;
        };
        let ma = key_map(ra)?;
        let mb = match b.relation(name) {
            Ok(rb) => key_map(&rb)?,
            Err(_) => PMap::new(),
        };
        let mut err = None;
        // keep mappings of `a` that are not (key, data)-present in `b`
        let merged = ma.merge_difference_with(&mb, |_, ta, tb| {
            (!data_equal(ta, tb, &mut err) && err.is_none()).then(|| ta.clone())
        });
        if let Some(e) = err {
            return Err(e);
        }
        out = out.with_entry(name.as_ref(), FnValue::from(ra.with_stored_map(merged)));
    }
    Ok(out)
}

/// The differential database (Fig. 9 `difference(DB, DB_copy)`): for every
/// relation name in either input, two output entries —
/// `"<rel>.added"` (in `b` but not `a`) and `"<rel>.removed"` (in `a` but
/// not `b`). Unchanged tuples appear nowhere: the result "just shows
/// changes". Only relations are compared: a link added to or removed
/// from a relationship function shows up nowhere.
pub fn difference(a: &DatabaseF, b: &DatabaseF) -> Result<DatabaseF> {
    let removed = minus(a, b)?;
    let added = minus(b, a)?;
    let mut out = DatabaseF::new(format!("diff({}, {})", a.name(), b.name()));
    let mut names: Vec<&str> = Vec::new();
    for (n, _) in a.iter() {
        names.push(n.as_ref());
    }
    for (n, _) in b.iter() {
        if !names.contains(&n.as_ref()) {
            names.push(n.as_ref());
        }
    }
    for name in names {
        if let Ok(r) = added.relation(name) {
            if !r.is_empty() {
                out = out.with_entry(format!("{name}.added"), FnValue::from((*r).clone()));
            }
        }
        if let Ok(r) = removed.relation(name) {
            if !r.is_empty() {
                out = out.with_entry(format!("{name}.removed"), FnValue::from((*r).clone()));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{customers_relation, retail_db};

    #[test]
    fn fig9_deep_copy_then_diff() {
        let db = retail_db();
        let copy = deep_copy(&db).unwrap();
        // untouched copy: empty diff
        let diff = difference(&db, &copy).unwrap();
        assert!(diff.is_empty(), "no changes yet: {diff:?}");

        // change the copy: delete Bob, add Dave
        let customers = copy.relation("customers").unwrap();
        let customers = customers.delete(&Value::Int(2)).unwrap();
        let customers = customers
            .insert(
                Value::Int(4),
                TupleF::builder("c4")
                    .attr("name", "Dave")
                    .attr("age", 28)
                    .build(),
            )
            .unwrap();
        let copy2 = copy.with_entry("customers", FnValue::from(customers));

        let diff = difference(&db, &copy2).unwrap();
        let added = diff.relation("customers.added").unwrap();
        let removed = diff.relation("customers.removed").unwrap();
        assert_eq!(added.len(), 1);
        assert_eq!(removed.len(), 1);
        let (_, t) = added.tuples().unwrap().remove(0);
        assert_eq!(t.get("name").unwrap(), Value::str("Dave"));
        let (_, t) = removed.tuples().unwrap().remove(0);
        assert_eq!(t.get("name").unwrap(), Value::str("Bob"));
        assert!(
            !diff.contains("products.added"),
            "unchanged relations absent"
        );
    }

    #[test]
    fn union_intersect_minus_databases() {
        let db = retail_db();
        let copy = deep_copy(&db).unwrap();
        let customers = copy.relation("customers").unwrap();
        let customers = customers
            .insert(
                Value::Int(4),
                TupleF::builder("c4")
                    .attr("name", "Dave")
                    .attr("age", 28)
                    .build(),
            )
            .unwrap();
        let copy2 = copy.with_entry("customers", FnValue::from(customers));

        let u = union(&db, &copy2).unwrap();
        assert_eq!(u.relation("customers").unwrap().len(), 4);
        let i = intersect(&db, &copy2).unwrap();
        assert_eq!(i.relation("customers").unwrap().len(), 3);
        let m = minus(&copy2, &db).unwrap();
        assert_eq!(m.relation("customers").unwrap().len(), 1);
        let m2 = minus(&db, &copy2).unwrap();
        assert_eq!(m2.relation("customers").unwrap().len(), 0);
    }

    #[test]
    fn union_handles_disjoint_relation_names() {
        let a = DatabaseF::new("a").with_relation(customers_relation());
        let b = DatabaseF::new("b").with_relation(customers_relation().renamed("clients"));
        let u = union(&a, &b).unwrap();
        assert!(u.contains("customers"));
        assert!(u.contains("clients"));
        let i = intersect(&a, &b).unwrap();
        assert!(i.is_empty());
    }

    #[test]
    fn data_equality_sees_through_computed_attrs() {
        // stored age 43 == computed age 43: copies compare equal
        let stored = RelationF::new("r", &["id"])
            .insert(Value::Int(1), TupleF::builder("t").attr("age", 43).build())
            .unwrap();
        let computed = RelationF::new("r", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("t")
                    .computed("age", |_| Ok(Value::Int(43)))
                    .build(),
            )
            .unwrap();
        let a = DatabaseF::new("a").with_relation(stored);
        let b = DatabaseF::new("b").with_relation(computed);
        let diff = difference(&a, &b).unwrap();
        assert!(diff.is_empty(), "stored vs computed is invisible: {diff:?}");
    }

    #[test]
    fn deep_copy_freezes_computed_attributes() {
        let rel = RelationF::new("r", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("t")
                    .attr("x", 2)
                    .computed("sq", |t| t.get("x")?.mul(&Value::Int(2)))
                    .build(),
            )
            .unwrap();
        let db = DatabaseF::new("d").with_relation(rel);
        let copy = deep_copy(&db).unwrap();
        let t = copy.relation("r").unwrap().lookup(&Value::Int(1)).unwrap();
        assert!(!t.is_computed("sq"), "materialized in the copy");
        assert_eq!(t.get("sq").unwrap(), Value::Int(4));
    }

    #[test]
    fn nested_databases_copy_recursively() {
        let inner = DatabaseF::new("inner").with_relation(customers_relation());
        let outerdb = DatabaseF::new("outer").with_entry("tenant", FnValue::from(inner));
        let copy = deep_copy(&outerdb).unwrap();
        assert_eq!(
            copy.database("tenant")
                .unwrap()
                .relation("customers")
                .unwrap()
                .len(),
            3
        );
    }
}
