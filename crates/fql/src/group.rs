//! The `group` operator (paper Fig. 4b).
//!
//! `group(by=["age"], customers)` returns — in the paper's words — "a DB
//! of relation functions representing age_groups": one relation function
//! per distinct key, all wrapped in a database function. No relational
//! grouping-into-one-table happens; each group stays a first-class
//! function.
//!
//! # Hash bucketing
//!
//! Bucketing runs on the same fingerprint-hash machinery as the tuple
//! [`DataKey`](fdm_core::DataKey) cache: group keys land in an
//! [`FxHashMap`] keyed by their 64-bit `FxHash`, so placing a tuple costs
//! one hash + one integer probe instead of the O(log g) full-`Value`
//! comparisons the previous `BTreeMap` paid per tuple. Full `Value`
//! equality is consulted **only within a hash bucket** (i.e. on hash
//! collision), so colliding-but-unequal keys still get separate groups —
//! forced and pinned by the collision tests, which stub the hash
//! constant. Output stays deterministic: groups are sorted by key once at
//! the end, reproducing the `BTreeMap` iteration order byte for byte, and
//! members keep the relation's key order.

use fdm_core::{
    DatabaseF, FdmError, FnValue, FxHashMap, Name, RelationBuilder, RelationF, Result, TupleF,
    Value,
};
use std::sync::Arc;

/// The result of `group`: the groups, keyed by their grouping value.
///
/// Internally a multi-body relation function (key → set of tuples), which
/// *is* the FDM representation of grouping (the same shape as a non-unique
/// index, §2.4). [`Groups::to_database`] provides the paper's DB-of-
/// relation-functions costume.
#[derive(Clone, Debug)]
pub struct Groups {
    by: Arc<[Name]>,
    /// multi relation: group key → member tuples
    groups: RelationF,
    source_name: Name,
}

impl Groups {
    /// The grouping attributes.
    pub fn by(&self) -> &[Name] {
        &self.by
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.groups.stored_keys().len()
    }

    /// The distinct group keys in sorted order.
    pub fn keys(&self) -> Vec<Value> {
        self.groups.stored_keys()
    }

    /// The members of one group.
    pub fn members(&self, key: &Value) -> Vec<Arc<TupleF>> {
        self.groups.lookup_all(key)
    }

    /// Iterates `(key, members)` pairs in key order (one O(n) walk over
    /// the stored groups; no per-key lookup).
    pub fn iter(&self) -> impl Iterator<Item = (Value, Vec<Arc<TupleF>>)> + '_ {
        self.groups.iter_groups().map(|(k, g)| (k, g.to_vec()))
    }

    /// The underlying multi-body relation function.
    pub fn as_relation(&self) -> &RelationF {
        &self.groups
    }

    /// The paper's costume: a database function with one relation function
    /// per group, named `"<source>[<by>=<key>]"`.
    pub fn to_database(&self) -> DatabaseF {
        let mut db = DatabaseF::new(format!("{}_groups", self.source_name));
        for (key, members) in self.iter() {
            let name = format!("{}[{}={}]", self.source_name, self.by_label(), key);
            let mut rel = RelationBuilder::new(&name, &["i"]);
            for (i, t) in members.into_iter().enumerate() {
                rel.push_arc(Value::Int(i as i64), t);
            }
            let rel = rel.build().expect("fresh sequential keys");
            db = db.with_entry(&name, FnValue::from(rel));
        }
        db
    }

    fn by_label(&self) -> String {
        self.by
            .iter()
            .map(|n| n.as_ref())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Groups a relation function by the named attributes
/// (`group(by=["age"], customers)` — Fig. 4b).
///
/// Multi-attribute keys become `Value::List`s.
pub fn group(rel: &RelationF, by: &[&str]) -> Result<Groups> {
    if by.is_empty() {
        return Err(no_grouping_attribute());
    }
    group_fn_named(rel, by, |t| {
        let mut vals = Vec::with_capacity(by.len());
        for attr in by {
            vals.push(t.get(attr)?);
        }
        Ok(if vals.len() == 1 {
            vals.pop().expect("one")
        } else {
            Value::list(vals)
        })
    })
}

/// The error of a grouping that names no attribute.
pub(crate) fn no_grouping_attribute() -> FdmError {
    FdmError::Other(
        "group: 'by' must name at least one attribute (use aggregate for a global fold)"
            .to_string(),
    )
}

/// Groups by an arbitrary key function over tuple functions
/// (`group(lambda prof: prof.age, customers)` — Fig. 4b, first variant).
pub fn group_fn(rel: &RelationF, key: impl Fn(&TupleF) -> Result<Value>) -> Result<Groups> {
    group_fn_named(rel, &["key"], key)
}

/// The default bucket hash: [`Value::fx_hash`] — the one shared hash the
/// tuple fingerprint cache and the distinct-count sketches also use.
fn fx_hash_value(v: &Value) -> u64 {
    v.fx_hash()
}

/// [`group_fn`] with an explicit bucket-hash function.
///
/// Exists so tests can **force hash collisions** (e.g. `|_| 0`) and prove
/// the bucketing still separates unequal keys purely by `Value` equality;
/// production callers always go through [`group_fn`], which uses `FxHash`.
#[cfg(test)]
pub(crate) fn group_fn_with_hasher(
    rel: &RelationF,
    key: impl Fn(&TupleF) -> Result<Value>,
    hash: impl Fn(&Value) -> u64,
) -> Result<Groups> {
    group_fn_hashed(rel, &["key"], key, hash)
}

fn group_fn_named(
    rel: &RelationF,
    by: &[&str],
    key: impl Fn(&TupleF) -> Result<Value>,
) -> Result<Groups> {
    group_fn_hashed(rel, by, key, fx_hash_value)
}

/// One grouping bucket: a distinct key with its members in input order.
type KeyedGroup = (Value, Vec<Arc<TupleF>>);

fn group_fn_hashed(
    rel: &RelationF,
    by: &[&str],
    key: impl Fn(&TupleF) -> Result<Value>,
    hash: impl Fn(&Value) -> u64,
) -> Result<Groups> {
    let entries = rel.tuples()?;
    // hash → the distinct keys sharing it (almost always exactly one),
    // each with its members in input order. Placement costs one hash and
    // one integer probe; the full `Value` compare runs only against keys
    // in the same (usually singleton) bucket.
    let mut buckets: FxHashMap<u64, Vec<KeyedGroup>> =
        FxHashMap::with_capacity_and_hasher(entries.len().min(1024), Default::default());
    for (_, tuple) in entries {
        let k = key(&tuple)?;
        let bucket = buckets.entry(hash(&k)).or_default();
        match bucket.iter_mut().find(|(bk, _)| *bk == k) {
            Some((_, members)) => members.push(tuple),
            None => bucket.push((k, vec![tuple])),
        }
    }
    // one final sort over the (few) distinct keys restores the
    // deterministic key order the BTreeMap used to provide
    let mut groups: Vec<(Value, Vec<Arc<TupleF>>)> = buckets.into_values().flatten().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let groups = RelationF::from_groups(format!("{}_groups", rel.name()), by, groups);
    Ok(Groups {
        by: by.iter().map(|b| Name::from(*b)).collect(),
        groups,
        source_name: Name::from(rel.name()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn customers() -> RelationF {
        let mut rel = RelationF::new("customers", &["cid"]);
        for (cid, name, age, state) in [
            (1, "Alice", 43, "NY"),
            (2, "Bob", 30, "NY"),
            (3, "Carol", 43, "CA"),
            (4, "Dave", 30, "CA"),
            (5, "Eve", 43, "NY"),
        ] {
            rel = rel
                .insert(
                    Value::Int(cid),
                    TupleF::builder(format!("c{cid}"))
                        .attr("name", name)
                        .attr("age", age)
                        .attr("state", state)
                        .build(),
                )
                .unwrap();
        }
        rel
    }

    #[test]
    fn group_by_single_attribute() {
        let g = group(&customers(), &["age"]).unwrap();
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.keys(), vec![Value::Int(30), Value::Int(43)]);
        assert_eq!(g.members(&Value::Int(43)).len(), 3);
        assert_eq!(g.members(&Value::Int(30)).len(), 2);
        assert!(g.members(&Value::Int(99)).is_empty());
    }

    #[test]
    fn group_by_multiple_attributes() {
        let g = group(&customers(), &["age", "state"]).unwrap();
        assert_eq!(g.group_count(), 4);
        let k = Value::list([Value::Int(43), Value::str("NY")]);
        assert_eq!(g.members(&k).len(), 2, "Alice and Eve");
    }

    #[test]
    fn group_fn_arbitrary_key() {
        // group by age decade
        let g = group_fn(&customers(), |t| {
            let age = t.get("age")?.as_int("age")?;
            Ok(Value::Int(age / 10))
        })
        .unwrap();
        assert_eq!(g.keys(), vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn to_database_yields_one_relation_per_group() {
        // the paper's "DB of relation functions representing age_groups"
        let g = group(&customers(), &["age"]).unwrap();
        let db = g.to_database();
        assert_eq!(db.len(), 2);
        let r43 = db.relation("customers[age=43]").unwrap();
        assert_eq!(r43.len(), 3);
        // each group is a full relation function, queryable like any other
        let first = r43.lookup(&Value::Int(0)).unwrap();
        assert_eq!(first.get("age").unwrap(), Value::Int(43));
    }

    #[test]
    fn empty_by_is_an_error() {
        assert!(group(&customers(), &[]).is_err());
    }

    #[test]
    fn missing_attribute_errors() {
        let err = group(&customers(), &["nope"]).unwrap_err();
        assert!(err.to_string().contains("no attribute"), "{err}");
    }

    #[test]
    fn groups_on_empty_relation() {
        let empty = RelationF::new("none", &["id"]);
        let g = group(&empty, &["x"]).unwrap();
        assert_eq!(g.group_count(), 0);
        assert!(g.to_database().is_empty());
    }

    /// The `BTreeMap` idiom hash bucketing replaced, kept as the oracle.
    fn btreemap_baseline(
        rel: &RelationF,
        key: impl Fn(&TupleF) -> Result<Value>,
    ) -> Vec<(Value, Vec<Arc<TupleF>>)> {
        let mut buckets: std::collections::BTreeMap<Value, Vec<Arc<TupleF>>> = Default::default();
        for (_, t) in rel.tuples().unwrap() {
            buckets.entry(key(&t).unwrap()).or_default().push(t);
        }
        buckets.into_iter().collect()
    }

    fn assert_matches_baseline(g: &Groups, baseline: &[(Value, Vec<Arc<TupleF>>)]) {
        let got: Vec<(Value, Vec<Arc<TupleF>>)> = g.iter().collect();
        assert_eq!(got.len(), baseline.len(), "group count");
        for ((gk, gm), (bk, bm)) in got.iter().zip(baseline) {
            assert_eq!(gk, bk, "key order");
            assert_eq!(gm.len(), bm.len(), "member count under {gk}");
            for (a, b) in gm.iter().zip(bm) {
                assert!(Arc::ptr_eq(a, b), "member identity and order under {gk}");
            }
        }
    }

    #[test]
    fn hash_bucketing_matches_btreemap_baseline() {
        let rel = customers();
        let key = |t: &TupleF| t.get("age");
        let g = group_fn(&rel, key).unwrap();
        assert_matches_baseline(&g, &btreemap_baseline(&rel, key));
    }

    #[test]
    fn cross_type_numeric_keys_group_together() {
        // Int(2^53 + 1) and Float(2^53) compare equal as `Value`s (the
        // int rounds to the float in the cross-numeric arm); the hash
        // buckets must agree with that equality and produce ONE group
        // with both members, exactly like the BTreeMap baseline.
        let rel = RelationF::new("r", &["id"])
            .insert(
                Value::Int(1),
                TupleF::builder("a")
                    .attr("k", Value::Int((1i64 << 53) + 1))
                    .build(),
            )
            .unwrap()
            .insert(
                Value::Int(2),
                TupleF::builder("b")
                    .attr("k", Value::Float((1i64 << 53) as f64))
                    .build(),
            )
            .unwrap();
        let key = |t: &TupleF| t.get("k");
        let g = group_fn(&rel, key).unwrap();
        assert_eq!(g.group_count(), 1, "Eq-equal keys share a group");
        assert_eq!(g.iter().next().unwrap().1.len(), 2, "no member dropped");
        assert_matches_baseline(&g, &btreemap_baseline(&rel, key));
    }

    #[test]
    fn forced_hash_collisions_still_separate_unequal_keys() {
        // A constant hash lands every key in one bucket: separation now
        // rests entirely on the full-`Value` compare inside the bucket.
        let rel = customers();
        let key = |t: &TupleF| t.get("age");
        let collided = group_fn_with_hasher(&rel, key, |_| 0).unwrap();
        assert_eq!(collided.group_count(), 2, "30 and 43 stay separate");
        assert_matches_baseline(&collided, &btreemap_baseline(&rel, key));
        // and the collided output is identical to the production FxHash one
        let normal = group_fn(&rel, key).unwrap();
        assert_eq!(collided.keys(), normal.keys());
        for k in collided.keys() {
            assert_eq!(collided.members(&k).len(), normal.members(&k).len());
        }
    }
}
