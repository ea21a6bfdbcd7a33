//! Operators beyond SQL's usual repertoire (paper conclusion: "extending
//! the list of FQL operators that allow functionality beyond SQL"):
//! derived attributes, ordering as a relation function, top-k, attribute
//! renaming, and semi/anti-joins against arbitrary key sets.
//!
//! Note how `order_by` stays inside the data model: the result is a
//! relation function keyed by *rank* — ordering is not a presentation
//! afterthought bolted onto a set, it is just another function.

use fdm_core::{FdmError, RelationBuilder, RelationF, Result, TupleF, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Adds a derived attribute to every tuple (an FQL `extend`/`map`): the
/// new attribute is **computed**, not materialized — downstream readers
/// cannot tell (paper §2.3). The closure receives the tuple.
pub fn extend(
    rel: &RelationF,
    attr: &str,
    f: impl Fn(&TupleF) -> Result<Value> + Send + Sync + 'static,
) -> Result<RelationF> {
    let f = Arc::new(f);
    let attr_name: Arc<str> = Arc::from(attr);
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()? {
        let f = Arc::clone(&f);
        let base = Arc::clone(&tuple);
        let mut b = TupleF::builder(tuple.name()).computed(attr_name.as_ref(), move |_| f(&base));
        // keep all existing attributes (stored stay stored)
        for (n, v) in tuple.materialize()? {
            if n != attr_name {
                b = b.attr_name(n, v);
            }
        }
        out.push(key, b.build());
    }
    out.build()
}

/// Materializing variant of [`extend`]: computes the value now and stores
/// it (useful before sorts on the derived attribute).
pub fn extend_stored(
    rel: &RelationF,
    attr: &str,
    f: impl Fn(&TupleF) -> Result<Value>,
) -> Result<RelationF> {
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()? {
        let v = f(&tuple)?;
        out.push(key, tuple.with_attr(attr, v));
    }
    out.build()
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Smallest first.
    Asc,
    /// Largest first.
    Desc,
}

/// Orders the relation by an attribute, returning a relation function
/// keyed by **rank** (`0..n`): the ordering is part of the function, not
/// a cursor artifact. Ties keep the original key order (stable).
pub fn order_by(rel: &RelationF, attr: &str, order: Order) -> Result<RelationF> {
    let entries: Vec<(Value, Value, Arc<TupleF>)> = rel
        .tuples()?
        .into_iter()
        .map(|(k, t)| Ok((t.get(attr)?, k, t)))
        .collect::<Result<_>>()?;
    // Rank keys ascend, so this is the no-sort bulk path.
    let mut out = RelationBuilder::new(format!("{}_by_{attr}", rel.name()), &["rank"]);
    for (rank, tuple) in ranked(entries, order) {
        out.push_arc(rank, tuple);
    }
    out.build()
}

/// `(sort value, key, tuple)` entries in `order`, ties by key (stable),
/// each under its rank — `order_by`'s output rows, and the plan's.
pub(crate) fn ranked(
    mut entries: Vec<(Value, Value, Arc<TupleF>)>,
    order: Order,
) -> impl Iterator<Item = (Value, Arc<TupleF>)> {
    entries.sort_by(|a, b| {
        let ord = a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1));
        match order {
            Order::Asc => ord,
            Order::Desc => ord.reverse(),
        }
    });
    let ranks = entries.into_iter().enumerate();
    ranks.map(|(rank, (_, _, tuple))| (Value::Int(rank as i64), tuple))
}

/// The first `k` tuples of a rank-keyed relation (compose with
/// [`order_by`] for top-k).
pub fn limit(rel: &RelationF, k: usize) -> Result<RelationF> {
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()?.into_iter().take(k) {
        out.push_arc(key, tuple);
    }
    out.build()
}

/// Top-k by attribute: `order_by` then `limit` in one call.
pub fn top_k(rel: &RelationF, attr: &str, order: Order, k: usize) -> Result<RelationF> {
    limit(&order_by(rel, attr, order)?, k)
}

/// Renames attributes (`(old, new)` pairs); unknown old names error.
pub fn rename_attrs(rel: &RelationF, renames: &[(&str, &str)]) -> Result<RelationF> {
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()? {
        let mut b = TupleF::builder(tuple.name());
        for (n, v) in tuple.materialize()? {
            let name = renames
                .iter()
                .find(|(old, _)| *old == n.as_ref())
                .map(|(_, new)| *new)
                .unwrap_or(n.as_ref());
            b = b.attr(name, v);
        }
        out.push(key, b.build());
    }
    // validate that every rename matched at least one tuple's attribute
    if !rel.is_empty() {
        let (_, probe) = rel.tuples()?.remove(0);
        for (old, _) in renames {
            if !probe.has_attr(old) {
                return Err(FdmError::NoSuchAttribute {
                    attr: (*old).to_string(),
                });
            }
        }
    }
    out.build()
}

/// Semi-join: tuples of `rel` whose value under `attr` appears in `keys`.
/// (With `keys` taken from another function's image this is the classic
/// `EXISTS` — and exactly the primitive `reduce_db` builds on.)
pub fn semijoin(rel: &RelationF, attr: &str, keys: &BTreeSet<Value>) -> Result<RelationF> {
    crate::filter::filter_fn(rel, |t| Ok(keys.contains(&t.get(attr)?)))
}

/// Anti-join: tuples of `rel` whose value under `attr` does **not**
/// appear in `keys` (`NOT EXISTS` — without NULL pitfalls, because there
/// are no NULLs).
pub fn antijoin(rel: &RelationF, attr: &str, keys: &BTreeSet<Value>) -> Result<RelationF> {
    crate::filter::filter_fn(rel, |t| Ok(!keys.contains(&t.get(attr)?)))
}

/// DISTINCT over tuple *data*: keeps the first occurrence (in key
/// order) of every distinct tuple body and drops the duplicates that
/// joins and projections multiply out — closing the dedup carry-over
/// those operators left behind.
///
/// Dedup reuses the tuple's cached [`TupleF::fingerprint`] (the PR 3
/// `DataKey`): the seen-set is keyed by the precomputed 64-bit hash, so
/// the overwhelmingly common *unequal* case costs one integer probe, and
/// a hash collision falls back to the exact canonical-key comparison
/// ([`TupleF::eq_data`]) instead of trusting the hash. Join outputs that
/// already computed their fingerprints pay nothing extra here.
pub fn distinct(rel: &RelationF) -> Result<RelationF> {
    let mut seen: fdm_core::FxHashMap<u64, Vec<Arc<TupleF>>> = fdm_core::FxHashMap::default();
    let mut out = rel.builder_like();
    for (key, tuple) in rel.tuples()? {
        let hash = tuple.fingerprint()?.hash();
        let bucket = seen.entry(hash).or_default();
        if bucket.iter().any(|kept| kept.eq_data(&tuple)) {
            continue;
        }
        bucket.push(Arc::clone(&tuple));
        out.push_arc(key, tuple);
    }
    out.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::customers_relation;

    #[test]
    fn extend_adds_computed_attribute() {
        let rel = customers_relation();
        let out = extend(&rel, "age_in_months", |t| {
            t.get("age")?.mul(&Value::Int(12))
        })
        .unwrap();
        let t = out.lookup(&Value::Int(1)).unwrap();
        assert_eq!(t.get("age_in_months").unwrap(), Value::Int(43 * 12));
        assert!(t.is_computed("age_in_months"));
        assert_eq!(t.get("name").unwrap(), Value::str("Alice"));
        // the original is untouched
        assert!(!rel
            .lookup(&Value::Int(1))
            .unwrap()
            .has_attr("age_in_months"));
    }

    #[test]
    fn extend_stored_materializes() {
        let rel = customers_relation();
        let out = extend_stored(&rel, "flag", |_| Ok(Value::Bool(true))).unwrap();
        let t = out.lookup(&Value::Int(2)).unwrap();
        assert!(!t.is_computed("flag"));
        assert_eq!(t.get("flag").unwrap(), Value::Bool(true));
    }

    #[test]
    fn order_by_is_a_rank_keyed_function() {
        let rel = customers_relation(); // ages 43, 30, 55
        let by_age = order_by(&rel, "age", Order::Asc).unwrap();
        assert_eq!(
            by_age.lookup(&Value::Int(0)).unwrap().get("age").unwrap(),
            Value::Int(30)
        );
        assert_eq!(
            by_age.lookup(&Value::Int(2)).unwrap().get("age").unwrap(),
            Value::Int(55)
        );
        let desc = order_by(&rel, "age", Order::Desc).unwrap();
        assert_eq!(
            desc.lookup(&Value::Int(0)).unwrap().get("age").unwrap(),
            Value::Int(55)
        );
        assert_eq!(by_age.key_attrs()[0].as_ref(), "rank");
    }

    #[test]
    fn top_k_composition() {
        let rel = customers_relation();
        let top2 = top_k(&rel, "age", Order::Desc, 2).unwrap();
        assert_eq!(top2.len(), 2);
        let names: Vec<Value> = top2
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.get("name").unwrap())
            .collect();
        assert_eq!(names, vec![Value::str("Carol"), Value::str("Alice")]);
        // limit beyond size is a no-op
        assert_eq!(limit(&rel, 100).unwrap().len(), 3);
        assert_eq!(limit(&rel, 0).unwrap().len(), 0);
    }

    /// Pins `distinct`'s multiplicity against an independent baseline: a
    /// `BTreeSet` over materialized canonical bodies (`DataKey::value`),
    /// which cannot share the fingerprint cache with the code under test.
    #[test]
    fn distinct_multiplicity_matches_btreeset_baseline() {
        // a projection-shaped relation: 7 rows, 3 distinct bodies
        let mut rel = RelationF::new("cities", &["rid"]);
        for (rid, city) in [
            (1, "Berlin"),
            (2, "Paris"),
            (3, "Berlin"),
            (4, "Lyon"),
            (5, "Paris"),
            (6, "Berlin"),
            (7, "Lyon"),
        ] {
            rel = rel
                .insert(
                    Value::Int(rid),
                    TupleF::builder("c").attr("city", city).build(),
                )
                .expect("unique rids");
        }
        let baseline: BTreeSet<Value> = rel
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.fingerprint().unwrap().value().clone())
            .collect();
        let out = distinct(&rel).unwrap();
        assert_eq!(out.len(), baseline.len(), "one survivor per distinct body");
        let out_bodies: BTreeSet<Value> = out
            .tuples()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.fingerprint().unwrap().value().clone())
            .collect();
        assert_eq!(out_bodies, baseline, "no body lost, none invented");
        // the survivor is the first occurrence in key order
        let keys: Vec<Value> = out.tuples().unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2), Value::Int(4)]);
        // idempotent, and a no-op on an already-duplicate-free relation
        assert_eq!(distinct(&out).unwrap().len(), out.len());
        let unique = customers_relation();
        assert_eq!(distinct(&unique).unwrap().len(), unique.len());
    }

    #[test]
    fn rename_attrs_works_and_validates() {
        let rel = customers_relation();
        let out = rename_attrs(&rel, &[("name", "full_name")]).unwrap();
        let t = out.lookup(&Value::Int(1)).unwrap();
        assert!(t.has_attr("full_name"));
        assert!(!t.has_attr("name"));
        let err = rename_attrs(&rel, &[("nope", "x")]).unwrap_err();
        assert!(matches!(err, FdmError::NoSuchAttribute { .. }));
    }

    #[test]
    fn semi_and_anti_join_partition() {
        let rel = customers_relation();
        let keys: BTreeSet<Value> = [Value::Int(43), Value::Int(55)].into_iter().collect();
        let semi = semijoin(&rel, "age", &keys).unwrap();
        let anti = antijoin(&rel, "age", &keys).unwrap();
        assert_eq!(semi.len(), 2);
        assert_eq!(anti.len(), 1);
        assert_eq!(semi.len() + anti.len(), rel.len());
    }

    #[test]
    fn stable_sort_breaks_ties_by_key() {
        let rel = customers_relation()
            .insert(
                Value::Int(9),
                TupleF::builder("c9")
                    .attr("name", "Zoe")
                    .attr("age", 43)
                    .build(),
            )
            .unwrap();
        let by_age = order_by(&rel, "age", Order::Asc).unwrap();
        // ties on 43: Alice (key 1) before Zoe (key 9)
        assert_eq!(
            by_age.lookup(&Value::Int(1)).unwrap().get("name").unwrap(),
            Value::str("Alice")
        );
        assert_eq!(
            by_age.lookup(&Value::Int(2)).unwrap().get("name").unwrap(),
            Value::str("Zoe")
        );
    }
}
