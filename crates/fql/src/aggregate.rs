//! Aggregation (paper Fig. 4b/4c) and grouping sets (Fig. 8).
//!
//! FDM keeps semantically different groupings in **separate relation
//! functions** — `grouping_sets` returns a database function with one
//! entry per grouping condition, instead of SQL's single NULL-filled
//! output relation. No NULLs are manufactured anywhere in this module.

use crate::group::{no_grouping_attribute, Groups};
use crate::physical::{no_such_attribute, scan, Op, Row};
use fdm_core::fxhash::FxHasher;
use fdm_core::{
    DatabaseF, FdmError, FnValue, FxHashMap, Name, RelationBuilder, RelationF, Result, Shape,
    ShapeMemo, TupleF, Value,
};
use fdm_expr::Slots;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An aggregate over the tuples of one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSpec {
    /// Number of tuples in the group.
    Count,
    /// Sum of a numeric attribute.
    Sum(String),
    /// Minimum of an attribute.
    Min(String),
    /// Maximum of an attribute.
    Max(String),
    /// Arithmetic mean of a numeric attribute.
    Avg(String),
}

impl AggSpec {
    /// The attribute this aggregate reads from each group member, if any
    /// (`Count` reads none) — what the optimizer's projection pruning
    /// counts as "needed" below a `GroupAgg`.
    pub fn input_attr(&self) -> Option<&str> {
        match self {
            AggSpec::Count => None,
            AggSpec::Sum(a) | AggSpec::Min(a) | AggSpec::Max(a) | AggSpec::Avg(a) => Some(a),
        }
    }

    /// Evaluates the aggregate over the group members, folded in order
    /// through the accumulator the `GroupAgg` operator keeps per group.
    ///
    /// FDM has no NULLs: aggregating an attribute that is missing on some
    /// tuple is a *typed error*, not a silent skip; `Min`/`Max`/`Avg` over
    /// an empty group are likewise errors (`Count` is 0, `Sum` is 0 — the
    /// mathematically natural identities).
    pub fn eval(&self, members: &[Arc<TupleF>]) -> Result<Value> {
        self.fold(members)
    }

    /// [`Self::eval`] over any members: tuples, or the rows a maintained
    /// view keeps.
    pub(crate) fn fold<M: Member>(&self, members: impl IntoIterator<Item = M>) -> Result<Value> {
        let attr = self.input_attr().unwrap_or_default();
        let mut acc = self.start();
        for m in members {
            acc.push(self, || m.read(attr));
        }
        acc.finish(self)
    }

    fn start(&self) -> Acc {
        match self {
            AggSpec::Count => Acc::Count(0),
            AggSpec::Sum(_) => Acc::Sum(Value::Int(0)),
            AggSpec::Min(_) | AggSpec::Max(_) => Acc::Best(None),
            AggSpec::Avg(_) => Acc::Avg(0.0, 0),
        }
    }
}

/// A group member as an aggregate reads it: `t(attr)`, borrowed where it
/// is stored.
pub(crate) trait Member {
    fn read(&self, attr: &str) -> Result<Cow<'_, Value>>;
}

impl Member for Arc<TupleF> {
    fn read(&self, attr: &str) -> Result<Cow<'_, Value>> {
        match self.shape().position(attr) {
            Some(slot) => self.at(slot),
            None => Err(no_such_attribute(attr)),
        }
    }
}

impl Member for Row<'_> {
    fn read(&self, attr: &str) -> Result<Cow<'_, Value>> {
        self.get(attr)
    }
}

impl<M: Member> Member for &M {
    fn read(&self, attr: &str) -> Result<Cow<'_, Value>> {
        (**self).read(attr)
    }
}

/// One aggregate's running state over the members folded so far — what
/// the fold needs, never the members themselves.
enum Acc {
    Count(i64),
    Sum(Value),
    /// `Min` / `Max`: the best value so far.
    Best(Option<Value>),
    /// The running sum as a float, and the member count.
    Avg(f64, usize),
    /// The fold's first error; later members are not read, as the fold
    /// over a member list stopped there.
    Failed(FdmError),
}

impl Acc {
    /// Folds one member in; `input` reads its value of the aggregate's
    /// attribute (`Count` reads nothing).
    fn push<'v>(&mut self, spec: &AggSpec, input: impl FnOnce() -> Result<Cow<'v, Value>>) {
        let step = match self {
            Acc::Count(n) => {
                *n += 1;
                Ok(())
            }
            Acc::Sum(sum) => input().and_then(|v| {
                *sum = sum.add(&v)?;
                Ok(())
            }),
            Acc::Best(best) => input().map(|v| {
                let better = match (&*best, spec) {
                    (None, _) => true,
                    (Some(b), AggSpec::Min(_)) => *v < *b,
                    (Some(b), _) => *v > *b,
                };
                if better {
                    *best = Some(v.into_owned());
                }
            }),
            Acc::Avg(sum, n) => input().and_then(|v| {
                *sum += v.as_float("avg input")?;
                *n += 1;
                Ok(())
            }),
            Acc::Failed(_) => Ok(()),
        };
        if let Err(e) = step {
            *self = Acc::Failed(e);
        }
    }

    fn finish(self, spec: &AggSpec) -> Result<Value> {
        let empty = |what: &str| {
            let attr = spec.input_attr().unwrap_or_default();
            Err(FdmError::Other(format!("{what}({attr}) over empty group")))
        };
        match (self, spec) {
            (Acc::Count(n), _) => Ok(Value::Int(n)),
            (Acc::Sum(sum), _) => Ok(sum),
            (Acc::Best(Some(best)), _) => Ok(best),
            (Acc::Best(None), AggSpec::Min(_)) => empty("min"),
            (Acc::Best(None), _) => empty("max"),
            (Acc::Avg(_, 0), _) => empty("avg"),
            (Acc::Avg(sum, n), _) => Ok(Value::Float(sum / n as f64)),
            (Acc::Failed(e), _) => Err(e),
        }
    }
}

/// The `GroupAgg` operator: a hash fold keeping, per group, its key and
/// one accumulator per aggregate — no member list. Groups are found by a
/// hash of the key and told apart by full `Value` equality within a hash
/// bucket, first-created first (`group`'s rule, so Eq-equal keys of
/// different types share a group exactly as there); the output is the
/// groups in key order, which is `group_and_aggregate`'s row order, and
/// each aggregate folds its group's members in input order.
///
/// Errors come as the group-then-aggregate pipeline raised them: the
/// first row whose group key cannot be read, else the first failing
/// aggregate in group-key order — an aggregate's failure is kept in its
/// accumulator until its group's row is built.
pub(crate) struct GroupFold {
    by: Vec<Name>,
    aggs: Vec<AggSpec>,
    /// The output rows' shape: the by-attributes, then the aggregates.
    shape: Arc<Shape>,
    /// Per input shape: the slot of each by-attribute, then of each
    /// aggregate's input.
    slots: ShapeMemo<Vec<Option<usize>>>,
    /// Group-key hash → the groups under it, in creation order.
    index: FxHashMap<u64, Vec<usize>>,
    groups: Vec<(Value, Vec<Acc>)>,
    failed: Option<FdmError>,
}

impl GroupFold {
    /// A fold grouping by `by` (none: one global group) into `aggs`.
    pub(crate) fn new<B: AsRef<str>, A: AsRef<str>>(by: &[B], aggs: &[(A, AggSpec)]) -> GroupFold {
        let by: Vec<Name> = by.iter().map(|b| Name::from(b.as_ref())).collect();
        let agg_names = aggs.iter().map(|(name, _)| Name::from(name.as_ref()));
        GroupFold {
            shape: Shape::new(by.iter().cloned().chain(agg_names)),
            by,
            aggs: aggs.iter().map(|(_, spec)| spec.clone()).collect(),
            slots: ShapeMemo::new(),
            index: FxHashMap::default(),
            groups: Vec::new(),
            failed: None,
        }
    }

    /// The grouping attributes: the output's key attributes.
    pub(crate) fn by(&self) -> Vec<&str> {
        self.by.iter().map(|n| n.as_ref()).collect()
    }

    /// Folds one row (of `shape`) into its group.
    pub(crate) fn push(&mut self, shape: &Arc<Shape>, row: &impl Slots) {
        if self.failed.is_none() {
            if let Err(e) = self.fold(shape, row) {
                self.failed = Some(e);
            }
        }
    }

    fn fold(&mut self, shape: &Arc<Shape>, row: &impl Slots) -> Result<()> {
        let (by, aggs) = (&self.by, &self.aggs);
        let slots = self.slots.get_or_derive([shape], || {
            let inputs = aggs.iter().map(AggSpec::input_attr);
            let names = by.iter().map(|n| Some(n.as_ref())).chain(inputs);
            names.map(|n| n.and_then(|n| shape.position(n))).collect()
        });
        let read = |at: usize, attr: &str| match slots[at] {
            Some(slot) => row.slot(slot),
            None => Err(no_such_attribute(attr)),
        };
        // the group key: the one by-value, or the list of them — compared
        // and hashed in place, and copied only into a new group
        let (index, groups) = (&mut self.index, &mut self.groups);
        let g = match by.len() {
            0 if !groups.is_empty() => 0,
            0 => insert(index, groups, aggs, 0, Value::list([])),
            1 => {
                let v = read(0, &by[0])?;
                let hash = v.fx_hash();
                match find(index, groups, hash, |k| *k == *v) {
                    Some(g) => g,
                    None => insert(index, groups, aggs, hash, v.into_owned()),
                }
            }
            _ => {
                let mut h = FxHasher::default();
                for (at, attr) in by.iter().enumerate() {
                    read(at, attr)?.hash(&mut h);
                }
                let hash = h.finish();
                // the parts read fine just above; reading them again is a
                // borrow (a computed one recomputes, deterministically)
                let same = |k: &Value| match k {
                    Value::List(parts) => (parts.iter().enumerate())
                        .all(|(at, p)| read(at, &by[at]).is_ok_and(|v| *p == *v)),
                    _ => false,
                };
                match find(index, groups, hash, same) {
                    Some(g) => g,
                    None => {
                        let parts = by.iter().enumerate().map(|(at, attr)| read(at, attr));
                        let parts = parts.map(|p| p.map(Cow::into_owned));
                        let key = Value::List(parts.collect::<Result<_>>()?);
                        insert(index, groups, aggs, hash, key)
                    }
                }
            }
        };
        let accs = self.groups[g].1.iter_mut().zip(aggs).enumerate();
        for (at, (acc, spec)) in accs {
            acc.push(spec, || {
                read(by.len() + at, spec.input_attr().unwrap_or_default())
            });
        }
        Ok(())
    }

    /// The output row of one group: `agg[key]`, the by-attributes carried
    /// over from the key, then its aggregates' values (the first failing
    /// one fails the row) — over the fold's one shape.
    fn row(&self, key: &Value, aggs: impl Iterator<Item = Result<Value>>) -> Result<TupleF> {
        let mut values = Vec::with_capacity(self.shape.len());
        match key {
            Value::List(parts) if self.by.len() > 1 => values.extend(parts.iter().cloned()),
            whole => values.push(whole.clone()),
        }
        for value in aggs {
            values.push(value?);
        }
        Ok(TupleF::from_shape(
            format!("agg[{key}]"),
            self.shape.clone(),
            values,
        ))
    }

    /// The groups in key order, each with its output row.
    pub(crate) fn finish(mut self) -> Result<Vec<(Value, Arc<TupleF>)>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        if self.by.is_empty() {
            return Err(no_grouping_attribute());
        }
        let mut groups = std::mem::take(&mut self.groups);
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups
            .into_iter()
            .map(|(key, accs)| {
                let aggs = accs.into_iter().zip(&self.aggs);
                let row = self.row(&key, aggs.map(|(acc, spec)| acc.finish(spec)))?;
                Ok((key, Arc::new(row)))
            })
            .collect()
    }

    /// The one row of a global fold (no by-attributes), named `name`: its
    /// aggregates, over no rows as over any.
    fn global(mut self, name: String) -> Result<TupleF> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let accs = match self.groups.pop() {
            Some((_, accs)) => accs,
            None => self.aggs.iter().map(AggSpec::start).collect(),
        };
        let values = accs.into_iter().zip(&self.aggs);
        let values = values
            .map(|(acc, spec)| acc.finish(spec))
            .collect::<Result<_>>()?;
        Ok(TupleF::from_shape(name, self.shape, values))
    }
}

/// The group `same` recognizes among those under `hash`, first created
/// first.
#[inline]
fn find(
    index: &FxHashMap<u64, Vec<usize>>,
    groups: &[(Value, Vec<Acc>)],
    hash: u64,
    same: impl Fn(&Value) -> bool,
) -> Option<usize> {
    let bucket = index.get(&hash)?;
    bucket.iter().copied().find(|&g| same(&groups[g].0))
}

/// A new group under `key`.
fn insert(
    index: &mut FxHashMap<u64, Vec<usize>>,
    groups: &mut Vec<(Value, Vec<Acc>)>,
    aggs: &[AggSpec],
    hash: u64,
    key: Value,
) -> usize {
    index.entry(hash).or_default().push(groups.len());
    groups.push((key, aggs.iter().map(AggSpec::start).collect()));
    groups.len() - 1
}

/// Computes named aggregates per group, returning a relation function
/// keyed by the group key whose tuples carry the by-attributes plus one
/// attribute per aggregate (paper Fig. 4b:
/// `aggregate(count=Count(), groups)`).
pub fn aggregate(groups: &Groups, aggs: &[(&str, AggSpec)]) -> Result<RelationF> {
    let fold = GroupFold::new(groups.by(), aggs);
    // group keys iterate in ascending order → no-sort bulk path
    let mut out = RelationBuilder::new("aggregates", &fold.by());
    for (key, members) in groups.iter() {
        let values = aggs.iter().map(|(_, spec)| spec.eval(&members));
        let row = fold.row(&key, values)?;
        out.push(key, row);
    }
    out.build()
}

/// Fused grouping + aggregation (paper Fig. 4c, "corresponds to GROUP BY
/// syntax in SQL"): the one-operator plan scan → `GroupAgg` → root.
pub fn group_and_aggregate(
    rel: &RelationF,
    by: &[&str],
    aggs: &[(&str, AggSpec)],
) -> Result<RelationF> {
    if by.is_empty() {
        return Err(no_grouping_attribute());
    }
    let input = Box::new(Op::Scan { rel, inline: false });
    let fold = GroupFold::new(by, aggs);
    Op::GroupAgg { input, fold }.collect(&mut Vec::new())
}

/// A global fold over the whole relation (no grouping): returns a single
/// tuple function with one attribute per aggregate.
pub fn aggregate_all(rel: &RelationF, aggs: &[(&str, AggSpec)]) -> Result<TupleF> {
    let mut fold = GroupFold::new(&[] as &[&str], aggs);
    scan(rel, false, &mut |row| fold.push(row.shape(), &row))?;
    fold.global(format!("{}_aggregates", rel.name()))
}

/// One grouping condition of a grouping-sets query (paper Fig. 8):
/// a name for the output relation, the by-attributes (empty = global),
/// and the aggregates.
#[derive(Debug, Clone)]
pub struct GroupingSpec {
    /// Name of the output relation function (`"age_cc"` in Fig. 8).
    pub name: String,
    /// Attributes to group by; empty means one global group.
    pub by: Vec<String>,
    /// Aggregates, with output attribute names.
    pub aggs: Vec<(String, AggSpec)>,
}

impl GroupingSpec {
    /// Convenience constructor.
    pub fn new(name: &str, by: &[&str], aggs: &[(&str, AggSpec)]) -> Self {
        GroupingSpec {
            name: name.to_string(),
            by: by.iter().map(|s| s.to_string()).collect(),
            aggs: aggs
                .iter()
                .map(|(n, a)| (n.to_string(), a.clone()))
                .collect(),
        }
    }
}

/// Grouping sets, the FDM way (paper Fig. 8): **one output relation
/// function per semantically different grouping**, collected in a database
/// function — no NULL filling, no `GROUPING()` disambiguation functions.
pub fn grouping_sets(rel: &RelationF, specs: &[GroupingSpec]) -> Result<DatabaseF> {
    // one scan feeds every grouping's fold; each then answers in spec
    // order, as one `group_and_aggregate` / `aggregate_all` per spec did
    let mut folds: Vec<GroupFold> = specs
        .iter()
        .map(|spec| GroupFold::new(&spec.by, &spec.aggs))
        .collect();
    scan(rel, false, &mut |row| {
        folds
            .iter_mut()
            .for_each(|fold| fold.push(row.shape(), &row))
    })?;
    let mut db = DatabaseF::new(format!("{}_gsets", rel.name()));
    for (spec, fold) in specs.iter().zip(folds) {
        let out = if spec.by.is_empty() {
            // global aggregate: a relation function with a single tuple
            let t = fold.global(format!("{}_aggregates", rel.name()))?;
            RelationF::new(&spec.name, &["i"]).insert(Value::Int(0), t)?
        } else {
            let mut out = RelationBuilder::new(&spec.name, &fold.by());
            for (key, tuple) in fold.finish()? {
                out.push_arc(key, tuple);
            }
            out.build()?
        };
        db = db.with_entry(&spec.name, FnValue::from(out));
    }
    Ok(db)
}

/// ROLLUP as grouping sets with generated names
/// (`rel_rollup_<cols>` ... `rel_rollup_total`).
pub fn rollup(rel: &RelationF, by: &[&str], aggs: &[(&str, AggSpec)]) -> Result<DatabaseF> {
    let mut specs = Vec::with_capacity(by.len() + 1);
    for k in (0..=by.len()).rev() {
        let cols = &by[..k];
        let name = if cols.is_empty() {
            "rollup_total".to_string()
        } else {
            format!("rollup_{}", cols.join("_"))
        };
        specs.push(GroupingSpec::new(&name, cols, aggs));
    }
    grouping_sets(rel, &specs)
}

/// CUBE as grouping sets over all 2^k subsets.
pub fn cube(rel: &RelationF, by: &[&str], aggs: &[(&str, AggSpec)]) -> Result<DatabaseF> {
    let k = by.len();
    if k > 16 {
        return Err(FdmError::Other("cube over more than 16 attributes".into()));
    }
    let mut specs = Vec::with_capacity(1 << k);
    for mask in (0..(1usize << k)).rev() {
        let cols: Vec<&str> = by
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        let name = if cols.is_empty() {
            "cube_total".to_string()
        } else {
            format!("cube_{}", cols.join("_"))
        };
        specs.push(GroupingSpec::new(&name, &cols, aggs));
    }
    grouping_sets(rel, &specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::filter_attr;
    use crate::group::group;
    use fdm_expr::GT;

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
    fn fig4b_unrolled_pipeline() {
        // groups = group(by=["age"], customers)
        // aggregates = aggregate(count=Count(), groups)
        // large_groups = filter(g.count > 2, aggregates)
        let groups = group(&customers(), &["age"]).unwrap();
        let aggregates = aggregate(&groups, &[("count", AggSpec::Count)]).unwrap();
        assert_eq!(aggregates.len(), 2);
        let large = filter_attr(&aggregates, "count", GT, 2).unwrap();
        assert_eq!(large.len(), 1);
        let t = large.lookup(&Value::Int(43)).unwrap();
        assert_eq!(t.get("age").unwrap(), Value::Int(43));
        assert_eq!(t.get("count").unwrap(), Value::Int(3));
    }

    #[test]
    fn fig4c_fused_equals_unrolled() {
        let fused =
            group_and_aggregate(&customers(), &["age"], &[("count", AggSpec::Count)]).unwrap();
        let groups = group(&customers(), &["age"]).unwrap();
        let unrolled = aggregate(&groups, &[("count", AggSpec::Count)]).unwrap();
        assert_eq!(fused.len(), unrolled.len());
        for key in fused.stored_keys() {
            assert!(fused
                .lookup(&key)
                .unwrap()
                .eq_data(&unrolled.lookup(&key).unwrap()));
        }
    }

    #[test]
    fn all_aggregate_kinds() {
        let out = group_and_aggregate(
            &customers(),
            &["state"],
            &[
                ("count", AggSpec::Count),
                ("sum_age", AggSpec::Sum("age".into())),
                ("min_age", AggSpec::Min("age".into())),
                ("max_age", AggSpec::Max("age".into())),
                ("avg_age", AggSpec::Avg("age".into())),
            ],
        )
        .unwrap();
        let ny = out.lookup(&Value::str("NY")).unwrap();
        assert_eq!(ny.get("count").unwrap(), Value::Int(3));
        assert_eq!(ny.get("sum_age").unwrap(), Value::Int(116));
        assert_eq!(ny.get("min_age").unwrap(), Value::Int(30));
        assert_eq!(ny.get("max_age").unwrap(), Value::Int(43));
        match ny.get("avg_age").unwrap() {
            Value::Float(x) => assert!((x - 116.0 / 3.0).abs() < 1e-9),
            other => panic!("avg is float, got {other}"),
        }
    }

    #[test]
    fn multi_attr_grouping_carries_all_keys() {
        let out = group_and_aggregate(
            &customers(),
            &["age", "state"],
            &[("count", AggSpec::Count)],
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        let k = Value::list([Value::Int(43), Value::str("NY")]);
        let t = out.lookup(&k).unwrap();
        assert_eq!(t.get("age").unwrap(), Value::Int(43));
        assert_eq!(t.get("state").unwrap(), Value::str("NY"));
        assert_eq!(t.get("count").unwrap(), Value::Int(2));
    }

    #[test]
    fn fig8_grouping_sets_separate_relations() {
        // gset: by age (count), by (age,name) (count), global min
        let gset = grouping_sets(
            &customers(),
            &[
                GroupingSpec::new("age_cc", &["age"], &[("count", AggSpec::Count)]),
                GroupingSpec::new(
                    "age_name_cc",
                    &["age", "name"],
                    &[("count", AggSpec::Count)],
                ),
                GroupingSpec::new("global_min", &[], &[("min", AggSpec::Min("age".into()))]),
            ],
        )
        .unwrap();
        assert_eq!(gset.len(), 3, "three semantically different outputs");
        let age_cc = gset.relation("age_cc").unwrap();
        assert_eq!(age_cc.len(), 2);
        let age_name = gset.relation("age_name_cc").unwrap();
        assert_eq!(age_name.len(), 5);
        let global = gset.relation("global_min").unwrap();
        assert_eq!(
            global.lookup(&Value::Int(0)).unwrap().get("min").unwrap(),
            Value::Int(30)
        );
        // And the FDM point: none of these tuples has any notion of NULL —
        // each relation has exactly its own attributes.
        for (_, t) in age_cc.tuples().unwrap() {
            assert_eq!(t.attr_count(), 2, "age + count, nothing more");
        }
    }

    #[test]
    fn rollup_and_cube_cardinalities() {
        let r = rollup(&customers(), &["state", "age"], &[("c", AggSpec::Count)]).unwrap();
        // levels: (state,age), (state), ()
        assert_eq!(r.len(), 3);
        assert_eq!(r.relation("rollup_state_age").unwrap().len(), 4);
        assert_eq!(r.relation("rollup_state").unwrap().len(), 2);
        assert_eq!(r.relation("rollup_total").unwrap().len(), 1);
        let c = cube(&customers(), &["state", "age"], &[("c", AggSpec::Count)]).unwrap();
        assert_eq!(c.len(), 4, "2^2 subsets");
        assert_eq!(c.relation("cube_age").unwrap().len(), 2);
    }

    #[test]
    fn aggregate_errors_are_typed_not_null() {
        // sum over a string attribute: type error, not NULL propagation
        let err = group_and_aggregate(
            &customers(),
            &["state"],
            &[("s", AggSpec::Sum("name".into()))],
        )
        .unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
        // min over empty global group: explicit error
        let empty = RelationF::new("none", &["id"]);
        let err = aggregate_all(&empty, &[("m", AggSpec::Min("x".into()))]).unwrap_err();
        assert!(err.to_string().contains("empty group"), "{err}");
        // count over empty is 0, sum is 0
        let t = aggregate_all(
            &empty,
            &[("c", AggSpec::Count), ("s", AggSpec::Sum("x".into()))],
        )
        .unwrap();
        assert_eq!(t.get("c").unwrap(), Value::Int(0));
        assert_eq!(t.get("s").unwrap(), Value::Int(0));
    }
}
