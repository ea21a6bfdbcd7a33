//! The `filter` operator and its six costumes (paper Fig. 4a).
//!
//! One FQL expression — "customers older than 42" — wearable six ways:
//!
//! | Paper (Python) | Here (Rust) |
//! |---|---|
//! | `filter(lambda prof: prof("age") > 42, customers)` | [`filter_fn`] with a closure |
//! | `filter(lambda prof: prof.age > 42, customers)` | same closure, `t.get("age")` |
//! | `filter(age__gt=42, customers)` | [`filter_kwargs`] (`"age__gt"`) |
//! | `filter(att='age', op=gt, c=42, customers)` | [`filter_attr`] with [`fdm_expr::CmpOp`] |
//! | `filter("age>$foo", {foo: 42}, customers)` | [`filter_expr`] with [`Params`] |
//! | pre-parsed/bound expression | [`filter_bound`] |
//!
//! All six produce the *same* output relation function; the Fig. 4
//! benchmark measures their relative costume overhead.
//!
//! `filter` is not specific to relations: [`filter_db`] filters a
//! *database* function by entry name (the first step of the paper's
//! Fig. 5 subdatabase query) — same operator concept, one level up.

use crate::physical::{Op, Pred};
use fdm_core::{DatabaseF, FdmError, FnValue, Name, RelationF, Result, Shape, TupleF, Value};
use fdm_expr::{by_suffix, parse, CmpOp, Expr, Params};
use std::borrow::Cow;
use std::sync::Arc;

/// Costume 1/2: filter by a host-language closure over tuple functions.
///
/// The closure sees the full tuple function — computed attributes and
/// nested functions included — borrowed from the relation, never copied:
/// like every costume, this is the physical scan → filter → root plan,
/// which builds only the output (`physical.rs`).
pub fn filter_fn(rel: &RelationF, pred: impl Fn(&TupleF) -> Result<bool>) -> Result<RelationF> {
    filter(rel, Pred::Fn(&pred))
}

/// The plan every filter costume runs: `rel`'s rows in key order, the
/// ones `pred` keeps built into a relation named and keyed like `rel`.
fn filter(rel: &RelationF, pred: Pred<'_>) -> Result<RelationF> {
    let input = Box::new(Op::Scan { rel, inline: false });
    Op::Filter { input, pred }.collect(&mut Vec::new())
}

/// Costume 4: broken-up predicate — `filter(att='age', op=gt, c=42, …)`.
pub fn filter_attr(
    rel: &RelationF,
    attr: &str,
    op: CmpOp,
    c: impl Into<Value>,
) -> Result<RelationF> {
    let c = c.into();
    filter_fn(rel, |t| {
        let v = t.get(attr)?;
        op.apply(&v, &c).map_err(FdmError::from)
    })
}

/// Costume 3: Django-ORM style kwargs — `filter(age__gt=42, …)`.
///
/// Each key is `attr__op` (plain `attr` means equality); multiple kwargs
/// conjoin.
pub fn filter_kwargs(rel: &RelationF, kwargs: &[(&str, Value)]) -> Result<RelationF> {
    // Pre-resolve the kwarg specs once, not per tuple.
    let mut specs: Vec<(Name, CmpOp)> = Vec::with_capacity(kwargs.len());
    for (k, _) in kwargs {
        let (attr, op) = match k.rsplit_once("__") {
            Some((attr, suffix)) => {
                let op = by_suffix(suffix).ok_or_else(|| {
                    FdmError::Expr(format!(
                        "unknown filter operator suffix '{suffix}' in '{k}'"
                    ))
                })?;
                (attr, op)
            }
            None => (*k, fdm_expr::EQ),
        };
        specs.push((Name::from(attr), op));
    }
    filter_fn(rel, |t| {
        for ((attr, op), (_, c)) in specs.iter().zip(kwargs) {
            let v = t.get(attr)?;
            if !op.apply(&v, c).map_err(FdmError::from)? {
                return Ok(false);
            }
        }
        Ok(true)
    })
}

/// Costume 5: textual predicate with `$params` —
/// `filter("age>$foo", {foo: 42}, customers)`.
///
/// Parsing happens once; parameters are bound as values (injection-proof,
/// see `fdm-expr`).
pub fn filter_expr(rel: &RelationF, src: &str, params: Params) -> Result<RelationF> {
    let expr = parse(src).map_err(FdmError::from)?;
    let bound = params.bind(&expr).map_err(FdmError::from)?;
    filter_bound(rel, &bound)
}

/// Costume 6: an already-parsed, already-bound expression, compiled once
/// per tuple shape ([`fdm_expr::Compiled`]).
pub fn filter_bound(rel: &RelationF, expr: &Expr) -> Result<RelationF> {
    filter(rel, Pred::Expr(expr))
}

/// `filter` one level up: keep only the database entries whose
/// `(name, entry)` pair satisfies the predicate (paper Fig. 5:
/// `filter(lambda kv: kv[0] in relations, DB)`).
pub fn filter_db(db: &DatabaseF, pred: impl Fn(&str, &FnValue) -> bool) -> DatabaseF {
    let mut out = DatabaseF::new(db.name());
    for (name, entry) in db.iter() {
        if pred(name, entry) {
            out = out.with_entry(name.as_ref(), entry.clone());
        }
    }
    // carry the schema's shared domains over
    for (_, d) in db.shared_domains() {
        out = out.with_domain(d.clone());
    }
    out
}

/// `filter` at the *tuple* level: keep only attributes satisfying the
/// predicate — the same operator concept applied one level *down*
/// (tears down the tuple/relation boundary, paper §2.2).
pub fn filter_tuple(t: &TupleF, pred: impl Fn(&str, &Value) -> bool) -> Result<TupleF> {
    let keep: Vec<Arc<str>> = t
        .materialize()?
        .into_iter()
        .filter(|(n, v)| pred(n, v))
        .map(|(n, _)| n)
        .collect();
    let keep_refs: Vec<&str> = keep.iter().map(|n| n.as_ref()).collect();
    t.project(&keep_refs)
}

/// Inlines a relation's key into its tuples as ordinary attributes.
///
/// In FDM the key is the function *input*, not part of the returned
/// attributes (paper Fig. 1). Operators that need to talk about the key —
/// equi-joins on key attributes, plans projecting `cid` — call this to get
/// a view where each tuple additionally carries its key attribute(s).
/// Attributes the tuple already has are left alone.
///
/// When every stored tuple already carries all key attributes (e.g. a scan
/// output being re-scanned), the relation is returned **unchanged** — an
/// O(1) structural share instead of an O(n) copy of every tuple.
pub fn with_inlined_keys(rel: &RelationF) -> Result<RelationF> {
    let key_names = rel.key_attrs();
    // Pass-through: a plain stored body whose tuples all have the key
    // attributes inline needs no rebuild — share the map O(1), rewrapped
    // unconstrained so both paths produce the same output shape.
    // (Multi/computed bodies always rebuild — their enumeration is what
    // materializes the output.)
    if let Some(map) = rel.stored_map() {
        if map
            .values()
            .all(|t| key_names.iter().all(|n| t.has_attr(n)))
        {
            return Ok(rel.with_stored_map(map.clone()));
        }
    }
    let mut out = rel.builder_like();
    let mut inliner = KeyInliner::new(key_names);
    for (key, tuple) in rel.tuples()? {
        let inlined = inliner.inline(&key, &tuple);
        out.push_arc(key, inlined);
    }
    out.build()
}

/// What an operator derives per input shape, kept as long as the operator
/// is: found by pointer — the last hit first — and then by shape *value*,
/// so a tuple built on its own reuses what an equal shape derived, and
/// the memo holds one entry per distinct shape however many allocations
/// carry it. A maintained view keeps these across commits; an executor
/// operator for one call.
#[derive(Clone)]
pub(crate) struct PerShape<V> {
    derived: Vec<(Arc<Shape>, V)>,
    last: usize,
}

impl<V> PerShape<V> {
    pub(crate) fn new() -> Self {
        PerShape {
            derived: Vec::new(),
            last: 0,
        }
    }

    /// The shapes derived for, in the order first seen.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> Vec<&Arc<Shape>> {
        self.derived.iter().map(|(shape, _)| shape).collect()
    }

    /// What `derive` answered for `shape` (or a shape equal to it),
    /// calling it only the first time.
    pub(crate) fn get_or_derive(&mut self, shape: &Arc<Shape>, derive: impl FnOnce() -> V) -> &V {
        let pinned = |(s, _): &(Arc<Shape>, V)| Arc::ptr_eq(s, shape);
        if !self.derived.get(self.last).is_some_and(pinned) {
            let found = (self.derived.iter().position(pinned))
                .or_else(|| self.derived.iter().position(|(s, _)| **s == **shape));
            self.last = found.unwrap_or_else(|| {
                self.derived.push((shape.clone(), derive()));
                self.derived.len() - 1
            });
        }
        &self.derived[self.last].1
    }
}

/// The per-tuple half of [`with_inlined_keys`]: returns tuples with their
/// key attribute(s) inlined, sharing the input when nothing is missing —
/// or, lazily, says what inlining would append ([`Self::lacks`]), so a
/// scan can hand on the stored tuple and let an operator read the key
/// parts off the key. What a shape lacks is derived once per distinct
/// input shape ([`PerShape`]), so a row costs its values — no name is
/// looked at, let alone allocated, per tuple. A maintained view's scan
/// keeps one for the life of the view.
#[derive(Clone)]
pub(crate) struct KeyInliner {
    key_names: Box<[Name]>,
    memo: PerShape<Option<Arc<Lacks>>>,
}

/// What inlining a key appends to the tuples of one shape: the key parts
/// the shape lacks, and the shape with their names appended.
pub(crate) struct Lacks {
    /// Positions in the key of the parts appended, in order.
    parts: Vec<usize>,
    /// A composite key: parts are the elements of a `Value::List` key.
    composite: bool,
    /// The inlined shape.
    pub(crate) shape: Arc<Shape>,
}

impl Lacks {
    /// The `i`-th appended value, read off `key`.
    pub(crate) fn part<'k>(&self, key: &'k Value, i: usize) -> &'k Value {
        match key {
            Value::List(parts) if self.composite => &parts[self.parts[i]],
            whole => whole,
        }
    }

    /// The appended values, in order.
    pub(crate) fn values<'k>(&'k self, key: &'k Value) -> impl Iterator<Item = &'k Value> + 'k {
        (0..self.parts.len()).map(move |i| self.part(key, i))
    }
}

impl KeyInliner {
    pub(crate) fn new(key_names: &[Name]) -> Self {
        KeyInliner {
            key_names: key_names.into(),
            memo: PerShape::new(),
        }
    }

    /// The shapes derived for, in the order first seen.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> Vec<&Arc<Shape>> {
        self.memo.shapes()
    }

    /// What inlining `key` into a tuple of `shape` appends; `None` when
    /// nothing: the shape has every key attribute, or `key` does not fit
    /// the key attributes (a composite key that is no list of their arity).
    pub(crate) fn lacks(&mut self, key: &Value, shape: &Arc<Shape>) -> Option<&Arc<Lacks>> {
        let key_names = &self.key_names;
        let composite = key_names.len() > 1;
        let fits = match key {
            Value::List(parts) if composite => parts.len() == key_names.len(),
            _ => key_names.len() == 1,
        };
        if !fits {
            return None;
        }
        let lacks = self.memo.get_or_derive(shape, || {
            let mut parts: Vec<usize> = Vec::new();
            for (at, name) in key_names.iter().enumerate() {
                let seen = parts.iter().any(|&a| key_names[a] == *name);
                if !seen && shape.position(name).is_none() {
                    parts.push(at);
                }
            }
            if parts.is_empty() {
                return None;
            }
            let shape = shape.with_names(parts.iter().map(|&at| key_names[at].clone()));
            Some(Arc::new(Lacks {
                parts,
                composite,
                shape,
            }))
        });
        lacks.as_ref()
    }

    pub(crate) fn inline(&mut self, key: &Value, tuple: &Arc<TupleF>) -> Arc<TupleF> {
        match self.lacks(key, tuple.shape()) {
            Some(lacks) => {
                Arc::new(tuple.appended(lacks.shape.clone(), lacks.values(key).cloned()))
            }
            None => tuple.clone(),
        }
    }

    /// `tuple` as a scan hands it on: the stored tuple and what inlining
    /// `key` would append — or, for a tuple with computed attributes
    /// (which may read the key), its inlined copy.
    pub(crate) fn split<'t>(
        &mut self,
        key: &Value,
        tuple: &'t Arc<TupleF>,
    ) -> (Cow<'t, Arc<TupleF>>, Option<Arc<Lacks>>) {
        if tuple.has_computed_attrs() {
            return (Cow::Owned(self.inline(key, tuple)), None);
        }
        (
            Cow::Borrowed(tuple),
            self.lacks(key, tuple.shape()).cloned(),
        )
    }
}

/// The value [`KeyInliner::inline`] files under `attr` when the tuple lacks it:
/// the key itself, or its part at `attr`'s position in a composite key.
fn key_part<'a>(key: &'a Value, key_names: &[Name], attr: &str) -> Option<&'a Value> {
    let at = key_names.iter().position(|k| k.as_ref() == attr)?;
    match key {
        Value::List(parts) if key_names.len() > 1 => {
            (parts.len() == key_names.len()).then(|| &parts[at])
        }
        whole => (key_names.len() == 1).then_some(whole),
    }
}

/// `KeyInliner::new(key_names).inline(key, tuple).get(attr)` without building the
/// inlined tuple: a stored attribute answers for itself, a key attribute
/// the tuple lacks is read off the key. Tuples with computed attributes
/// (which may read the key) do inline first.
pub(crate) fn get_inlined(
    key: &Value,
    tuple: &Arc<TupleF>,
    key_names: &[Name],
    attr: &str,
) -> Result<Value> {
    if tuple.has_computed_attrs() {
        return KeyInliner::new(key_names).inline(key, tuple).get(attr);
    }
    match key_part(key, key_names, attr) {
        Some(part) if !tuple.has_attr(attr) => Ok(part.clone()),
        _ => tuple.get(attr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm_expr::GT;

    fn customers() -> RelationF {
        let mut rel = RelationF::new("customers", &["cid"]);
        for (cid, name, age) in [
            (1, "Alice", 43),
            (2, "Bob", 30),
            (3, "Carol", 55),
            (4, "Dave", 42),
        ] {
            rel = rel
                .insert(
                    Value::Int(cid),
                    TupleF::builder(format!("c{cid}"))
                        .attr("name", name)
                        .attr("age", age)
                        .build(),
                )
                .unwrap();
        }
        rel
    }

    fn names(rel: &RelationF) -> Vec<String> {
        rel.tuples()
            .unwrap()
            .into_iter()
            .map(|(_, t)| t.get("name").unwrap().as_str("name").unwrap().to_string())
            .collect()
    }

    #[test]
    fn all_six_costumes_agree() {
        let rel = customers();
        let expect = vec!["Alice".to_string(), "Carol".to_string()];

        // 1: closure, call syntax
        let a = filter_fn(&rel, |t| Ok(t.get("age")?.as_int("age")? > 42)).unwrap();
        // 2: closure, "dot" syntax — in Rust the same get()
        let b = filter_fn(&rel, |t| {
            Ok(matches!(t.get("age")?, Value::Int(i) if i > 42))
        })
        .unwrap();
        // 3: Django kwargs
        let c = filter_kwargs(&rel, &[("age__gt", Value::Int(42))]).unwrap();
        // 4: broken-up predicate
        let d = filter_attr(&rel, "age", GT, 42).unwrap();
        // 5: textual predicate with params
        let e = filter_expr(&rel, "age>$foo", Params::new().set("foo", 42)).unwrap();
        // 6: pre-bound expression
        let bound = Params::new()
            .set("foo", 42)
            .bind(&parse("age>$foo").unwrap())
            .unwrap();
        let f = filter_bound(&rel, &bound).unwrap();

        for (i, r) in [&a, &b, &c, &d, &e, &f].iter().enumerate() {
            assert_eq!(names(r), expect, "costume {}", i + 1);
            assert_eq!(r.len(), 2, "costume {}", i + 1);
        }
    }

    #[test]
    fn filter_preserves_keys() {
        let rel = customers();
        let out = filter_attr(&rel, "age", GT, 42).unwrap();
        assert!(out.lookup(&Value::Int(1)).is_some());
        assert!(out.lookup(&Value::Int(2)).is_none(), "Bob filtered out");
        assert_eq!(out.key_attrs()[0].as_ref(), "cid");
    }

    #[test]
    fn kwargs_conjoin_and_plain_attr_means_eq() {
        let rel = customers();
        let out = filter_kwargs(
            &rel,
            &[("age__gt", Value::Int(40)), ("name", Value::str("Dave"))],
        )
        .unwrap();
        assert_eq!(names(&out), vec!["Dave"]);
        let err = filter_kwargs(&rel, &[("age__within", Value::Int(1))]).unwrap_err();
        assert!(err.to_string().contains("within"), "{err}");
    }

    #[test]
    fn filter_expr_type_errors_surface() {
        let rel = customers();
        let err = filter_expr(&rel, "name > $x", Params::new().set("x", 5)).unwrap_err();
        assert!(err.to_string().contains("cannot order"), "{err}");
        let err = filter_expr(&rel, "age >", Params::new()).unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn filter_db_selects_entries() {
        let db = DatabaseF::new("shop")
            .with_relation(customers())
            .with_relation(RelationF::new("products", &["pid"]));
        let keep = ["products"];
        let sub = filter_db(&db, |name, _| keep.contains(&name));
        assert_eq!(sub.len(), 1);
        assert!(sub.contains("products"));
        assert!(!sub.contains("customers"));
    }

    #[test]
    fn filter_tuple_projects_by_predicate() {
        let t = TupleF::builder("t")
            .attr("name", "Alice")
            .attr("age", 43)
            .attr("tmp", 0)
            .build();
        let out = filter_tuple(&t, |n, _| n != "tmp").unwrap();
        assert_eq!(out.attr_count(), 2);
        assert!(!out.has_attr("tmp"));
        // filter by value too
        let out = filter_tuple(&t, |_, v| matches!(v, Value::Int(_))).unwrap();
        assert_eq!(out.attr_count(), 2);
        assert!(!out.has_attr("name"));
    }

    #[test]
    fn empty_result_is_fine() {
        let rel = customers();
        let out = filter_attr(&rel, "age", GT, 1000).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn inlined_keys_pass_through_when_already_inline() {
        let rel = customers();
        let once = with_inlined_keys(&rel).unwrap();
        let t = once.lookup(&Value::Int(1)).unwrap();
        assert_eq!(t.get("cid").unwrap(), Value::Int(1));
        // second application: every tuple already carries `cid`, so the
        // relation comes back structurally shared, not rebuilt
        let twice = with_inlined_keys(&once).unwrap();
        let a = once.lookup(&Value::Int(1)).unwrap();
        let b = twice.lookup(&Value::Int(1)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "pass-through shares tuples");
        assert_eq!(twice.len(), once.len());
    }
}
