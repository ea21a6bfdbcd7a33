//! Tuple functions (paper §2.3).
//!
//! A tuple function maps attribute names to values:
//! `t1('name') = 'Alice'`. Attributes may be **stored** (a constant) or
//! **computed** (a closure over the tuple itself) — and the two are
//! indistinguishable to callers, which is the paper's point (3): "the
//! boundary between data that is stored and data that is computed is
//! removed". Values may themselves be functions (nested tuples, relations;
//! §2.6).
//!
//! # The data-key fingerprint cache
//!
//! Database-level set operations (`minus`/`intersect`, the §4.4
//! differential-database path) compare tuples by their **canonical data
//! key**: every attribute materialized, sorted by name — an O(a log a)
//! computation with allocations, paid per comparison if done naively.
//! Each tuple therefore carries a lazily computed [`DataKey`] (the
//! canonical key plus a cheap 64-bit hash for O(1) inequality rejection)
//! in a [`OnceLock`]: the first [`TupleF::data_key`] /
//! [`TupleF::fingerprint`] / [`TupleF::eq_data`] call pays the
//! materialization, every later one is a lock-free read.
//!
//! **Invalidation contract.** A `TupleF` is immutable: every "mutation"
//! (`with_attr`, `without_attr`, `project`, the builders) constructs a
//! *new* tuple — and every construction site starts with an **empty**
//! cache. Staleness is therefore impossible by construction: there is no
//! code path that changes a tuple's attributes while keeping its cache.
//! Cloning a tuple copies the cache, which is sound because the clone has
//! identical attributes. The one assumption is that computed attributes
//! are **deterministic** (pure functions of the tuple, as the paper's
//! model demands); a computed attribute reading ambient mutable state
//! would make any caching — and the paper's stored/computed equivalence
//! itself — unsound. Failed computations are never cached: a tuple whose
//! computed attribute errors recomputes (and re-errors) on every call.

use crate::domain::Domain;
use crate::error::{FdmError, Name, Result};
use crate::function::Function;
use crate::value::Value;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A tuple's canonical data fingerprint: the sorted-attribute data key
/// (see [`TupleF::data_key`]) together with its precomputed
/// [`Value::fx_hash`]. Two fingerprints are equal iff the data keys are equal;
/// the hash makes the (overwhelmingly common) *unequal* case a single
/// integer comparison.
#[derive(Clone, Debug)]
pub struct DataKey {
    hash: u64,
    key: Value,
}

impl DataKey {
    /// The 64-bit hash of the canonical key.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical key itself: a flat list
    /// `[name1, value1, name2, value2, ...]` sorted by attribute name.
    pub fn value(&self) -> &Value {
        &self.key
    }
}

impl PartialEq for DataKey {
    fn eq(&self, other: &DataKey) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for DataKey {}

/// A computed attribute: a closure receiving the tuple it belongs to, so it
/// can derive its value from other attributes (like the paper's
/// `t('bar') = 42 · t1('foo')`).
pub type ComputedAttr = Arc<dyn Fn(&TupleF) -> Result<Value> + Send + Sync>;

/// One attribute definition.
#[derive(Clone)]
enum AttrDef {
    Stored(Value),
    Computed(ComputedAttr),
}

/// A tuple function: attribute name → value.
///
/// Construction goes through [`TupleBuilder`]; the result is immutable.
/// "Updates" build new tuples ([`TupleF::with_attr`]) — persistence all the
/// way down, so snapshots are free.
///
/// # Examples
///
/// ```
/// use fdm_core::{TupleF, Value};
///
/// // t1(attr) := {('name': 'Alice'), ('foo': 12)}            (paper §2.3)
/// let t1 = TupleF::builder("t1")
///     .attr("name", "Alice")
///     .attr("foo", 12)
///     .build();
/// assert_eq!(t1.get("foo").unwrap(), Value::Int(12));
///
/// // computed attribute: t('bar') = 42 * t('foo')
/// let t = TupleF::builder("t")
///     .attr("name", "Alice")
///     .attr("foo", 12)
///     .computed("bar", |t| t.get("foo")?.mul(&Value::Int(42)))
///     .build();
/// assert_eq!(t.get("bar").unwrap(), Value::Int(504));
/// ```
#[derive(Clone)]
pub struct TupleF {
    name: Name,
    /// Attribute definitions in declaration order (small: linear scan wins
    /// over hashing for the typical < 32 attributes).
    attrs: Arc<[(Name, AttrDef)]>,
    /// Lazily computed canonical fingerprint (see the module docs for the
    /// invalidation contract: fresh and empty at every construction site,
    /// so it can never outlive the attribute list it describes). `Clone`
    /// carries a filled cache over, which is sound — the clone's
    /// attributes are identical.
    data_key_cache: OnceLock<DataKey>,
}

impl TupleF {
    /// Starts building a tuple function with the given name.
    pub fn builder(name: impl AsRef<str>) -> TupleBuilder {
        TupleBuilder {
            name: Arc::from(name.as_ref()),
            attrs: Vec::new(),
        }
    }

    /// Builds a stored-only tuple directly from already-interned
    /// `(name, value)` pairs — the bulk-construction companion used by join
    /// and projection hot paths, where re-allocating every attribute name
    /// through [`TupleBuilder::attr`] would dominate. The tuple name may be
    /// an interned [`Name`] too: a join names every output row alike and
    /// shares one.
    pub fn from_parts(name: impl Into<Name>, parts: Vec<(Name, Value)>) -> TupleF {
        TupleF {
            name: name.into(),
            // an exact-size iterator collects straight into the shared slice
            attrs: parts
                .into_iter()
                .map(|(n, v)| (n, AttrDef::Stored(v)))
                .collect(),
            data_key_cache: OnceLock::new(),
        }
    }

    /// The tuple function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes (stored + computed).
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute names in declaration order.
    pub fn attr_names(&self) -> impl Iterator<Item = &Name> + '_ {
        self.attrs.iter().map(|(n, _)| n)
    }

    /// `true` if the tuple has this attribute.
    pub fn has_attr(&self, attr: &str) -> bool {
        self.attrs.iter().any(|(n, _)| n.as_ref() == attr)
    }

    /// `true` if any attribute is computed — such a tuple's answers may
    /// depend on every other attribute it carries.
    pub fn has_computed_attrs(&self) -> bool {
        self.attrs
            .iter()
            .any(|(_, d)| matches!(d, AttrDef::Computed(_)))
    }

    /// `true` if the attribute exists and is computed (not stored).
    pub fn is_computed(&self, attr: &str) -> bool {
        self.attrs
            .iter()
            .any(|(n, d)| n.as_ref() == attr && matches!(d, AttrDef::Computed(_)))
    }

    /// Looks up an attribute value — calling the tuple function.
    ///
    /// Computed attributes are evaluated on demand; callers cannot tell the
    /// difference.
    pub fn get(&self, attr: &str) -> Result<Value> {
        for (n, def) in self.attrs.iter() {
            if n.as_ref() == attr {
                return match def {
                    AttrDef::Stored(v) => Ok(v.clone()),
                    AttrDef::Computed(f) => f(self),
                };
            }
        }
        Err(FdmError::NoSuchAttribute {
            attr: attr.to_string(),
        })
    }

    /// Like [`Self::get`] but returns `None` instead of an error for a
    /// missing attribute.
    pub fn try_get(&self, attr: &str) -> Option<Value> {
        self.get(attr).ok()
    }

    /// Builds a new tuple with `attr` set to `value` (stored), replacing
    /// any previous definition. This is the FQL update
    /// `customers[3]['age'] = 50` (paper Fig. 10) at the tuple level.
    pub fn with_attr(&self, attr: impl AsRef<str>, value: impl Into<Value>) -> TupleF {
        let attr = attr.as_ref();
        let mut attrs: Vec<(Name, AttrDef)> = self.attrs.to_vec();
        let def = AttrDef::Stored(value.into());
        match attrs.iter_mut().find(|(n, _)| n.as_ref() == attr) {
            Some((_, slot)) => *slot = def,
            None => attrs.push((Arc::from(attr), def)),
        }
        TupleF {
            name: self.name.clone(),
            attrs: attrs.into(),
            data_key_cache: OnceLock::new(),
        }
    }

    /// Builds a new tuple without `attr`.
    pub fn without_attr(&self, attr: &str) -> TupleF {
        let attrs: Vec<(Name, AttrDef)> = self
            .attrs
            .iter()
            .filter(|(n, _)| n.as_ref() != attr)
            .cloned()
            .collect();
        TupleF {
            name: self.name.clone(),
            attrs: attrs.into(),
            data_key_cache: OnceLock::new(),
        }
    }

    /// Builds a new tuple with only the named attributes, in the given
    /// order (projection).
    pub fn project(&self, attrs: &[&str]) -> Result<TupleF> {
        let mut out = Vec::with_capacity(attrs.len());
        for want in attrs {
            let found = self
                .attrs
                .iter()
                .find(|(n, _)| n.as_ref() == *want)
                .ok_or_else(|| FdmError::NoSuchAttribute {
                    attr: (*want).to_string(),
                })?;
            out.push(found.clone());
        }
        Ok(TupleF {
            name: self.name.clone(),
            attrs: out.into(),
            data_key_cache: OnceLock::new(),
        })
    }

    /// Evaluates every attribute and returns `(name, value)` pairs in
    /// declaration order. Computed attributes are materialized.
    pub fn materialize(&self) -> Result<Vec<(Name, Value)>> {
        self.attrs
            .iter()
            .map(|(n, _)| Ok((n.clone(), self.get(n)?)))
            .collect()
    }

    /// Structural data equality: same attribute names (order-insensitive)
    /// mapping to equal values, with computed attributes evaluated.
    /// Evaluation failures compare as not-equal.
    ///
    /// Runs on the cached [`fingerprint`](Self::fingerprint): after the
    /// first comparison involving a tuple, further comparisons cost one
    /// hash check (plus a full key comparison only on hash equality).
    pub fn eq_data(&self, other: &TupleF) -> bool {
        if self.attrs.len() != other.attrs.len() {
            return false;
        }
        match (self.fingerprint(), other.fingerprint()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }

    /// A canonical sort key over materialized attributes, used for
    /// deterministic ordering and duplicate elimination in set operations.
    /// Cached: the first call materializes and sorts (see
    /// [`Self::compute_data_key`]); later calls clone the cached value.
    pub fn data_key(&self) -> Result<Value> {
        Ok(self.fingerprint()?.value().clone())
    }

    /// The cached canonical fingerprint (data key + hash), computing and
    /// caching it on first use. Errors (a failing computed attribute) are
    /// never cached, so they surface on every call.
    pub fn fingerprint(&self) -> Result<&DataKey> {
        if self.data_key_cache.get().is_none() {
            let key = self.compute_data_key()?;
            let hash = key.fx_hash();
            // a racing thread may have set it first — identical value,
            // so losing the race is fine
            let _ = self.data_key_cache.set(DataKey { hash, key });
        }
        Ok(self.data_key_cache.get().expect("set above"))
    }

    /// Computes the canonical data key **without** consulting or filling
    /// the cache: every attribute materialized, pairs sorted by name,
    /// flattened into a list. This is the raw O(a log a) computation that
    /// [`Self::data_key`] amortizes; it stays public so benchmarks can
    /// measure the uncached path and tests can cross-check the cache.
    pub fn compute_data_key(&self) -> Result<Value> {
        let mut pairs = self.materialize()?;
        pairs.sort_by(|x, y| x.0.cmp(&y.0));
        Ok(Value::list(
            pairs.into_iter().flat_map(|(n, v)| [Value::Str(n), v]),
        ))
    }
}

impl Function for TupleF {
    fn fn_name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        1
    }

    fn domain(&self) -> Domain {
        Domain::enumerated(self.attrs.iter().map(|(n, _)| Value::Str(n.clone())))
    }

    fn apply(&self, args: &[Value]) -> Result<Value> {
        if args.len() != 1 {
            return Err(FdmError::ArityMismatch {
                function: self.name.to_string(),
                expected: 1,
                found: args.len(),
            });
        }
        let attr = args[0].as_str("tuple function argument")?;
        self.get(attr)
    }
}

impl fmt::Debug for TupleF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.name)?;
        for (i, (n, def)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match def {
                AttrDef::Stored(v) => write!(f, "'{n}': {v}")?,
                AttrDef::Computed(_) => write!(f, "'{n}': <computed>")?,
            }
        }
        write!(f, "}}")
    }
}

/// Builder for [`TupleF`].
pub struct TupleBuilder {
    name: Name,
    attrs: Vec<(Name, AttrDef)>,
}

impl TupleBuilder {
    /// Adds a stored attribute.
    pub fn attr(mut self, name: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.attrs
            .push((Arc::from(name.as_ref()), AttrDef::Stored(value.into())));
        self
    }

    /// Adds a stored attribute under an already-interned name (no name
    /// re-allocation; see [`TupleF::from_parts`]).
    pub fn attr_name(mut self, name: Name, value: Value) -> Self {
        self.attrs.push((name, AttrDef::Stored(value)));
        self
    }

    /// Adds a computed attribute: a closure over the finished tuple.
    pub fn computed(
        mut self,
        name: impl AsRef<str>,
        f: impl Fn(&TupleF) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        self.attrs
            .push((Arc::from(name.as_ref()), AttrDef::Computed(Arc::new(f))));
        self
    }

    /// Adds a nested function-valued attribute (paper §2.6: `t5('foo') = R`).
    pub fn function(
        mut self,
        name: impl AsRef<str>,
        f: impl Into<crate::function::FnValue>,
    ) -> Self {
        self.attrs.push((
            Arc::from(name.as_ref()),
            AttrDef::Stored(Value::Fn(f.into())),
        ));
        self
    }

    /// Finishes the tuple function.
    pub fn build(self) -> TupleF {
        TupleF {
            name: self.name,
            attrs: self.attrs.into(),
            data_key_cache: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{apply1, FnValue};

    fn t1() -> TupleF {
        TupleF::builder("t1")
            .attr("name", "Alice")
            .attr("foo", 12)
            .build()
    }

    #[test]
    fn paper_t1_lookup() {
        // t1('foo') = 12   (paper §2.3)
        let t = t1();
        assert_eq!(t.get("foo").unwrap(), Value::Int(12));
        assert_eq!(t.get("name").unwrap(), Value::str("Alice"));
        let err = t.get("bar").unwrap_err();
        assert!(matches!(err, FdmError::NoSuchAttribute { .. }));
    }

    #[test]
    fn computed_attr_indistinguishable_from_stored() {
        // t('bar') = 42 · t1('foo') if attr = 'bar', else t1(attr)
        let t = TupleF::builder("t")
            .attr("name", "Alice")
            .attr("foo", 12)
            .computed("bar", |t| t.get("foo")?.mul(&Value::Int(42)))
            .build();
        assert_eq!(t.get("bar").unwrap(), Value::Int(504));
        assert!(t.is_computed("bar"));
        assert!(!t.is_computed("foo"));
        // through the uniform Function interface there is no difference:
        assert_eq!(
            apply1(&t, &Value::str("bar")).unwrap(),
            apply1(&t, &Value::str("foo"))
                .unwrap()
                .mul(&Value::Int(42))
                .unwrap()
        );
    }

    #[test]
    fn function_interface_domain_is_attr_names() {
        let t = t1();
        let d = t.domain();
        assert!(d.contains(&Value::str("name")));
        assert!(!d.contains(&Value::str("nope")));
        let attrs = d.enumerate().unwrap();
        assert_eq!(attrs.len(), 2);
    }

    #[test]
    fn nested_function_valued_attribute() {
        // t3('foo') = t1 — a higher-order tuple (paper §2.6)
        let inner = t1();
        let t3 = TupleF::builder("t3")
            .attr("name", "Bob")
            .function("foo", inner)
            .build();
        let v = t3.get("foo").unwrap();
        let f = v.as_fn("nested").unwrap();
        let nested = f.as_tuple().unwrap();
        assert_eq!(nested.get("name").unwrap(), Value::str("Alice"));
    }

    #[test]
    fn with_attr_is_persistent() {
        let t = t1();
        let t2 = t.with_attr("foo", 99);
        assert_eq!(t.get("foo").unwrap(), Value::Int(12), "original unchanged");
        assert_eq!(t2.get("foo").unwrap(), Value::Int(99));
        let t3 = t.with_attr("new", "x");
        assert_eq!(t3.attr_count(), 3);
        assert!(!t.has_attr("new"));
    }

    #[test]
    fn without_attr_and_project() {
        let t = t1();
        let no_foo = t.without_attr("foo");
        assert!(!no_foo.has_attr("foo"));
        assert_eq!(no_foo.attr_count(), 1);
        let proj = t.project(&["foo"]).unwrap();
        assert_eq!(proj.attr_count(), 1);
        assert!(t.project(&["nope"]).is_err());
    }

    #[test]
    fn eq_data_is_order_insensitive_and_evaluates_computed() {
        let a = TupleF::builder("a").attr("x", 1).attr("y", 2).build();
        let b = TupleF::builder("b").attr("y", 2).attr("x", 1).build();
        assert!(a.eq_data(&b), "names differ but data equal");
        let c = TupleF::builder("c")
            .attr("y", 2)
            .computed("x", |_| Ok(Value::Int(1)))
            .build();
        assert!(a.eq_data(&c), "computed 1 == stored 1");
        let d = a.with_attr("x", 5);
        assert!(!a.eq_data(&d));
    }

    #[test]
    fn materialize_preserves_declaration_order() {
        let t = TupleF::builder("t").attr("b", 2).attr("a", 1).build();
        let m = t.materialize().unwrap();
        assert_eq!(m[0].0.as_ref(), "b");
        assert_eq!(m[1].0.as_ref(), "a");
    }

    #[test]
    fn failing_computed_attr_propagates_error() {
        let t = TupleF::builder("t")
            .computed("boom", |_| Err(FdmError::Other("kaput".into())))
            .build();
        assert!(t.get("boom").is_err());
        assert!(
            !t.eq_data(&t.clone()),
            "failing tuples are never data-equal"
        );
    }

    #[test]
    fn data_key_is_cached_and_matches_uncached() {
        let t = TupleF::builder("t")
            .attr("b", 2)
            .attr("a", 1)
            .computed("c", |t| t.get("a")?.add(&Value::Int(10)))
            .build();
        let cached = t.data_key().unwrap();
        assert_eq!(cached, t.compute_data_key().unwrap());
        // second call returns the cached value (same answer, no recompute)
        assert_eq!(t.data_key().unwrap(), cached);
        let fp = t.fingerprint().unwrap();
        assert_eq!(fp.value(), &cached);
    }

    #[test]
    fn fingerprint_invalidated_by_every_mutation_path() {
        let t = t1();
        let base = t.data_key().unwrap(); // cache filled
                                          // with_attr (value change)
        let m = t.with_attr("foo", 99);
        assert_eq!(m.data_key().unwrap(), m.compute_data_key().unwrap());
        assert_ne!(m.data_key().unwrap(), base, "stale cache would be equal");
        // with_attr (new attribute)
        let m = t.with_attr("extra", 1);
        assert_eq!(m.data_key().unwrap(), m.compute_data_key().unwrap());
        assert_ne!(m.data_key().unwrap(), base);
        // without_attr
        let m = t.without_attr("foo");
        assert_eq!(m.data_key().unwrap(), m.compute_data_key().unwrap());
        assert_ne!(m.data_key().unwrap(), base);
        // project
        let m = t.project(&["name"]).unwrap();
        assert_eq!(m.data_key().unwrap(), m.compute_data_key().unwrap());
        assert_ne!(m.data_key().unwrap(), base);
        // computed-attr rebinding: replace a stored attr by a computed one
        // with a different value
        let m = TupleF::builder(t.name())
            .attr("name", "Alice")
            .computed("foo", |_| Ok(Value::Int(13)))
            .build();
        assert_eq!(m.data_key().unwrap(), m.compute_data_key().unwrap());
        assert_ne!(m.data_key().unwrap(), base);
        // the original's cache still answers for the original
        assert_eq!(t.data_key().unwrap(), base);
    }

    #[test]
    fn clone_carries_cache_soundly() {
        let t = t1();
        let dk = t.data_key().unwrap();
        let c = t.clone();
        assert_eq!(c.data_key().unwrap(), dk, "same attrs, same key");
        // mutating the clone still invalidates
        let c2 = c.with_attr("foo", 0);
        assert_ne!(c2.data_key().unwrap(), dk);
    }

    #[test]
    fn fingerprint_hash_rejects_unequal_fast() {
        let a = TupleF::builder("a").attr("x", 1).build();
        let b = TupleF::builder("b").attr("x", 2).build();
        let fa = a.fingerprint().unwrap().clone();
        let fb = b.fingerprint().unwrap().clone();
        assert_ne!(fa, fb);
        assert_ne!(fa.hash(), fb.hash(), "FxHash separates 1 from 2");
        // equal data, different declaration order → same fingerprint
        let c = TupleF::builder("c").attr("y", 2).attr("x", 1).build();
        let d = TupleF::builder("d").attr("x", 1).attr("y", 2).build();
        assert_eq!(c.fingerprint().unwrap(), d.fingerprint().unwrap());
    }

    #[test]
    fn failing_computed_attr_is_never_cached() {
        let t = TupleF::builder("t")
            .computed("boom", |_| Err(FdmError::Other("kaput".into())))
            .build();
        assert!(t.fingerprint().is_err());
        assert!(t.fingerprint().is_err(), "error re-surfaces every call");
        assert!(t.data_key().is_err());
    }

    #[test]
    fn tuple_as_fnvalue_in_value() {
        let v = Value::Fn(FnValue::from(t1()));
        assert_eq!(v.value_type(), crate::types::ValueType::Function);
        let s = v.to_string();
        assert!(s.contains("tuple function"), "{s}");
    }
}
