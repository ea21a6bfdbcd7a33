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
//! # Representation
//!
//! A tuple is its domain plus one definition per attribute: an
//! `Arc<`[`Shape`]`>` (names, canonical order, name hash — see
//! [`crate::shape`]) and a boxed slice of definitions in the shape's
//! declaration order. Tuples of one relation normally share one shape, so
//! a row costs its values and one pointer, and nothing per tuple sorts,
//! hashes or clones attribute names.
//!
//! # The data-key fingerprint cache
//!
//! Database-level set operations (`minus`/`intersect`, the §4.4
//! differential-database path) compare tuples by their **canonical data
//! key**: every attribute materialized, in name order. Each tuple carries
//! a lazily computed fingerprint in two [`OnceLock`]s: a 64-bit hash —
//! the shape's name hash continued with the values in canonical order,
//! which allocates nothing for an all-stored tuple — and the canonical
//! key itself, the flat list `[name1, value1, ...]`, built only when
//! somebody asks for it ([`TupleF::data_key`], [`DataKey::value`], or two
//! fingerprints whose hashes agree). The first call pays, every later one
//! is a lock-free read.
//!
//! **Invalidation contract.** A `TupleF` is immutable: every "mutation"
//! (`with_attr`, `without_attr`, `project`, `select`, `appended`, the
//! builders) constructs a *new* tuple through the one private assembly
//! function — which starts with an **empty** cache and takes the shape
//! the definitions were laid out for. Staleness is therefore impossible by
//! construction: there is no code path that changes a tuple's attributes
//! while keeping its cache, and none that changes its definitions while
//! keeping a shape that no longer describes them (a replaced *stored*
//! attribute keeps the `Arc<Shape>` because the domain did not change; a
//! replaced *computed* one, an added or a dropped attribute derive a new
//! shape). Cloning a tuple copies the cache, which is sound because the
//! clone has identical attributes. The one assumption is that computed
//! attributes are **deterministic** (pure functions of the tuple, as the
//! paper's model demands); a computed attribute reading ambient mutable
//! state would make any caching — and the paper's stored/computed
//! equivalence itself — unsound. Failed computations are never cached: a
//! tuple whose computed attribute errors recomputes (and re-errors) on
//! every call.

use crate::domain::Domain;
use crate::error::{FdmError, Name, Result};
use crate::function::Function;
use crate::shape::Shape;
use crate::value::{Text, Value};
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A tuple's canonical data fingerprint: a view of the hash and the
/// sorted-attribute data key (see [`TupleF::data_key`]) cached on the
/// tuple it borrows. Two fingerprints are equal iff the data keys are
/// equal; the hash makes the (overwhelmingly common) *unequal* case a
/// single integer comparison, and only equal hashes materialize the keys.
#[derive(Clone, Copy, Debug)]
pub struct DataKey<'a> {
    tuple: &'a TupleF,
    hash: u64,
}

impl<'a> DataKey<'a> {
    /// The 64-bit hash of the canonical key.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical key itself: a flat list
    /// `[name1, value1, name2, value2, ...]` sorted by attribute name,
    /// built and cached on first use.
    pub fn value(&self) -> &'a Value {
        self.tuple.data_key_cache.key.get_or_init(|| {
            self.tuple
                .compute_data_key()
                .expect("fingerprint() caches the key of a tuple with computed attributes itself")
        })
    }
}

impl PartialEq for DataKey<'_> {
    fn eq(&self, other: &DataKey<'_>) -> bool {
        self.hash == other.hash
            && (std::ptr::eq(self.tuple, other.tuple) || self.value() == other.value())
    }
}

impl Eq for DataKey<'_> {}

#[derive(Clone, Default)]
struct DataKeyCache {
    hash: OnceLock<u64>,
    key: OnceLock<Value>,
}

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
    /// The domain: shared by every tuple built from the same builder
    /// hint, relation or operator call.
    shape: Arc<Shape>,
    /// One definition per slot of `shape`, in declaration order.
    defs: Box<[AttrDef]>,
    /// Lazily computed canonical fingerprint (see the module docs for the
    /// invalidation contract: fresh and empty at every construction site,
    /// so it can never outlive the definitions it describes). `Clone`
    /// carries a filled cache over, which is sound — the clone's
    /// attributes are identical.
    data_key_cache: DataKeyCache,
}

impl TupleF {
    /// Starts building a tuple function with the given name.
    pub fn builder(name: impl AsRef<str>) -> TupleBuilder {
        TupleBuilder::new(Arc::from(name.as_ref()), None)
    }

    /// The one place a tuple comes into being: an empty cache, and every
    /// shadowed slot overwritten with the definition `get` answers from.
    fn assemble(name: Name, shape: Arc<Shape>, mut defs: Box<[AttrDef]>) -> TupleF {
        assert_eq!(shape.len(), defs.len(), "one definition per shape slot");
        for &(later, first) in shape.shadowed.iter() {
            defs[later] = defs[first].clone();
        }
        debug_assert!(
            (0..defs.len())
                .all(|s| matches!(defs[s], AttrDef::Computed(_)) == shape.is_computed_slot(s)),
            "the shape says which slots compute"
        );
        TupleF {
            name,
            shape,
            defs,
            data_key_cache: DataKeyCache::default(),
        }
    }

    /// Builds a stored-only tuple from `(name, value)` pairs, deriving a
    /// fresh shape. For more than a handful of like tuples prefer
    /// [`Self::from_shape`], which shares one.
    pub fn from_parts(name: impl Into<Name>, parts: Vec<(Name, Value)>) -> TupleF {
        let (names, defs): (Vec<Name>, Vec<AttrDef>) = parts
            .into_iter()
            .map(|(n, v)| (n, AttrDef::Stored(v)))
            .unzip();
        TupleF::assemble(name.into(), Shape::new(names), defs.into())
    }

    /// Builds a stored-only tuple over a shared shape: `values[i]` is the
    /// value of `shape.names()[i]`. The bulk-construction path of loaders,
    /// joins and the codec — one allocation per row, whatever the number
    /// of attributes. The tuple name may be an interned [`Name`] too: a
    /// join names every output row alike and shares one.
    ///
    /// # Panics
    ///
    /// If `values` and `shape` differ in length or `shape` has computed
    /// slots (derive shapes with [`Shape::new`], which has none).
    pub fn from_shape(name: impl Into<Name>, shape: Arc<Shape>, values: Vec<Value>) -> TupleF {
        assert!(!shape.has_computed(), "from_shape: stored attributes only");
        let defs: Vec<AttrDef> = values.into_iter().map(AttrDef::Stored).collect();
        TupleF::assemble(name.into(), shape, defs.into())
    }

    /// The tuple function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// [`Self::name`] as the shared [`Name`] it is held under — for an
    /// operator that names its output rows after its input's without
    /// allocating.
    pub fn shared_name(&self) -> &Name {
        &self.name
    }

    /// The tuple's domain. Tuples that came out of one builder hint,
    /// bulk-built relation or operator call share it by pointer.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// Re-points a solely held `tuple` at `prev`'s shape if the two shapes
    /// are equal — how the bulk builders converge on one shape per run of
    /// like tuples (pointer check first: a hinted or operator-built tuple
    /// shares it already).
    pub(crate) fn unify_shape(tuple: &mut Arc<TupleF>, prev: &TupleF) {
        if !Arc::ptr_eq(&tuple.shape, &prev.shape) && tuple.shape == prev.shape {
            if let Some(sole) = Arc::get_mut(tuple) {
                sole.shape = prev.shape.clone();
            }
        }
    }

    /// Number of attributes (stored + computed).
    pub fn attr_count(&self) -> usize {
        self.defs.len()
    }

    /// Attribute names in declaration order.
    pub fn attr_names(&self) -> impl Iterator<Item = &Name> + '_ {
        self.shape.names.iter()
    }

    /// `true` if the tuple has this attribute.
    pub fn has_attr(&self, attr: &str) -> bool {
        self.shape.position(attr).is_some()
    }

    /// `true` if any attribute is computed — such a tuple's answers may
    /// depend on every other attribute it carries.
    pub fn has_computed_attrs(&self) -> bool {
        self.shape.has_computed()
    }

    /// `true` if the attribute exists and is computed (not stored).
    pub fn is_computed(&self, attr: &str) -> bool {
        self.shape
            .position(attr)
            .is_some_and(|slot| self.shape.is_computed_slot(slot))
    }

    /// The stored value in `slot` (a position in [`Self::shape`]), or
    /// `None` if that attribute is computed — by reference, for callers
    /// that walk a shape themselves (the codec, statistics).
    pub fn stored(&self, slot: usize) -> Option<&Value> {
        match &self.defs[slot] {
            AttrDef::Stored(v) => Some(v),
            AttrDef::Computed(_) => None,
        }
    }

    fn value_at(&self, slot: usize) -> Result<Value> {
        match &self.defs[slot] {
            AttrDef::Stored(v) => Ok(v.clone()),
            AttrDef::Computed(f) => f(self),
        }
    }

    /// The value in `slot` (a position in [`Self::shape`]): borrowed when
    /// stored, computed on demand otherwise — [`Self::get`] for a caller
    /// that resolved the name to its slot once per shape.
    #[inline]
    pub fn at(&self, slot: usize) -> Result<Cow<'_, Value>> {
        match &self.defs[slot] {
            AttrDef::Stored(v) => Ok(Cow::Borrowed(v)),
            AttrDef::Computed(f) => f(self).map(Cow::Owned),
        }
    }

    /// Looks up an attribute value — calling the tuple function.
    ///
    /// Computed attributes are evaluated on demand; callers cannot tell the
    /// difference.
    pub fn get(&self, attr: &str) -> Result<Value> {
        match self.shape.position(attr) {
            Some(slot) => self.value_at(slot),
            None => Err(FdmError::NoSuchAttribute {
                attr: attr.to_string(),
            }),
        }
    }

    /// Like [`Self::get`] but returns `None` instead of an error for a
    /// missing attribute.
    pub fn try_get(&self, attr: &str) -> Option<Value> {
        self.get(attr).ok()
    }

    /// Builds a new tuple with `attr` set to `value` (stored), replacing
    /// any previous definition. This is the FQL update
    /// `customers[3]['age'] = 50` (paper Fig. 10) at the tuple level.
    /// Replacing an existing stored attribute keeps the shape.
    pub fn with_attr(&self, attr: impl AsRef<str>, value: impl Into<Value>) -> TupleF {
        let attr = attr.as_ref();
        let Some(slot) = self.shape.position(attr) else {
            let shape = self.shape.with_names([Name::from(attr)]);
            return self.appended(shape, [value.into()]);
        };
        let mut defs = self.defs.clone();
        defs[slot] = AttrDef::Stored(value.into());
        let shape = if self.shape.is_computed_slot(slot) {
            self.shape.with_stored(slot)
        } else {
            self.shape.clone()
        };
        TupleF::assemble(self.name.clone(), shape, defs)
    }

    /// This tuple followed by more stored attributes, over a shape
    /// derived once with [`Shape::with_names`] from this tuple's shape.
    pub fn appended(&self, shape: Arc<Shape>, values: impl IntoIterator<Item = Value>) -> TupleF {
        let mut defs = Vec::with_capacity(shape.len());
        defs.extend(self.defs.iter().cloned());
        defs.extend(values.into_iter().map(AttrDef::Stored));
        TupleF::assemble(self.name.clone(), shape, defs.into())
    }

    /// The definitions in `slots` of this tuple (computed ones stay
    /// computed), over a shape derived once with [`Shape::project`] from
    /// this tuple's shape.
    pub fn select(&self, shape: Arc<Shape>, slots: &[usize]) -> TupleF {
        let defs = slots.iter().map(|&s| self.defs[s].clone()).collect();
        TupleF::assemble(self.name.clone(), shape, defs)
    }

    /// Builds a new tuple without `attr`.
    pub fn without_attr(&self, attr: &str) -> TupleF {
        let slots: Vec<usize> = (0..self.defs.len())
            .filter(|&s| self.shape.names[s].as_ref() != attr)
            .collect();
        self.select(self.shape.select(&slots), &slots)
    }

    /// Builds a new tuple with only the named attributes, in the given
    /// order (projection).
    pub fn project(&self, attrs: &[&str]) -> Result<TupleF> {
        let (shape, slots) = self.shape.project(attrs)?;
        Ok(self.select(shape, &slots))
    }

    /// Appends every attribute's value to `out` in declaration order,
    /// computed attributes evaluated — [`Self::materialize`] without the
    /// names, which the shape already holds.
    pub fn values_into(&self, out: &mut Vec<Value>) -> Result<()> {
        out.reserve(self.defs.len());
        for slot in 0..self.defs.len() {
            out.push(self.value_at(slot)?);
        }
        Ok(())
    }

    /// A copy with every computed attribute evaluated and stored — over
    /// this tuple's own shape if it computes nothing.
    pub fn frozen(&self) -> Result<TupleF> {
        let mut values = Vec::with_capacity(self.defs.len());
        self.values_into(&mut values)?;
        let shape = match self.shape.has_computed() {
            true => Shape::new(self.shape.names.iter().cloned()),
            false => self.shape.clone(),
        };
        Ok(TupleF::from_shape(self.name.clone(), shape, values))
    }

    /// Evaluates every attribute and returns `(name, value)` pairs in
    /// declaration order. Computed attributes are materialized.
    pub fn materialize(&self) -> Result<Vec<(Name, Value)>> {
        (0..self.defs.len())
            .map(|slot| Ok((self.shape.names[slot].clone(), self.value_at(slot)?)))
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
        if self.defs.len() != other.defs.len() {
            return false;
        }
        match (self.fingerprint(), other.fingerprint()) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        }
    }

    /// [`Self::eq_data`] without a fingerprint where the answer is plain:
    /// a tuple is the same data as itself (even one whose computed
    /// attribute fails), and two tuples over one shape that compute
    /// nothing are the same data exactly when their slots hold equal
    /// values — the first slot that differs ends the comparison. The
    /// no-op test of a delta, where the two sides of a write mostly share
    /// a shape.
    pub fn same_data(&self, other: &TupleF) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        if !Arc::ptr_eq(&self.shape, &other.shape) || self.shape.has_computed() {
            return self.eq_data(other);
        }
        let mut pairs = self.defs.iter().zip(other.defs.iter());
        pairs.all(|pair| matches!(pair, (AttrDef::Stored(a), AttrDef::Stored(b)) if a == b))
    }

    /// A canonical sort key over materialized attributes, used for
    /// deterministic ordering and duplicate elimination in set operations.
    /// Cached: the first call materializes (see
    /// [`Self::compute_data_key`]); later calls clone the cached value.
    pub fn data_key(&self) -> Result<Value> {
        Ok(self.fingerprint()?.value().clone())
    }

    /// The cached canonical fingerprint, computing and caching its hash on
    /// first use — without allocating when every attribute is stored.
    /// Errors (a failing computed attribute) are never cached, so they
    /// surface on every call.
    pub fn fingerprint(&self) -> Result<DataKey<'_>> {
        let cache = &self.data_key_cache;
        let hash = match cache.hash.get() {
            Some(&hash) => hash,
            None => {
                let mut h = self.shape.seed.clone();
                if self.shape.has_computed() {
                    // evaluate once: the hash and the key must describe
                    // the same values, and `DataKey::value` cannot fail
                    let key = self.compute_data_key()?;
                    if let Value::List(flat) = &key {
                        flat.iter().skip(1).step_by(2).for_each(|v| v.hash(&mut h));
                    }
                    let _ = cache.key.set(key);
                } else {
                    for &slot in self.shape.canon.iter() {
                        self.stored(slot).expect("no computed slot").hash(&mut h);
                    }
                }
                // a racing thread may have set it first — identical value,
                // so losing the race is fine
                *cache.hash.get_or_init(|| h.finish())
            }
        };
        Ok(DataKey { tuple: self, hash })
    }

    /// Computes the canonical data key **without** consulting or filling
    /// the cache: every attribute materialized in the shape's canonical
    /// order, flattened into a list. This is the raw computation that
    /// [`Self::data_key`] amortizes; it stays public so benchmarks can
    /// measure the uncached path and tests can cross-check the cache.
    pub fn compute_data_key(&self) -> Result<Value> {
        let mut flat = Vec::with_capacity(2 * self.defs.len());
        for &slot in self.shape.canon.iter() {
            flat.push(Value::Str(Text::from(&self.shape.names[slot])));
            flat.push(self.value_at(slot)?);
        }
        Ok(Value::List(flat.into()))
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
        Domain::enumerated(self.attr_names().map(|n| Value::Str(Text::from(n))))
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
        for (i, (n, def)) in self.attr_names().zip(self.defs.iter()).enumerate() {
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
///
/// A builder started from a bulk builder's
/// [`tuple`](crate::RelationBuilder::tuple) carries the previous tuple's
/// shape as a hint: as long as the attributes arrive under the hinted
/// names, no name is allocated and the finished tuple shares that shape
/// (and the previous tuple's name, if it is named alike).
pub struct TupleBuilder {
    name: Name,
    /// The shape the attributes have matched so far, if any.
    like: Option<Arc<Shape>>,
    /// The names, once there is no hint (or the attributes left it).
    names: Vec<Name>,
    defs: Vec<AttrDef>,
}

impl TupleBuilder {
    fn new(name: Name, like: Option<Arc<Shape>>) -> TupleBuilder {
        TupleBuilder {
            name,
            defs: Vec::with_capacity(like.as_ref().map_or(0, |s| s.len())),
            like,
            names: Vec::new(),
        }
    }

    /// A builder hinted with `prev`'s shape — and sharing its name, if the
    /// two are named alike (a relationship's entries usually are).
    pub(crate) fn after(prev: Option<&TupleF>, name: &str) -> TupleBuilder {
        match prev {
            Some(prev) if *prev.name == *name => {
                TupleBuilder::new(prev.name.clone(), Some(prev.shape.clone()))
            }
            Some(prev) => TupleBuilder::new(Arc::from(name), Some(prev.shape.clone())),
            None => TupleBuilder::new(Arc::from(name), None),
        }
    }

    fn push(mut self, name: &str, intern: impl FnOnce() -> Name, def: AttrDef) -> Self {
        let slot = self.defs.len();
        if let Some(like) = &self.like {
            let computed = matches!(def, AttrDef::Computed(_));
            let hinted = like.names.get(slot).is_some_and(|n| n.as_ref() == name);
            if !hinted || like.is_computed_slot(slot) != computed {
                self.names = like.names[..slot].to_vec();
                self.like = None;
            }
        }
        if self.like.is_none() {
            self.names.push(intern());
        }
        self.defs.push(def);
        self
    }

    /// Adds a stored attribute.
    pub fn attr(self, name: impl AsRef<str>, value: impl Into<Value>) -> Self {
        let name = name.as_ref();
        self.push(name, || Arc::from(name), AttrDef::Stored(value.into()))
    }

    /// Adds a stored attribute under an already-interned name (no name
    /// re-allocation).
    pub fn attr_name(self, name: Name, value: Value) -> Self {
        let shared = name.clone();
        self.push(&name, || shared, AttrDef::Stored(value))
    }

    /// Adds a computed attribute: a closure over the finished tuple.
    pub fn computed(
        self,
        name: impl AsRef<str>,
        f: impl Fn(&TupleF) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        let name = name.as_ref();
        self.push(name, || Arc::from(name), AttrDef::Computed(Arc::new(f)))
    }

    /// Adds a nested function-valued attribute (paper §2.6: `t5('foo') = R`).
    pub fn function(self, name: impl AsRef<str>, f: impl Into<crate::function::FnValue>) -> Self {
        self.attr(name, Value::Fn(f.into()))
    }

    /// Finishes the tuple function.
    pub fn build(self) -> TupleF {
        let shape = match self.like {
            Some(like) if like.len() == self.defs.len() => like,
            like => {
                let names = match &like {
                    Some(like) => like.names[..self.defs.len()].into(),
                    None => self.names.into(),
                };
                let computed = (0..self.defs.len())
                    .filter(|&slot| matches!(self.defs[slot], AttrDef::Computed(_)))
                    .collect();
                Shape::build(names, computed)
            }
        };
        TupleF::assemble(self.name, shape, self.defs.into())
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
        let fa = a.fingerprint().unwrap();
        let fb = b.fingerprint().unwrap();
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
