//! Relationship functions (paper §3, Definition 3).
//!
//! A relationship among k functions is a function over their combined
//! inputs: `order(cid, pid) ↦ {('date': ...), ...}` (Fig. 1). If the
//! codomain is `bool` we call it a relationship *predicate*.
//!
//! Foreign keys need no separate mechanism: each parameter of a
//! relationship function carries a [`SharedDomain`], and using *the same*
//! shared domain as the participant function is the constraint (paper §3:
//! "we enforce these constraints as a side effect by simply making
//! functions share the same domains").
//!
//! Participants are not restricted to relation functions: Fig. 3 relates a
//! *database* function to a relation function (`is_accessed_by(rel_name,
//! uid)`), which classical ER modeling cannot express.

use crate::domain::{Domain, SharedDomain};
use crate::error::{FdmError, Name, Result};
use crate::function::Function;
use crate::stats::RelationshipStats;
use crate::tuple::TupleF;
use crate::value::Value;
use fdm_storage::PMap;
use std::fmt;
use std::sync::Arc;

/// One parameter of a relationship function.
#[derive(Clone)]
pub struct Participant {
    /// Name of the participating function (e.g. `"customers"`), used by
    /// FQL's schema-driven join.
    pub function: Name,
    /// The key parameter's name (e.g. `"cid"`).
    pub key: Name,
    /// The shared domain — identity with the participant's own key domain
    /// is the foreign-key link.
    pub domain: SharedDomain,
}

impl Participant {
    /// Creates a participant description.
    pub fn new(function: impl AsRef<str>, key: impl AsRef<str>, domain: SharedDomain) -> Self {
        Participant {
            function: Arc::from(function.as_ref()),
            key: Arc::from(key.as_ref()),
            domain,
        }
    }
}

/// A k-ary relationship function over shared domains.
///
/// # Examples
///
/// ```
/// use fdm_core::{Domain, Participant, RelationshipF, SharedDomain, TupleF, Value, ValueType};
///
/// let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
/// let pid = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
/// let order = RelationshipF::new("order", vec![
///     Participant::new("customers", "cid", cid),
///     Participant::new("products", "pid", pid),
/// ]);
/// let order = order.insert(
///     &[Value::Int(1), Value::Int(7)],
///     TupleF::builder("o").attr("date", "2026-01-01").build(),
/// ).unwrap();
/// assert!(order.relates(&[Value::Int(1), Value::Int(7)]));
/// assert!(!order.relates(&[Value::Int(1), Value::Int(8)]));
/// ```
#[derive(Clone)]
pub struct RelationshipF {
    name: Name,
    participants: Arc<[Participant]>,
    /// Stored entries: composite key (Value::List of the k inputs) → the
    /// relationship's own attributes (possibly an empty tuple for pure
    /// predicates).
    map: PMap<Value, Arc<TupleF>>,
    /// Cardinality/fan-out statistics, rebuilt alongside `map` by every
    /// construction and mutation path (freshness by construction — see
    /// [`crate::stats`]).
    stats: RelationshipStats,
}

impl RelationshipF {
    /// Creates an empty relationship function among the given participants.
    pub fn new(name: impl AsRef<str>, participants: Vec<Participant>) -> RelationshipF {
        let stats = RelationshipStats::empty(participants.len());
        RelationshipF {
            name: Arc::from(name.as_ref()),
            participants: participants.into(),
            map: PMap::new(),
            stats,
        }
    }

    /// Creates a relationship function in **O(n log n)** from entries whose
    /// argument lists are sorted in strictly ascending lexicographic order
    /// — the bulk-construction companion of
    /// [`RelationF::from_sorted`](crate::RelationF::from_sorted).
    /// Domain membership and arity are
    /// validated per entry exactly like [`Self::insert`]; the ordering
    /// contract is checked with a `debug_assert` only (the sort-detecting
    /// [`RelationshipBuilder`] is the usual front door). The per-position
    /// statistics are counted in the same pass.
    pub fn from_sorted(
        name: impl AsRef<str>,
        participants: Vec<Participant>,
        entries: Vec<(Vec<Value>, Arc<TupleF>)>,
    ) -> Result<RelationshipF> {
        let proto = RelationshipF::new(name, participants);
        let mut keyed: Vec<(Value, Arc<TupleF>)> = Vec::with_capacity(entries.len());
        for (args, attrs) in &entries {
            keyed.push((proto.composite_key(args)?, attrs.clone()));
        }
        debug_assert!(
            keyed.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted: argument lists must be strictly ascending"
        );
        let stats = RelationshipStats::from_entries(
            proto.participants.len(),
            entries.iter().map(|(a, _)| a.as_slice()),
        );
        Ok(RelationshipF {
            map: PMap::from_sorted_vec(keyed),
            stats,
            ..proto
        })
    }

    /// The relationship's cardinality/fan-out statistics (entry count,
    /// distinct keys per participant position) — planner input, kept
    /// current by construction.
    pub fn stats(&self) -> &RelationshipStats {
        &self.stats
    }

    /// The relationship function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The participants, in parameter order.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Number of stored relationship entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Arity (number of participating functions).
    pub fn arity_k(&self) -> usize {
        self.participants.len()
    }

    fn composite_key(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.participants.len() {
            return Err(FdmError::ArityMismatch {
                function: self.name.to_string(),
                expected: self.participants.len(),
                found: args.len(),
            });
        }
        for (p, v) in self.participants.iter().zip(args) {
            if !p.domain.contains(v) {
                return Err(FdmError::ConstraintViolation {
                    constraint: format!(
                        "{}.{} ∈ shared domain '{}'",
                        self.name,
                        p.key,
                        p.domain.name()
                    ),
                    detail: format!("value {v} outside domain"),
                });
            }
        }
        Ok(Value::list(args.iter().cloned()))
    }

    /// Inserts a relationship entry with its own attributes. The key
    /// values must lie in the participants' shared domains.
    pub fn insert(&self, args: &[Value], attrs: TupleF) -> Result<RelationshipF> {
        let key = self.composite_key(args)?;
        if self.map.contains_key(&key) {
            return Err(FdmError::DuplicateKey {
                relation: self.name.to_string(),
                key: key.to_string(),
            });
        }
        Ok(RelationshipF {
            name: self.name.clone(),
            participants: self.participants.clone(),
            map: self.map.insert(key, Arc::new(attrs)).0,
            stats: self.stats.with_inserted(args),
        })
    }

    /// Inserts a pure-predicate entry (no attributes of its own).
    pub fn insert_link(&self, args: &[Value]) -> Result<RelationshipF> {
        self.insert(args, TupleF::builder(format!("{}_link", self.name)).build())
    }

    /// Removes a relationship entry.
    pub fn remove(&self, args: &[Value]) -> Result<RelationshipF> {
        let key = self.composite_key(args)?;
        let (map, old) = self.map.remove(&key);
        if old.is_none() {
            return Err(FdmError::Undefined {
                function: self.name.to_string(),
                input: key.to_string(),
            });
        }
        Ok(RelationshipF {
            name: self.name.clone(),
            participants: self.participants.clone(),
            map,
            stats: self.stats.with_removed(args),
        })
    }

    /// The relationship **predicate** (paper Def. 3 with `Y == bool`):
    /// does a relationship exist among these inputs?
    pub fn relates(&self, args: &[Value]) -> bool {
        match self.composite_key(args) {
            Ok(key) => self.map.contains_key(&key),
            Err(_) => false,
        }
    }

    /// The relationship's own attributes for the given inputs.
    pub fn attrs(&self, args: &[Value]) -> Option<Arc<TupleF>> {
        let key = self.composite_key(args).ok()?;
        self.map.get(&key).cloned()
    }

    /// The argument list a stored composite key stands for.
    pub(crate) fn key_args(key: &Value) -> &[Value] {
        match key {
            Value::List(items) => items,
            other => std::slice::from_ref(other),
        }
    }

    /// Iterates all `(arg-list, attrs)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<Value>, Arc<TupleF>)> + '_ {
        self.map
            .iter()
            .map(|(k, t)| (Self::key_args(k).to_vec(), t.clone()))
    }

    /// Non-materializing variant of [`Self::iter`]: yields each entry's
    /// argument slice and attribute tuple **by reference**, with no
    /// per-entry allocation or clone. This is the bulk-operator fast path
    /// (FQL's join walks every entry of a relationship exactly once).
    pub fn iter_entries(&self) -> impl Iterator<Item = (&[Value], &Arc<TupleF>)> + '_ {
        self.map.iter().map(|(k, t)| (Self::key_args(k), t))
    }

    /// Finds the parameter position of a participant by its key name.
    pub fn position_of(&self, key_name: &str) -> Option<usize> {
        self.participants
            .iter()
            .position(|p| p.key.as_ref() == key_name)
    }

    /// Converts the relationship into a plain relation function whose
    /// tuples carry the key attributes inline (useful to hand to operators
    /// that expect relation functions).
    pub fn to_relation(&self) -> crate::relation::RelationF {
        let key_names: Vec<&str> = self.participants.iter().map(|p| p.key.as_ref()).collect();
        let mut rel = crate::relation::RelationF::new(self.name.as_ref(), &key_names);
        for (args, attrs) in self.iter() {
            let mut t = TupleF::builder(format!("{}_t", self.name));
            for (p, v) in self.participants.iter().zip(&args) {
                t = t.attr(p.key.as_ref(), v.clone());
            }
            let mut tuple = t.build();
            // splice in the relationship's own attributes
            for (n, v) in attrs.materialize().unwrap_or_default() {
                tuple = tuple.with_attr(n.as_ref(), v);
            }
            rel = rel
                .insert(Value::list(args.clone()), tuple)
                .expect("keys unique by construction");
        }
        rel
    }
}

/// Accumulates relationship entries and bulk-builds a [`RelationshipF`] —
/// the relationship-side companion of
/// [`RelationBuilder`](crate::RelationBuilder), closing the bulk-load
/// story: loaders (`workload::to_fdm`-style ingest) push every entry, the
/// builder validates domains/arity on push, detects already-sorted input,
/// sorts once otherwise, and assembles the persistent map in O(n) with the
/// statistics counted in the same pass — instead of n persistent inserts
/// each paying O(log n) tree and stats updates.
///
/// Duplicate composite keys fail [`RelationshipBuilder::build`] with
/// exactly the [`FdmError::DuplicateKey`] the insert loop would raise.
///
/// # Examples
///
/// ```
/// use fdm_core::{Domain, Participant, RelationshipBuilder, SharedDomain, TupleF, Value, ValueType};
///
/// let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
/// let pid = SharedDomain::new("pid", Domain::Typed(ValueType::Int));
/// let mut b = RelationshipBuilder::new("order", vec![
///     Participant::new("customers", "cid", cid),
///     Participant::new("products", "pid", pid),
/// ]);
/// b.push(&[Value::Int(1), Value::Int(7)], TupleF::builder("o").attr("q", 2).build()).unwrap();
/// b.push(&[Value::Int(1), Value::Int(9)], TupleF::builder("o").attr("q", 1).build()).unwrap();
/// let order = b.build().unwrap();
/// assert_eq!(order.len(), 2);
/// assert!(order.relates(&[Value::Int(1), Value::Int(9)]));
/// ```
pub struct RelationshipBuilder {
    proto: RelationshipF,
    entries: Vec<(Value, Arc<TupleF>)>,
    /// `true` while pushed composite keys have been strictly ascending.
    sorted: bool,
    /// The shared empty attribute tuple [`Self::push_link`] entries reuse
    /// (every link tuple is identical, so one allocation serves them all).
    link_tuple: Option<Arc<TupleF>>,
}

impl RelationshipBuilder {
    /// Starts an empty builder for a relationship named `name` among the
    /// given participants.
    pub fn new(name: impl AsRef<str>, participants: Vec<Participant>) -> RelationshipBuilder {
        RelationshipBuilder {
            proto: RelationshipF::new(name, participants),
            entries: Vec::new(),
            sorted: true,
            link_tuple: None,
        }
    }

    /// Pre-allocates room for `n` entries.
    pub fn with_capacity(mut self, n: usize) -> RelationshipBuilder {
        self.entries.reserve(n);
        self
    }

    /// Appends an entry with its own attributes. Arity and shared-domain
    /// membership are validated now, with the same errors as
    /// [`RelationshipF::insert`]; duplicate detection is deferred to
    /// [`Self::build`].
    pub fn push(&mut self, args: &[Value], attrs: TupleF) -> Result<()> {
        self.push_arc(args, Arc::new(attrs))
    }

    /// Starts an attribute tuple hinted with the previously pushed one's
    /// shape (see [`RelationBuilder::tuple`](crate::RelationBuilder::tuple)).
    pub fn tuple(&self, name: impl AsRef<str>) -> crate::TupleBuilder {
        let prev = self.entries.last().map(|(_, prev)| &**prev);
        crate::TupleBuilder::after(prev, name.as_ref())
    }

    /// [`Self::push`] taking an already-shared attribute tuple. Like
    /// [`RelationBuilder::push_arc`](crate::RelationBuilder::push_arc), a
    /// solely held tuple whose shape equals the previous one's is
    /// re-pointed at it.
    pub fn push_arc(&mut self, args: &[Value], mut attrs: Arc<TupleF>) -> Result<()> {
        let key = self.proto.composite_key(args)?;
        if let Some((last, prev)) = self.entries.last() {
            if self.sorted && *last >= key {
                self.sorted = false;
            }
            TupleF::unify_shape(&mut attrs, prev);
        }
        self.entries.push((key, attrs));
        Ok(())
    }

    /// Appends a pure-predicate entry (no attributes of its own). All
    /// link entries share one empty tuple.
    pub fn push_link(&mut self, args: &[Value]) -> Result<()> {
        let tuple = self
            .link_tuple
            .get_or_insert_with(|| {
                Arc::new(TupleF::builder(format!("{}_link", self.proto.name)).build())
            })
            .clone();
        self.push_arc(args, tuple)
    }

    /// Number of entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bulk-builds the relationship: sorts if the input arrived out of
    /// order, rejects duplicate composite keys, assembles the tree in O(n),
    /// and counts the statistics in one pass.
    pub fn build(self) -> Result<RelationshipF> {
        let RelationshipBuilder {
            proto,
            mut entries,
            sorted,
            ..
        } = self;
        if !sorted {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(FdmError::DuplicateKey {
                    relation: proto.name.to_string(),
                    key: w[0].0.to_string(),
                });
            }
        }
        let stats = RelationshipStats::from_entries(
            proto.participants.len(),
            entries.iter().map(|(k, _)| RelationshipF::key_args(k)),
        );
        Ok(RelationshipF {
            map: PMap::from_sorted_vec(entries),
            stats,
            ..proto
        })
    }
}

impl Function for RelationshipF {
    fn fn_name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        self.participants.len()
    }

    fn domain(&self) -> Domain {
        Domain::Product(
            self.participants
                .iter()
                .map(|p| p.domain.domain().clone())
                .collect(),
        )
    }

    fn apply(&self, args: &[Value]) -> Result<Value> {
        let key = self.composite_key(args)?;
        match self.map.get(&key) {
            Some(t) => Ok(Value::Fn(crate::function::FnValue::Tuple(t.clone()))),
            None => Err(FdmError::Undefined {
                function: self.name.to_string(),
                input: key.to_string(),
            }),
        }
    }
}

impl fmt::Debug for RelationshipF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RelationshipF({}(", self.name)?;
        for (i, p) in self.participants.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p.key)?;
        }
        write!(f, "), {} entries)", self.map.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueType;

    fn shared(name: &str) -> SharedDomain {
        SharedDomain::new(name, Domain::Typed(ValueType::Int))
    }

    fn order() -> RelationshipF {
        RelationshipF::new(
            "order",
            vec![
                Participant::new("customers", "cid", shared("cid")),
                Participant::new("products", "pid", shared("pid")),
            ],
        )
    }

    #[test]
    fn fig1_order_relationship() {
        let o = order()
            .insert(
                &[Value::Int(1), Value::Int(7)],
                TupleF::builder("o").attr("date", "2026-01-01").build(),
            )
            .unwrap();
        assert!(o.relates(&[Value::Int(1), Value::Int(7)]));
        assert!(!o.relates(&[Value::Int(2), Value::Int(7)]));
        assert_eq!(
            o.attrs(&[Value::Int(1), Value::Int(7)])
                .unwrap()
                .get("date")
                .unwrap(),
            Value::str("2026-01-01")
        );
    }

    #[test]
    fn shared_domain_rejects_out_of_domain_keys() {
        let cid = SharedDomain::new("cid", Domain::enumerated([Value::Int(1), Value::Int(2)]));
        let pid = shared("pid");
        let o = RelationshipF::new(
            "order",
            vec![
                Participant::new("customers", "cid", cid),
                Participant::new("products", "pid", pid),
            ],
        );
        // cid=9 is not in the shared domain — the FK constraint, enforced
        // as a side effect of domain sharing.
        let err = o.insert_link(&[Value::Int(9), Value::Int(7)]).unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
        assert!(o.insert_link(&[Value::Int(2), Value::Int(7)]).is_ok());
    }

    #[test]
    fn arity_is_checked() {
        let o = order();
        let err = o.insert_link(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, FdmError::ArityMismatch { .. }));
        assert!(!o.relates(&[Value::Int(1)]));
    }

    #[test]
    fn duplicate_relationship_entry_rejected() {
        let o = order()
            .insert_link(&[Value::Int(1), Value::Int(7)])
            .unwrap();
        let err = o.insert_link(&[Value::Int(1), Value::Int(7)]).unwrap_err();
        assert!(matches!(err, FdmError::DuplicateKey { .. }));
    }

    #[test]
    fn remove_and_persistence() {
        let o = order()
            .insert_link(&[Value::Int(1), Value::Int(7)])
            .unwrap();
        let o2 = o.remove(&[Value::Int(1), Value::Int(7)]).unwrap();
        assert!(
            o.relates(&[Value::Int(1), Value::Int(7)]),
            "snapshot intact"
        );
        assert!(!o2.relates(&[Value::Int(1), Value::Int(7)]));
        assert!(o2.remove(&[Value::Int(1), Value::Int(7)]).is_err());
    }

    #[test]
    fn stats_keys_at_are_the_distinct_keys_in_order() {
        let o = order()
            .insert_link(&[Value::Int(2), Value::Int(7)])
            .unwrap()
            .insert_link(&[Value::Int(1), Value::Int(8)])
            .unwrap()
            .insert_link(&[Value::Int(1), Value::Int(7)])
            .unwrap();
        let keys =
            |o: &RelationshipF, pos| -> Vec<Value> { o.stats().keys_at(pos).cloned().collect() };
        assert_eq!(keys(&o, 0), [Value::Int(1), Value::Int(2)]);
        assert_eq!(keys(&o, 1), [Value::Int(7), Value::Int(8)]);
        assert!(keys(&o, 2).is_empty(), "no such position");
        // a removal drops a key only with its last entry
        let o = o.remove(&[Value::Int(1), Value::Int(8)]).unwrap();
        assert_eq!(keys(&o, 0), [Value::Int(1), Value::Int(2)]);
        assert_eq!(keys(&o, 1), [Value::Int(7)]);
        assert_eq!(o.position_of("pid"), Some(1));
        assert_eq!(o.position_of("nope"), None);
    }

    #[test]
    fn to_relation_inlines_keys_and_attrs() {
        let o = order()
            .insert(
                &[Value::Int(1), Value::Int(7)],
                TupleF::builder("o").attr("date", "2026-05-01").build(),
            )
            .unwrap();
        let rel = o.to_relation();
        assert_eq!(rel.len(), 1);
        let (_, t) = rel.tuples().unwrap().pop().unwrap();
        assert_eq!(t.get("cid").unwrap(), Value::Int(1));
        assert_eq!(t.get("pid").unwrap(), Value::Int(7));
        assert_eq!(t.get("date").unwrap(), Value::str("2026-05-01"));
    }

    #[test]
    fn from_sorted_equals_insert_loop() {
        let entries: Vec<(Vec<Value>, Arc<TupleF>)> = (0..40)
            .map(|i| {
                (
                    vec![Value::Int(i / 4), Value::Int(i % 4)],
                    Arc::new(TupleF::builder("o").attr("n", i).build()),
                )
            })
            .collect();
        let participants = order().participants().to_vec();
        let bulk =
            RelationshipF::from_sorted("order", participants.clone(), entries.clone()).unwrap();
        let mut reference = RelationshipF::new("order", participants);
        for (args, attrs) in &entries {
            reference = reference.insert(args, (**attrs).clone()).unwrap();
        }
        assert_eq!(bulk.len(), reference.len());
        for ((a_args, a_t), (b_args, b_t)) in bulk.iter().zip(reference.iter()) {
            assert_eq!(a_args, b_args);
            assert!(a_t.eq_data(&b_t));
        }
        // statistics match the incremental path too
        assert_eq!(bulk.stats().entries(), reference.stats().entries());
        for pos in 0..2 {
            assert_eq!(bulk.stats().distinct(pos), reference.stats().distinct(pos));
        }
        // bulk-built relationships are first-class: point ops still work
        let bulk2 = bulk.remove(&[Value::Int(0), Value::Int(0)]).unwrap();
        assert_eq!(bulk2.len(), 39);
    }

    #[test]
    fn builder_sorts_validates_and_rejects_duplicates() {
        // unsorted pushes: the builder sorts once at build
        let mut b = RelationshipBuilder::new("order", order().participants().to_vec());
        b.push_link(&[Value::Int(2), Value::Int(7)]).unwrap();
        b.push_link(&[Value::Int(1), Value::Int(9)]).unwrap();
        b.push_link(&[Value::Int(1), Value::Int(7)]).unwrap();
        assert_eq!(b.len(), 3);
        let o = b.build().unwrap();
        assert_eq!(o.len(), 3);
        assert!(o.relates(&[Value::Int(1), Value::Int(9)]));
        assert_eq!(o.stats().distinct(0), 2);
        assert_eq!(o.stats().distinct(1), 2);

        // duplicate composite key: same error as the insert loop
        let mut b = RelationshipBuilder::new("order", order().participants().to_vec());
        b.push_link(&[Value::Int(2), Value::Int(7)]).unwrap();
        b.push_link(&[Value::Int(1), Value::Int(7)]).unwrap();
        b.push_link(&[Value::Int(2), Value::Int(7)]).unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, FdmError::DuplicateKey { .. }));

        // arity and domain failures surface at push, like insert
        let mut b = RelationshipBuilder::new("order", order().participants().to_vec());
        assert!(matches!(
            b.push_link(&[Value::Int(1)]).unwrap_err(),
            FdmError::ArityMismatch { .. }
        ));
        assert!(matches!(
            b.push_link(&[Value::str("x"), Value::Int(7)]).unwrap_err(),
            FdmError::ConstraintViolation { .. }
        ));
    }

    #[test]
    fn stats_track_every_mutation_path() {
        let o = order()
            .insert_link(&[Value::Int(1), Value::Int(7)])
            .unwrap()
            .insert_link(&[Value::Int(1), Value::Int(8)])
            .unwrap()
            .insert_link(&[Value::Int(2), Value::Int(7)])
            .unwrap();
        assert_eq!(o.stats().entries(), 3);
        assert_eq!(o.stats().distinct(0), 2, "cids 1, 2");
        assert_eq!(o.stats().distinct(1), 2, "pids 7, 8");
        assert!((o.stats().avg_fanout(0) - 1.5).abs() < 1e-12);
        let o2 = o.remove(&[Value::Int(2), Value::Int(7)]).unwrap();
        assert_eq!(o2.stats().entries(), 2);
        assert_eq!(o2.stats().distinct(0), 1);
        // persistence: the snapshot's stats are untouched
        assert_eq!(o.stats().entries(), 3);
    }

    #[test]
    fn function_interface_k_ary() {
        let o = order()
            .insert_link(&[Value::Int(1), Value::Int(7)])
            .unwrap();
        assert_eq!(o.arity(), 2);
        let v = o.apply(&[Value::Int(1), Value::Int(7)]).unwrap();
        assert!(matches!(v, Value::Fn(_)));
        assert!(o.apply(&[Value::Int(5), Value::Int(5)]).is_err());
        assert!(matches!(o.domain(), Domain::Product(ds) if ds.len() == 2));
    }
}
