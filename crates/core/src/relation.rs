//! Relation functions (paper §2.4).
//!
//! A relation function maps a key (primary key, candidate key, or row id)
//! to a tuple function: `R1(1) = t1`. Four bodies realize the paper's
//! spectrum:
//!
//! * [`stored`](RelationF::new) — a persistent map key → tuple (the classic
//!   "relation", except it *is* a function);
//! * **multi** ([`RelationF::index_by`]) — key → *set* of tuples, i.e. a
//!   non-unique secondary index (the paper's `R3(foo) ↦ {TF}`);
//! * **computed** ([`RelationF::computed`]) — a λ over a (possibly
//!   continuous, non-enumerable) domain: data that was never inserted;
//! * **hybrid** ([`RelationF::with_fallback`]) — stored tuples with a
//!   computed fallback (the paper's `R4`).
//!
//! All public mutating operations are persistent: they return a new
//! `RelationF` sharing structure with the old one, which is what makes
//! snapshot transactions (Fig. 11) cheap. Each point write is a clone
//! followed by one of the crate's two owned edits (an upsert and a
//! delete), which [`crate::apply_op`] runs on relations in place.

use crate::constraint::Constraint;
use crate::domain::Domain;
use crate::error::{FdmError, Name, Result};
use crate::function::Function;
use crate::stats::AttrSketches;
use crate::tuple::TupleF;
use crate::value::Value;
use fdm_storage::PMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The body of a computed relation function.
pub type ComputedRel = Arc<dyn Fn(&Value) -> Result<Value> + Send + Sync>;

/// A group of tuples sharing a key (non-unique bodies).
pub type TupleGroup = Arc<[Arc<TupleF>]>;

#[derive(Clone)]
enum Body {
    /// Unique mapping key → tuple.
    Unique(PMap<Value, Arc<TupleF>>),
    /// Non-unique mapping key → tuples (a duplicate-admitting index).
    Multi(PMap<Value, TupleGroup>),
    /// Fully computed: λ over `domain`.
    Computed { domain: Domain, f: ComputedRel },
    /// Stored tuples with a computed fallback over `domain` (paper's R4).
    Hybrid {
        map: PMap<Value, Arc<TupleF>>,
        domain: Domain,
        fallback: ComputedRel,
    },
}

/// A relation function.
///
/// # Examples
///
/// ```
/// use fdm_core::{RelationF, TupleF, Value};
///
/// // R1(bar: int) := t_bar with t1, t3 (paper §2.4)
/// let t1 = TupleF::builder("t1").attr("name", "Alice").attr("foo", 12).build();
/// let t3 = TupleF::builder("t3").attr("name", "Bob").attr("foo", 25).build();
/// let r1 = RelationF::new("R1", &["bar"])
///     .insert(Value::Int(1), t1).unwrap()
///     .insert(Value::Int(3), t3).unwrap();
///
/// assert_eq!(r1.lookup(&Value::Int(1)).unwrap().get("name").unwrap(), Value::str("Alice"));
/// assert!(r1.lookup(&Value::Int(2)).is_none(), "R1 is not defined at 2");
/// ```
#[derive(Clone)]
pub struct RelationF {
    name: Name,
    key_attrs: Arc<[Name]>,
    constraints: Arc<[Constraint]>,
    /// One unique index per `Constraint::Unique`, mapping the constrained
    /// attribute value(s) to the primary key that holds them.
    unique_indexes: Arc<[PMap<Value, Value>]>,
    body: Body,
    /// Lazily computed per-attribute distinct-count sketches
    /// ([`AttrSketches`]), under the same freshness contract as the tuple
    /// fingerprint cache: every construction path starts a fresh empty
    /// cell and every edit empties it, so a filled cache always describes
    /// exactly this value's stored tuples. `Clone` carries a filled cache
    /// over, which is sound — the clone's body is identical.
    sketches: OnceLock<Arc<AttrSketches>>,
}

impl RelationF {
    /// Creates an empty stored (unique) relation function whose inputs are
    /// named by `key_attrs` (e.g. `["cid"]`, or a synthetic `["id"]`).
    pub fn new(name: impl AsRef<str>, key_attrs: &[&str]) -> RelationF {
        RelationF {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Unique(PMap::new()),
            sketches: OnceLock::new(),
        }
    }

    /// Creates a fully computed relation function over `domain`.
    ///
    /// `f` receives a key inside the domain and returns (usually) a
    /// `Value::Fn` holding a tuple function. Point lookups always work;
    /// enumeration works iff `domain.is_enumerable()` (paper §2.4).
    pub fn computed(
        name: impl AsRef<str>,
        key_attrs: &[&str],
        domain: Domain,
        f: impl Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    ) -> RelationF {
        RelationF {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Computed {
                domain,
                f: Arc::new(f),
            },
            sketches: OnceLock::new(),
        }
    }

    /// Converts this stored relation into a hybrid: stored tuples win, and
    /// any other key inside `domain` is answered by `fallback` (the paper's
    /// `R4`: "if a predefined tuple function does not exist, return an
    /// anonymous λ-tuple-function").
    pub fn with_fallback(
        &self,
        domain: Domain,
        fallback: impl Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    ) -> Result<RelationF> {
        let map = self.point_map().cloned().ok_or_else(|| {
            FdmError::Other(format!(
                "relation function '{}' cannot take a fallback (not a unique stored body)",
                self.name
            ))
        })?;
        Ok(RelationF {
            name: self.name.clone(),
            key_attrs: self.key_attrs.clone(),
            constraints: self.constraints.clone(),
            unique_indexes: self.unique_indexes.clone(),
            body: Body::Hybrid {
                map,
                domain,
                fallback: Arc::new(fallback),
            },
            sketches: OnceLock::new(),
        })
    }

    /// Adds an integrity constraint; for `Unique` constraints the unique
    /// index is built (and validated) over the existing tuples.
    pub fn with_constraint(&self, constraint: Constraint) -> Result<RelationF> {
        let mut constraints: Vec<Constraint> = self.constraints.to_vec();
        let mut indexes: Vec<PMap<Value, Value>> = self.unique_indexes.to_vec();
        if let Constraint::Unique(_) = &constraint {
            let mut idx = PMap::new();
            for (key, tuple) in self.iter_stored() {
                if let Some(uk) = constraint.unique_key(&tuple) {
                    if idx.contains_key(&uk) {
                        return Err(FdmError::ConstraintViolation {
                            constraint: constraint.to_string(),
                            detail: format!("existing data has duplicate value {uk}"),
                        });
                    }
                    idx.set(uk, key);
                }
            }
            indexes.push(idx);
        } else {
            // Validate existing data against the attribute domain.
            if let Constraint::AttrDomain { attr, domain } = &constraint {
                for (_, tuple) in self.iter_stored() {
                    if let Some(v) = tuple.try_get(attr) {
                        if !domain.contains(&v) {
                            return Err(FdmError::ConstraintViolation {
                                constraint: constraint.to_string(),
                                detail: format!("existing value {v} outside domain"),
                            });
                        }
                    }
                }
            }
        }
        constraints.push(constraint);
        Ok(RelationF {
            name: self.name.clone(),
            key_attrs: self.key_attrs.clone(),
            constraints: constraints.into(),
            unique_indexes: indexes.into(),
            body: self.body.clone(),
            sketches: OnceLock::new(),
        })
    }

    /// The relation function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation function (cheap; shares the body).
    pub fn renamed(&self, name: impl AsRef<str>) -> RelationF {
        let mut r = self.clone();
        r.name = Arc::from(name.as_ref());
        r
    }

    /// The names of the input (key) attributes.
    pub fn key_attrs(&self) -> &[Name] {
        &self.key_attrs
    }

    /// The declared constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The per-attribute distinct-count sketches of this relation value,
    /// computing them on first use from the stored tuples' cached
    /// fingerprints (an O(n) scan, amortized: every later call on this
    /// value — and on any clone sharing the cache — is O(1)). Mutations
    /// never see a stale cache: each edit empties the cell, and each
    /// construction path starts an empty one. Computed bodies have no
    /// enumerable stored part and sketch empty.
    pub fn attr_sketches(&self) -> &AttrSketches {
        self.sketches
            .get_or_init(|| Arc::new(AttrSketches::from_stored(self.iter_stored())))
    }

    /// The sketches if they have already been computed for this value
    /// (`None` otherwise) — the strictly-O(1) read used by capacity-hint
    /// callers that must never trigger the analyze scan
    /// ([`crate::stats::distinct_hint`]).
    pub fn attr_sketches_cached(&self) -> Option<&AttrSketches> {
        self.sketches.get().map(|s| s.as_ref())
    }

    /// Number of *stored* tuples (0 for fully computed bodies; the
    /// computed part of a hybrid is not counted).
    pub fn len(&self) -> usize {
        match &self.body {
            Body::Unique(m) => m.len(),
            Body::Multi(m) => m.values().map(|g| g.len()).sum(),
            Body::Computed { .. } => 0,
            Body::Hybrid { map, .. } => map.len(),
        }
    }

    /// `true` if no stored tuples exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this relation admits several tuples per key (an index on
    /// a non-unique attribute).
    pub fn is_multi(&self) -> bool {
        matches!(self.body, Body::Multi(_))
    }

    /// `true` if the body is a plain stored unique map — no duplicate
    /// groups, no computed part. Only such bodies expose
    /// [`Self::stored_map`] and qualify for copy-free pass-throughs.
    pub fn is_plain_stored(&self) -> bool {
        matches!(self.body, Body::Unique(_))
    }

    /// The underlying persistent key → tuple map of a plain stored body
    /// (`None` for multi/computed/hybrid bodies). This is what lets
    /// DB-level set operations run as O(n) structural merges instead of
    /// re-enumerating and re-inserting every tuple.
    pub fn stored_map(&self) -> Option<&PMap<Value, Arc<TupleF>>> {
        match &self.body {
            Body::Unique(m) => Some(m),
            _ => None,
        }
    }

    /// [`Self::stored_map`] to edit in place with the owned [`PMap`] edits,
    /// for a plain stored body without constraints (`None` otherwise: a
    /// constrained body keeps unique indexes beside its map). Empties the
    /// sketch cache, which the edits may make stale.
    pub fn stored_map_mut(&mut self) -> Option<&mut PMap<Value, Arc<TupleF>>> {
        match &mut self.body {
            Body::Unique(map) if self.constraints.is_empty() => {
                self.sketches = OnceLock::new();
                Some(map)
            }
            _ => None,
        }
    }

    /// Wraps an already-built persistent map as a stored relation function
    /// (unconstrained, like every operator output). The map's key order
    /// *is* the relation's key order; no per-entry work happens.
    pub fn from_stored_map(
        name: impl AsRef<str>,
        key_attrs: &[&str],
        map: PMap<Value, Arc<TupleF>>,
    ) -> RelationF {
        RelationF {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Unique(map),
            sketches: OnceLock::new(),
        }
    }

    /// An unconstrained stored relation named and keyed like this one,
    /// over `map` — [`Self::from_stored_map`] of this relation's name and
    /// key attributes, sharing them instead of allocating them again: what
    /// an operator builds over the rows it computed from this relation.
    pub fn with_stored_map(&self, map: PMap<Value, Arc<TupleF>>) -> RelationF {
        // an unconstrained relation's (empty) lists are shared as they are
        let unconstrained = self.constraints.is_empty();
        RelationF {
            name: self.name.clone(),
            key_attrs: self.key_attrs.clone(),
            constraints: match unconstrained {
                true => self.constraints.clone(),
                false => Arc::from([]),
            },
            unique_indexes: match unconstrained {
                true => self.unique_indexes.clone(),
                false => Arc::from([]),
            },
            body: Body::Unique(map),
            sketches: OnceLock::new(),
        }
    }

    /// `true` if all tuples of this relation can be enumerated.
    pub fn is_enumerable(&self) -> bool {
        match &self.body {
            Body::Unique(_) | Body::Multi(_) => true,
            Body::Computed { domain, .. } => domain.is_enumerable(),
            // A hybrid enumerates its stored part plus the computed part if
            // the domain is enumerable; the stored part alone is always
            // reachable, so we report enumerable and document the subtlety.
            Body::Hybrid { domain, .. } => domain.is_enumerable(),
        }
    }

    /// Point lookup: the tuple(s) under `key`, or `None` if the function
    /// is not defined there. For multi bodies, an arbitrary group member
    /// would be ambiguous — use [`Self::lookup_all`]; this returns the
    /// first.
    pub fn lookup(&self, key: &Value) -> Option<Arc<TupleF>> {
        match &self.body {
            Body::Unique(m) => m.get(key).cloned(),
            Body::Multi(m) => m.get(key).and_then(|g| g.first().cloned()),
            Body::Computed { domain, f } => {
                if domain.contains(key) {
                    to_tuple(f(key).ok()?)
                } else {
                    None
                }
            }
            Body::Hybrid {
                map,
                domain,
                fallback,
            } => match map.get(key) {
                Some(t) => Some(t.clone()),
                None if domain.contains(key) => to_tuple(fallback(key).ok()?),
                None => None,
            },
        }
    }

    /// Point lookup returning all tuples under `key`.
    pub fn lookup_all(&self, key: &Value) -> Vec<Arc<TupleF>> {
        match &self.body {
            Body::Multi(m) => m.get(key).map(|g| g.to_vec()).unwrap_or_default(),
            _ => self.lookup(key).into_iter().collect(),
        }
    }

    /// `true` if the function is defined at `key`.
    pub fn contains_key(&self, key: &Value) -> bool {
        match &self.body {
            Body::Unique(m) => m.contains_key(key),
            Body::Multi(m) => m.contains_key(key),
            Body::Computed { domain, .. } => domain.contains(key),
            Body::Hybrid { map, domain, .. } => map.contains_key(key) || domain.contains(key),
        }
    }

    /// Iterates the *stored* `(key, tuple)` pairs in key order (multi
    /// bodies flatten their groups). Computed bodies yield nothing — use
    /// [`Self::tuples`] to include enumerable computed parts.
    pub fn iter_stored(&self) -> Box<dyn Iterator<Item = (Value, Arc<TupleF>)> + '_> {
        match &self.body {
            Body::Unique(m) => Box::new(m.iter().map(|(k, t)| (k.clone(), t.clone()))),
            Body::Multi(m) => Box::new(
                m.iter()
                    .flat_map(|(k, g)| g.iter().map(move |t| (k.clone(), t.clone()))),
            ),
            Body::Computed { .. } => Box::new(std::iter::empty()),
            Body::Hybrid { map, .. } => Box::new(map.iter().map(|(k, t)| (k.clone(), t.clone()))),
        }
    }

    /// The *stored* `(key, tuple)` pairs whose keys lie in `[lo, hi]`
    /// (inclusive bounds, either side optional), in ascending key order —
    /// the serving layer's range-scan primitive. Plain stored bodies
    /// answer straight from the tree (O(log n) to the first key, O(1)
    /// per result); multi/hybrid bodies filter their stored iteration.
    /// Computed parts are excluded, like [`Self::iter_stored`].
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<(Value, Arc<TupleF>)> {
        match &self.body {
            Body::Unique(m) => m
                .range(lo, hi)
                .map(|(k, t)| (k.clone(), t.clone()))
                .collect(),
            _ => self
                .iter_stored()
                .filter(|(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k <= h))
                .collect(),
        }
    }

    /// Iterates the *stored* `(key, tuple-group)` pairs in key order:
    /// multi bodies yield each group in O(1) (structural share, no
    /// per-member clone), unique/hybrid bodies yield singleton groups,
    /// computed bodies yield nothing. This is the grouped-consumption fast
    /// path (`fql`'s `Groups::iter`/`aggregate` walk every group exactly
    /// once) — the per-key `lookup_all` alternative pays O(log n) per
    /// group.
    pub fn iter_groups(&self) -> Box<dyn Iterator<Item = (Value, TupleGroup)> + '_> {
        match &self.body {
            Body::Unique(m) => Box::new(
                m.iter()
                    .map(|(k, t)| (k.clone(), TupleGroup::from([t.clone()]))),
            ),
            Body::Multi(m) => Box::new(m.iter().map(|(k, g)| (k.clone(), g.clone()))),
            Body::Computed { .. } => Box::new(std::iter::empty()),
            Body::Hybrid { map, .. } => Box::new(
                map.iter()
                    .map(|(k, t)| (k.clone(), TupleGroup::from([t.clone()]))),
            ),
        }
    }

    /// All `(key, tuple)` pairs, including computed ones when the domain is
    /// enumerable. Fails with [`FdmError::NotEnumerable`] if the relation
    /// has a computed part over a non-enumerable domain.
    pub fn tuples(&self) -> Result<Vec<(Value, Arc<TupleF>)>> {
        match &self.body {
            Body::Unique(_) | Body::Multi(_) => Ok(self.iter_stored().collect()),
            Body::Computed { domain, f } => {
                let keys = domain.enumerate().map_err(|_| FdmError::NotEnumerable {
                    what: format!("relation function '{}'", self.name),
                })?;
                let mut out = Vec::with_capacity(keys.len());
                for k in keys {
                    if let Some(t) = to_tuple(f(&k)?) {
                        out.push((k, t));
                    }
                }
                Ok(out)
            }
            Body::Hybrid {
                map,
                domain,
                fallback,
            } => {
                let keys = domain.enumerate().map_err(|_| FdmError::NotEnumerable {
                    what: format!("relation function '{}' (computed part)", self.name),
                })?;
                let mut out = Vec::new();
                let mut seen = std::collections::BTreeSet::new();
                for (k, t) in map.iter() {
                    out.push((k.clone(), t.clone()));
                    seen.insert(k.clone());
                }
                for k in keys {
                    if !seen.contains(&k) {
                        if let Some(t) = to_tuple(fallback(&k)?) {
                            out.push((k, t));
                        }
                    }
                }
                out.sort_by(|a, b| a.0.cmp(&b.0));
                Ok(out)
            }
        }
    }

    /// The keys at which the function is (storedly) defined.
    pub fn stored_keys(&self) -> Vec<Value> {
        self.stored_key_refs().cloned().collect()
    }

    /// [`Self::stored_keys`] by reference: each distinct stored key once,
    /// ascending, nothing cloned.
    pub fn stored_key_refs(&self) -> Box<dyn Iterator<Item = &Value> + '_> {
        match &self.body {
            Body::Unique(m) => Box::new(m.keys()),
            Body::Multi(m) => Box::new(m.keys()),
            Body::Computed { .. } => Box::new(std::iter::empty()),
            Body::Hybrid { map, .. } => Box::new(map.keys()),
        }
    }

    /// The error a write gets from a body it does not apply to.
    fn unsupported(&self, what: &str) -> FdmError {
        FdmError::Other(format!(
            "{what} unsupported for this body of '{}'",
            self.name
        ))
    }

    /// The key → tuple map of a unique or hybrid body: the map a point
    /// write edits (`None` for multi and computed bodies).
    fn point_map(&self) -> Option<&PMap<Value, Arc<TupleF>>> {
        match &self.body {
            Body::Unique(map) | Body::Hybrid { map, .. } => Some(map),
            _ => None,
        }
    }

    /// Checks `tuple` for storage under `key` in place of `old`, the tuple
    /// `key` holds now: the outcome, including which constraint fails
    /// first, is that of deleting `old` and then inserting `tuple`.
    fn check_constraints(&self, key: &Value, old: Option<&TupleF>, tuple: &TupleF) -> Result<()> {
        let mut uniq_i = 0usize;
        for c in self.constraints.iter() {
            match c {
                Constraint::Unique(_) => {
                    let idx = &self.unique_indexes[uniq_i];
                    uniq_i += 1;
                    let Some(uk) = c.unique_key(tuple) else {
                        continue;
                    };
                    // a tuple that keeps its own unique value collides with
                    // nothing: the index already says `uk -> key`
                    if old.and_then(|o| c.unique_key(o)).as_ref() == Some(&uk) {
                        continue;
                    }
                    if let Some(existing) = idx.get(&uk).filter(|k| *k != key) {
                        return Err(FdmError::ConstraintViolation {
                            constraint: c.to_string(),
                            detail: format!("value {uk} already present under key {existing}"),
                        });
                    }
                }
                Constraint::AttrDomain { attr, domain } => {
                    if let Some(v) = tuple.try_get(attr) {
                        if !domain.contains(&v) {
                            return Err(FdmError::ConstraintViolation {
                                constraint: c.to_string(),
                                detail: format!("value {v} outside domain"),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Moves the unique indexes from `old` to `new` under `key`: the
    /// unique values of `old` leave them and those of `new` enter.
    fn reindex(&mut self, key: &Value, old: Option<&TupleF>, new: Option<&TupleF>) {
        if self.unique_indexes.is_empty() {
            return;
        }
        let uniques = self
            .constraints
            .iter()
            .filter(|c| matches!(c, Constraint::Unique(_)));
        for (c, idx) in uniques.zip(Arc::make_mut(&mut self.unique_indexes)) {
            let (was, now) = (
                old.and_then(|t| c.unique_key(t)),
                new.and_then(|t| c.unique_key(t)),
            );
            if was != now {
                was.map(|uk| idx.unset(&uk));
                now.map(|uk| idx.set(uk, key.clone()));
            }
        }
    }

    /// `rel[key] = tuple` in this relation, handing back the tuple `key`
    /// held before: the owned upsert under [`Self::upsert_arc`],
    /// [`Self::insert_arc`] and [`crate::apply_op`]. It checks the
    /// constraints before it writes anything, so on an error the relation
    /// is unchanged; what it shares with other values is copied, what it
    /// holds alone is edited in place.
    pub(crate) fn set(&mut self, key: Value, tuple: Arc<TupleF>) -> Result<Option<Arc<TupleF>>> {
        let map = self.point_map().ok_or_else(|| self.unsupported("upsert"))?;
        if !self.constraints.is_empty() {
            let old = map.get(&key).cloned();
            self.check_constraints(&key, old.as_deref(), &tuple)?;
            self.reindex(&key, old.as_deref(), Some(&tuple));
        }
        self.sketches = OnceLock::new();
        match &mut self.body {
            Body::Unique(map) | Body::Hybrid { map, .. } => Ok(map.set(key, tuple)),
            _ => unreachable!("a point map was found above"),
        }
    }

    /// `del rel[key]` in this relation, handing back the tuple it removed
    /// (`None` for a multi body, whose key held a group): the owned delete
    /// under [`Self::delete`] and [`crate::apply_op`]. Fails, changing
    /// nothing, where the function is not defined.
    pub(crate) fn unset(&mut self, key: &Value) -> Result<Option<Arc<TupleF>>> {
        let old = match &mut self.body {
            Body::Unique(map) | Body::Hybrid { map, .. } => map.unset(key).map(Some),
            Body::Multi(map) => map.unset(key).map(|_| None),
            Body::Computed { .. } => return Err(self.unsupported("delete")),
        };
        let old = old.ok_or_else(|| FdmError::Undefined {
            function: self.name.to_string(),
            input: key.to_string(),
        })?;
        self.reindex(key, old.as_deref(), None);
        self.sketches = OnceLock::new();
        Ok(old)
    }

    /// Inserts a tuple under `key`. Fails on duplicate keys (the function
    /// definition *is* the primary-key constraint) and on constraint
    /// violations. Returns the new relation; the receiver is unchanged.
    pub fn insert(&self, key: Value, tuple: TupleF) -> Result<RelationF> {
        self.insert_arc(key, Arc::new(tuple))
    }

    /// [`Self::insert`] taking an already-shared tuple.
    pub fn insert_arc(&self, key: Value, tuple: Arc<TupleF>) -> Result<RelationF> {
        let mut rel = self.clone();
        match &mut rel.body {
            Body::Multi(map) => {
                let mut group = map.get(&key).map_or_else(Vec::new, |g| g.to_vec());
                group.push(tuple);
                map.set(key, group.into());
                rel.sketches = OnceLock::new();
                return Ok(rel);
            }
            Body::Computed { .. } => return Err(self.unsupported("insert")),
            Body::Unique(map) | Body::Hybrid { map, .. } if map.contains_key(&key) => {
                return Err(FdmError::DuplicateKey {
                    relation: self.name.to_string(),
                    key: key.to_string(),
                })
            }
            _ => {}
        }
        rel.set(key, tuple)?;
        Ok(rel)
    }

    /// Inserts a tuple under an automatically assigned integer key (paper
    /// Fig. 10: `customers.add({...})`). Returns the new relation and the
    /// assigned key.
    pub fn insert_auto(&self, tuple: TupleF) -> Result<(RelationF, Value)> {
        let key = self.auto_key()?;
        Ok((self.insert(key.clone(), tuple)?, key))
    }

    /// The key [`Self::insert_auto`] assigns: one past the last stored
    /// key, which must be an integer, or 1 in an empty relation. Fails
    /// with [`FdmError::ConstraintViolation`] when the last key is
    /// `i64::MAX`, which no integer key follows.
    pub fn auto_key(&self) -> Result<Value> {
        let map = self
            .point_map()
            .ok_or_else(|| self.unsupported("auto-id insert"))?;
        match map.last() {
            None => Ok(Value::Int(1)),
            Some((Value::Int(i), _)) => {
                i.checked_add(1)
                    .map(Value::Int)
                    .ok_or_else(|| FdmError::ConstraintViolation {
                        constraint: format!("auto id of '{}'", self.name),
                        detail: format!("no integer key follows the last key {i}"),
                    })
            }
            Some((other, _)) => Err(FdmError::Other(format!(
                "auto-id insert needs integer keys, relation '{}' has key {other}",
                self.name
            ))),
        }
    }

    /// Replaces the tuple under `key` (paper Fig. 10:
    /// `customers[3] = {...}`); inserts if absent (upsert, mirroring the
    /// Python costume's assignment semantics).
    pub fn upsert(&self, key: Value, tuple: TupleF) -> Result<RelationF> {
        self.upsert_arc(key, Arc::new(tuple))
    }

    /// [`Self::upsert`] taking an already-shared tuple: the owned upsert
    /// on a clone, so one path copy. The tuple it replaces is all the
    /// unique indexes need to stay in step — the result (contents, index
    /// state, first error) is that of `delete` followed by `insert`,
    /// pinned by the `upsert_matches_delete_then_insert` proptest below.
    pub fn upsert_arc(&self, key: Value, tuple: Arc<TupleF>) -> Result<RelationF> {
        let mut rel = self.clone();
        rel.set(key, tuple)?;
        Ok(rel)
    }

    /// Updates one attribute of the tuple under `key` (paper Fig. 10:
    /// `customers[3]['age'] = 50`).
    pub fn update_attr(
        &self,
        key: &Value,
        attr: &str,
        value: impl Into<Value>,
    ) -> Result<RelationF> {
        let tuple = self.lookup(key).ok_or_else(|| FdmError::Undefined {
            function: self.name.to_string(),
            input: key.to_string(),
        })?;
        self.upsert(key.clone(), tuple.with_attr(attr, value))
    }

    /// Applies `f` to the tuple under `key`, storing the result.
    pub fn update_tuple(
        &self,
        key: &Value,
        f: impl FnOnce(&TupleF) -> Result<TupleF>,
    ) -> Result<RelationF> {
        let tuple = self.lookup(key).ok_or_else(|| FdmError::Undefined {
            function: self.name.to_string(),
            input: key.to_string(),
        })?;
        self.upsert(key.clone(), f(&tuple)?)
    }

    /// Deletes the tuple under `key` (paper Fig. 10: `del customers[3]`).
    /// Fails if the function is not defined there.
    pub fn delete(&self, key: &Value) -> Result<RelationF> {
        let mut rel = self.clone();
        rel.unset(key)?;
        Ok(rel)
    }

    /// Builds an **alternative relation function** keyed by `attr` — the
    /// paper's `R2(foo) := t_foo` / `R3(foo) ↦ {TF}` (§2.4): what a
    /// relational DBMS calls a secondary index is, in FDM, simply another
    /// relation function over the same tuples.
    ///
    /// The result is a multi body (duplicates allowed). If the attribute is
    /// actually unique, every group has one member. The index is built in
    /// one sort + one O(n) bulk construction (not n persistent inserts);
    /// within a group, tuples keep the base relation's key order (the sort
    /// is stable).
    pub fn index_by(&self, attr: &str) -> Result<RelationF> {
        let mut keyed: Vec<(Value, Arc<TupleF>)> = Vec::new();
        for (_, tuple) in self.tuples()? {
            keyed.push((tuple.get(attr)?, tuple));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(RelationF {
            name: Arc::from(format!("{}_by_{attr}", self.name)),
            key_attrs: Arc::from([Name::from(attr)]),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Multi(bulk_group_sorted(keyed)),
            sketches: OnceLock::new(),
        })
    }

    /// Creates a multi-body relation directly from groups (used by FQL's
    /// `group` operator). Already-sorted group keys (e.g. from a
    /// `BTreeMap`) take the O(n) bulk path; unsorted input is sorted first
    /// and later duplicates win, matching the old insert-loop semantics.
    pub fn from_groups(
        name: impl AsRef<str>,
        key_attrs: &[&str],
        groups: impl IntoIterator<Item = (Value, Vec<Arc<TupleF>>)>,
    ) -> RelationF {
        let mut entries: Vec<(Value, TupleGroup)> =
            groups.into_iter().map(|(k, g)| (k, g.into())).collect();
        let sorted = entries.windows(2).all(|w| w[0].0 < w[1].0);
        if !sorted {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // stable sort → the last entry of a duplicate run wins
            entries.reverse();
            entries.dedup_by(|a, b| a.0 == b.0);
            entries.reverse();
        }
        RelationF {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Multi(PMap::from_sorted_vec(entries)),
            sketches: OnceLock::new(),
        }
    }

    /// Creates a stored (unique) relation function in **O(n)** from entries
    /// sorted by strictly ascending key — the bulk-construction fast path
    /// every FQL operator builds its output through (via
    /// [`RelationBuilder`]). The ordering contract is checked with a
    /// `debug_assert` only.
    pub fn from_sorted(
        name: impl AsRef<str>,
        key_attrs: &[&str],
        entries: Vec<(Value, Arc<TupleF>)>,
    ) -> RelationF {
        RelationF {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Unique(PMap::from_sorted_vec(entries)),
            sketches: OnceLock::new(),
        }
    }

    /// Starts a [`RelationBuilder`] with this relation's name and key
    /// attributes — the usual way operators derive an output relation from
    /// their input.
    pub fn builder_like(&self) -> RelationBuilder {
        RelationBuilder {
            name: self.name.clone(),
            key_attrs: self.key_attrs.clone(),
            entries: Vec::new(),
            sorted: true,
        }
    }
}

/// Groups `(key, tuple)` pairs sorted by key into a multi body in O(n).
fn bulk_group_sorted(keyed: Vec<(Value, Arc<TupleF>)>) -> PMap<Value, TupleGroup> {
    let mut groups: Vec<(Value, TupleGroup)> = Vec::new();
    let mut keyed = keyed.into_iter().peekable();
    while let Some((key, first)) = keyed.next() {
        let mut g = vec![first];
        while keyed.peek().is_some_and(|(k, _)| *k == key) {
            g.push(keyed.next().expect("peeked").1);
        }
        groups.push((key, g.into()));
    }
    PMap::from_sorted_vec(groups)
}

/// Accumulates `(key, tuple)` pairs and bulk-builds a stored relation
/// function.
///
/// This replaces the `out = out.insert(...)?` loop idiom: each persistent
/// insert costs O(log n) time *and* O(log n) `Arc` allocations (the whole
/// root-to-leaf path is rebuilt), so building an n-tuple result that way is
/// O(n log n) with heavy allocator traffic. The builder appends to a plain
/// `Vec`, detects already-sorted input (the common case — operators iterate
/// their input in key order), sorts once otherwise, and hands the run to
/// [`PMap::from_sorted_vec`] for an O(n) balanced build.
///
/// Duplicate keys fail [`RelationBuilder::build`] with
/// [`FdmError::DuplicateKey`], exactly like the insert loop they replace.
///
/// # Examples
///
/// ```
/// use fdm_core::{RelationBuilder, TupleF, Value};
///
/// let mut b = RelationBuilder::new("evens", &["n"]);
/// for n in [0i64, 2, 4] {
///     b.push(Value::Int(n), TupleF::builder("t").attr("n", n).build());
/// }
/// let rel = b.build().unwrap();
/// assert_eq!(rel.len(), 3);
/// assert!(rel.lookup(&Value::Int(2)).is_some());
/// ```
#[derive(Clone)]
pub struct RelationBuilder {
    name: Name,
    key_attrs: Arc<[Name]>,
    entries: Vec<(Value, Arc<TupleF>)>,
    /// `true` while pushed keys have been strictly ascending.
    sorted: bool,
}

impl RelationBuilder {
    /// Starts an empty builder for a relation named `name` with the given
    /// key attributes.
    pub fn new(name: impl AsRef<str>, key_attrs: &[&str]) -> RelationBuilder {
        RelationBuilder {
            name: Arc::from(name.as_ref()),
            key_attrs: key_attrs.iter().map(|k| Name::from(*k)).collect(),
            entries: Vec::new(),
            sorted: true,
        }
    }

    /// Pre-allocates room for `n` entries.
    pub fn with_capacity(mut self, n: usize) -> RelationBuilder {
        self.entries.reserve(n);
        self
    }

    /// Starts a tuple hinted with the previously pushed tuple's shape:
    /// a loader whose tuples repeat one attribute list allocates no names
    /// after the first (see [`TupleBuilder`](crate::TupleBuilder)).
    pub fn tuple(&self, name: impl AsRef<str>) -> crate::TupleBuilder {
        let prev = self.entries.last().map(|(_, prev)| &**prev);
        crate::TupleBuilder::after(prev, name.as_ref())
    }

    /// Appends a tuple under `key`. A tuple whose shape equals the
    /// previous one's is re-pointed at it, so tuples built independently
    /// converge on one shape per run of like tuples.
    pub fn push(&mut self, key: Value, tuple: TupleF) {
        self.push_arc(key, Arc::new(tuple));
    }

    /// [`Self::push`] taking an already-shared tuple (re-pointed only
    /// while this is its sole handle).
    pub fn push_arc(&mut self, key: Value, mut tuple: Arc<TupleF>) {
        if let Some((last, prev)) = self.entries.last() {
            if self.sorted && *last >= key {
                self.sorted = false;
            }
            TupleF::unify_shape(&mut tuple, prev);
        }
        self.entries.push((key, tuple));
    }

    /// Number of entries accumulated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bulk-builds the relation: sorts if the input arrived out of order
    /// (stable, so equal keys keep push order before the duplicate check),
    /// rejects duplicate keys, and assembles the tree in O(n).
    pub fn build(self) -> Result<RelationF> {
        let RelationBuilder {
            name,
            key_attrs,
            mut entries,
            sorted,
        } = self;
        if !sorted {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(FdmError::DuplicateKey {
                    relation: name.to_string(),
                    key: w[0].0.to_string(),
                });
            }
        }
        Ok(RelationF {
            name,
            key_attrs,
            constraints: Arc::from([]),
            unique_indexes: Arc::from([]),
            body: Body::Unique(PMap::from_sorted_vec(entries)),
            sketches: OnceLock::new(),
        })
    }

    /// Bulk-builds the relation **with** integrity constraints — the
    /// constraint-aware companion of [`Self::build`], for loaders that
    /// know their schema up front (`to_fdm`-style bulk ingest).
    ///
    /// Where `build()` + [`RelationF::with_constraint`] per constraint
    /// would re-scan the relation once per constraint *after* paying the
    /// tree build, this validates every `AttrDomain` constraint and
    /// collects every `Unique` constraint's index pairs in **one pass**
    /// over the sorted entries, then bulk-builds each unique index with
    /// the same O(n) `from_sorted_vec` path the body itself uses.
    /// Violations report with the same error type and message format as
    /// the incremental path ([`FdmError::ConstraintViolation`]); when the
    /// input violates *several* constraints at once, **which** violation
    /// surfaces first can differ (the single pass checks per tuple in key
    /// order and defers duplicate-unique-value detection to after the
    /// scan, where the incremental path checks per constraint in
    /// declaration order).
    pub fn build_with_constraints(self, constraints: &[Constraint]) -> Result<RelationF> {
        let rel = self.build()?;
        let Body::Unique(map) = &rel.body else {
            unreachable!("RelationBuilder always builds a unique body")
        };
        // one pass over the entries, all constraints checked per tuple
        let uniques: Vec<&Constraint> = constraints
            .iter()
            .filter(|c| matches!(c, Constraint::Unique(_)))
            .collect();
        let mut index_pairs: Vec<Vec<(Value, Value)>> = uniques
            .iter()
            .map(|_| Vec::with_capacity(map.len()))
            .collect();
        for (key, tuple) in map.iter() {
            let mut uniq_i = 0usize;
            for c in constraints {
                match c {
                    Constraint::Unique(_) => {
                        if let Some(uk) = c.unique_key(tuple) {
                            index_pairs[uniq_i].push((uk, key.clone()));
                        }
                        uniq_i += 1;
                    }
                    Constraint::AttrDomain { attr, domain } => {
                        if let Some(v) = tuple.try_get(attr) {
                            if !domain.contains(&v) {
                                return Err(FdmError::ConstraintViolation {
                                    constraint: c.to_string(),
                                    detail: format!("existing value {v} outside domain"),
                                });
                            }
                        }
                    }
                }
            }
        }
        let mut indexes: Vec<PMap<Value, Value>> = Vec::with_capacity(uniques.len());
        for (c, mut pairs) in uniques.into_iter().zip(index_pairs) {
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(FdmError::ConstraintViolation {
                    constraint: c.to_string(),
                    detail: format!("existing data has duplicate value {}", w[0].0),
                });
            }
            indexes.push(PMap::from_sorted_vec(pairs));
        }
        Ok(RelationF {
            constraints: constraints.to_vec().into(),
            unique_indexes: indexes.into(),
            ..rel
        })
    }
}

/// Interprets a computed result as a tuple function if possible.
fn to_tuple(v: Value) -> Option<Arc<TupleF>> {
    match v {
        Value::Fn(f) => f.as_tuple().ok().cloned(),
        _ => None,
    }
}

impl Function for RelationF {
    fn fn_name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        1
    }

    fn domain(&self) -> Domain {
        match &self.body {
            Body::Unique(m) => Domain::enumerated(m.keys().cloned()),
            Body::Multi(m) => Domain::enumerated(m.keys().cloned()),
            Body::Computed { domain, .. } => domain.clone(),
            Body::Hybrid { map, domain, .. } => {
                // The hybrid is defined on the union of its stored keys and
                // the fallback domain; the stored keys are usually inside
                // the declared domain already, so report the declared one
                // refined by "or stored".
                let keys: Vec<Value> = map.keys().cloned().collect();
                let d = domain.clone();
                let keyset = fdm_storage::PSet::from_iter(keys);
                Domain::Predicate {
                    base: Box::new(Domain::Typed(crate::types::ValueType::Int)),
                    pred: Arc::new(move |v| keyset.contains(v) || d.contains(v)),
                    description: format!("stored keys ∪ {domain}"),
                }
            }
        }
    }

    fn apply(&self, args: &[Value]) -> Result<Value> {
        if args.len() != 1 {
            return Err(FdmError::ArityMismatch {
                function: self.name.to_string(),
                expected: 1,
                found: args.len(),
            });
        }
        let key = &args[0];
        match &self.body {
            Body::Multi(m) => match m.get(key) {
                Some(group) => {
                    Ok(Value::list(group.iter().map(|t| {
                        Value::Fn(crate::function::FnValue::Tuple(t.clone()))
                    })))
                }
                None => Err(FdmError::Undefined {
                    function: self.name.to_string(),
                    input: key.to_string(),
                }),
            },
            Body::Computed { domain, f } => {
                if !domain.contains(key) {
                    return Err(FdmError::Undefined {
                        function: self.name.to_string(),
                        input: key.to_string(),
                    });
                }
                f(key)
            }
            Body::Hybrid {
                map,
                domain,
                fallback,
            } => match map.get(key) {
                Some(t) => Ok(Value::Fn(crate::function::FnValue::Tuple(t.clone()))),
                None if domain.contains(key) => fallback(key),
                None => Err(FdmError::Undefined {
                    function: self.name.to_string(),
                    input: key.to_string(),
                }),
            },
            Body::Unique(m) => match m.get(key) {
                Some(t) => Ok(Value::Fn(crate::function::FnValue::Tuple(t.clone()))),
                None => Err(FdmError::Undefined {
                    function: self.name.to_string(),
                    input: key.to_string(),
                }),
            },
        }
    }
}

impl fmt::Debug for RelationF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.body {
            Body::Unique(_) => "stored",
            Body::Multi(_) => "multi",
            Body::Computed { .. } => "computed",
            Body::Hybrid { .. } => "hybrid",
        };
        write!(
            f,
            "RelationF({} [{kind}], key=({}), {} stored tuple(s))",
            self.name,
            self.key_attrs
                .iter()
                .map(|n| n.as_ref())
                .collect::<Vec<_>>()
                .join(", "),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::apply1;
    use crate::types::ValueType;
    use proptest::prelude::*;

    fn alice() -> TupleF {
        TupleF::builder("t1")
            .attr("name", "Alice")
            .attr("foo", 12)
            .build()
    }

    fn bob() -> TupleF {
        TupleF::builder("t3")
            .attr("name", "Bob")
            .attr("foo", 25)
            .build()
    }

    fn thomas() -> TupleF {
        TupleF::builder("t4")
            .attr("name", "Thomas")
            .attr("foo", 25)
            .build()
    }

    fn r1() -> RelationF {
        RelationF::new("R1", &["bar"])
            .insert(Value::Int(1), alice())
            .unwrap()
            .insert(Value::Int(3), bob())
            .unwrap()
    }

    #[test]
    fn paper_r1_semantics() {
        let r = r1();
        // R1(1) returns t1; R1(3) returns t3; calls elsewhere are undefined.
        assert_eq!(
            r.lookup(&Value::Int(1)).unwrap().get("name").unwrap(),
            Value::str("Alice")
        );
        assert!(r.lookup(&Value::Int(2)).is_none());
        let err = apply1(&r, &Value::Int(2)).unwrap_err();
        assert!(matches!(err, FdmError::Undefined { .. }));
    }

    #[test]
    fn primary_key_unique_by_function_definition() {
        let r = r1();
        let err = r.insert(Value::Int(1), thomas()).unwrap_err();
        assert!(matches!(err, FdmError::DuplicateKey { .. }));
    }

    #[test]
    fn persistence_on_all_mutations() {
        let r = r1();
        let r2 = r.upsert(Value::Int(1), thomas()).unwrap();
        let r3 = r.delete(&Value::Int(3)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r2.len(), 2);
        assert_eq!(r3.len(), 1);
        assert_eq!(
            r.lookup(&Value::Int(1)).unwrap().get("name").unwrap(),
            Value::str("Alice"),
            "original snapshot unaffected"
        );
        assert_eq!(
            r2.lookup(&Value::Int(1)).unwrap().get("name").unwrap(),
            Value::str("Thomas")
        );
    }

    #[test]
    fn auto_id_insert() {
        let (r, k) = r1().insert_auto(thomas()).unwrap();
        assert_eq!(k, Value::Int(4), "max key 3 + 1");
        assert_eq!(r.len(), 3);
        let (r0, k0) = RelationF::new("empty", &["id"])
            .insert_auto(alice())
            .unwrap();
        assert_eq!(k0, Value::Int(1));
        assert_eq!(r0.len(), 1);
    }

    #[test]
    fn update_attr_fig10() {
        // customers[3]['age'] = 50
        let r = r1().update_attr(&Value::Int(3), "foo", 26).unwrap();
        assert_eq!(
            r.lookup(&Value::Int(3)).unwrap().get("foo").unwrap(),
            Value::Int(26)
        );
        let err = r.update_attr(&Value::Int(99), "foo", 1).unwrap_err();
        assert!(matches!(err, FdmError::Undefined { .. }));
    }

    #[test]
    fn delete_missing_is_undefined() {
        let err = r1().delete(&Value::Int(42)).unwrap_err();
        assert!(matches!(err, FdmError::Undefined { .. }));
    }

    #[test]
    fn index_by_builds_alternative_relation_function() {
        // R2(foo) organized by attribute foo (paper §2.4); with t4 added,
        // foo=25 has duplicates — R3(foo) ↦ {TF}.
        let r = r1().insert(Value::Int(4), thomas()).unwrap();
        let by_foo = r.index_by("foo").unwrap();
        assert!(by_foo.is_multi());
        assert_eq!(by_foo.lookup_all(&Value::Int(25)).len(), 2);
        assert_eq!(by_foo.lookup_all(&Value::Int(12)).len(), 1);
        assert!(by_foo.lookup_all(&Value::Int(99)).is_empty());
        // Through the Function interface a multi lookup returns a list of
        // tuple functions.
        let v = apply1(&by_foo, &Value::Int(25)).unwrap();
        assert_eq!(v.as_list("index result").unwrap().len(), 2);
    }

    #[test]
    fn computed_relation_r4() {
        // R4(bar): stored for bar ∈ {1,3}, λ elsewhere (paper §2.4):
        // the λ returns {'name': rndStr(seed=bar), 'foo': 42·bar}.
        let r4 = r1()
            .with_fallback(Domain::Typed(ValueType::Int), |key| {
                let bar = key.as_int("R4 fallback")?;
                let t = TupleF::builder("λ")
                    .attr("name", format!("rnd_{bar}"))
                    .attr("foo", 42 * bar)
                    .build();
                Ok(Value::Fn(crate::function::FnValue::from(t)))
            })
            .unwrap();
        // R4(10)('foo') = 420
        assert_eq!(
            r4.lookup(&Value::Int(10)).unwrap().get("foo").unwrap(),
            Value::Int(420)
        );
        // R4(3)('foo') = 25 — stored tuple wins
        assert_eq!(
            r4.lookup(&Value::Int(3)).unwrap().get("foo").unwrap(),
            Value::Int(25)
        );
        // the domain is all ints — not enumerable
        assert!(!r4.is_enumerable());
        assert!(matches!(r4.tuples(), Err(FdmError::NotEnumerable { .. })));
    }

    #[test]
    fn computed_relation_with_enumerable_domain_enumerates() {
        let r = RelationF::computed("squares", &["n"], Domain::IntRange(1, 5), |key| {
            let n = key.as_int("squares")?;
            Ok(Value::Fn(crate::function::FnValue::from(
                TupleF::builder("sq")
                    .attr("n", n)
                    .attr("square", n * n)
                    .build(),
            )))
        });
        let all = r.tuples().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[4].1.get("square").unwrap(), Value::Int(25));
        assert!(r.lookup(&Value::Int(7)).is_none(), "outside domain");
        assert!(
            r.insert(Value::Int(9), alice()).is_err(),
            "computed is read-only"
        );
    }

    #[test]
    fn unique_constraint_enforced_via_index() {
        let r = r1().with_constraint(Constraint::unique(&["name"])).unwrap();
        let dup = TupleF::builder("dup")
            .attr("name", "Alice")
            .attr("foo", 1)
            .build();
        let err = r.insert(Value::Int(9), dup).unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
        // deleting frees the value again
        let r = r.delete(&Value::Int(1)).unwrap();
        let ok = TupleF::builder("ok")
            .attr("name", "Alice")
            .attr("foo", 1)
            .build();
        assert!(r.insert(Value::Int(9), ok).is_ok());
    }

    #[test]
    fn unique_constraint_rejects_existing_duplicates() {
        let r = r1().insert(Value::Int(4), thomas()).unwrap();
        // foo=25 occurs twice (bob, thomas)
        let err = r.with_constraint(Constraint::unique(&["foo"])).unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
    }

    #[test]
    fn attr_domain_constraint() {
        let r = RelationF::new("people", &["id"])
            .with_constraint(Constraint::attr_domain("age", Domain::IntRange(0, 150)))
            .unwrap();
        let ok = TupleF::builder("p").attr("age", 30).build();
        let r = r.insert(Value::Int(1), ok).unwrap();
        let bad = TupleF::builder("p").attr("age", 200).build();
        let err = r.insert(Value::Int(2), bad).unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
    }

    #[test]
    fn upsert_on_unique_updates_indexes() {
        let r = r1().with_constraint(Constraint::unique(&["name"])).unwrap();
        // rename Alice -> Zoe, then a new Alice must be allowed
        let zoe = TupleF::builder("z")
            .attr("name", "Zoe")
            .attr("foo", 1)
            .build();
        let r = r.upsert(Value::Int(1), zoe).unwrap();
        let alice2 = TupleF::builder("a")
            .attr("name", "Alice")
            .attr("foo", 2)
            .build();
        assert!(r.insert(Value::Int(7), alice2).is_ok());
        // a replace that keeps its own unique value is no collision...
        let zoe2 = TupleF::builder("z")
            .attr("name", "Zoe")
            .attr("foo", 9)
            .build();
        let r = r.upsert(Value::Int(1), zoe2).unwrap();
        assert_eq!(r.len(), 2);
        // ...one that takes another key's is, and leaves `r` as it was
        let err = r.upsert(Value::Int(1), bob()).unwrap_err();
        assert!(
            matches!(&err, FdmError::ConstraintViolation { detail, .. }
                if detail.contains("already present under key 3")),
            "{err}"
        );
        let kept = r.lookup(&Value::Int(1)).unwrap();
        assert_eq!(kept.get("name").unwrap(), Value::str("Zoe"));
    }

    /// What `upsert` must equal: the previous two-step implementation.
    fn delete_then_insert(r: &RelationF, key: Value, tuple: TupleF) -> Result<RelationF> {
        r.delete(&key)
            .unwrap_or_else(|_| r.clone())
            .insert(key, tuple)
    }

    /// Stored contents and unique-index state, comparably.
    type Observed = (Vec<(Value, Value)>, Vec<Vec<(Value, Value)>>);
    fn observe(r: &RelationF) -> Observed {
        let rows = r
            .iter_stored()
            .map(|(k, t)| {
                let email = t.try_get("email").unwrap_or(Value::Unit);
                (k, Value::list([email, t.get("age").unwrap()]))
            })
            .collect();
        let indexes = r
            .unique_indexes
            .iter()
            .map(|idx| idx.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .collect();
        (rows, indexes)
    }

    /// `(key, email or none, age)`; small spaces, so replaces, unique
    /// collisions, kept unique values and out-of-domain ages all occur.
    fn write_strategy() -> impl Strategy<Value = (i64, Option<i64>, i64)> {
        (0i64..8, -1i64..6, -5i64..30).prop_map(|(k, e, a)| (k, (e >= 0).then_some(e), a))
    }

    proptest! {
        /// The oracle for the one-path-copy `upsert`: on `Unique` and
        /// `Hybrid` bodies, with and without constraints, every upsert in
        /// a random history gives what `delete` (if present) then
        /// `insert` gives — contents, unique-index state, and on failure
        /// the same first error with the receiver unchanged.
        #[test]
        fn upsert_matches_delete_then_insert(
            hybrid in any::<bool>(),
            constrained in any::<bool>(),
            writes in prop::collection::vec(write_strategy(), 1..48),
            deletes in prop::collection::vec(0i64..8, 0..8),
        ) {
            let mut r = RelationF::new("people", &["id"]);
            if constrained {
                r = r
                    .with_constraint(Constraint::unique(&["email"])).unwrap()
                    .with_constraint(Constraint::attr_domain("age", Domain::IntRange(0, 20))).unwrap()
                    .with_constraint(Constraint::unique(&["email", "age"])).unwrap();
            }
            if hybrid {
                r = r.with_fallback(Domain::Typed(ValueType::Int), |_| Ok(Value::Unit)).unwrap();
            }
            let mut deletes = deletes.into_iter();
            for (i, (key, email, age)) in writes.into_iter().enumerate() {
                let mut t = TupleF::builder("p").attr("age", age);
                if let Some(e) = email {
                    t = t.attr("email", e);
                }
                let t = t.build();
                let before = observe(&r);
                let got = r.upsert(Value::Int(key), t.clone());
                let want = delete_then_insert(&r, Value::Int(key), t);
                prop_assert_eq!(observe(&r), before, "the receiver is persistent");
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(observe(&got), observe(&want));
                        r = got;
                    }
                    (Err(got), Err(want)) => prop_assert_eq!(got, want),
                    (got, want) => prop_assert!(
                        false,
                        "upsert {:?} vs delete+insert {:?}",
                        got.map(|r| observe(&r)),
                        want.map(|r| observe(&r))
                    ),
                }
                // interleave deletes so upserts meet absent keys again
                if i % 5 == 4 {
                    if let Some(k) = deletes.next() {
                        r = r.delete(&Value::Int(k)).unwrap_or(r);
                    }
                }
            }
        }
    }

    /// A replace is one path copy: at most one fresh node per level plus
    /// rebalancing slack of one — `delete` + `insert` made two.
    #[test]
    fn upsert_replace_is_one_path_copy() {
        let n = 64 * 1024i64;
        let entries = (0..n)
            .map(|i| {
                (
                    Value::Int(i),
                    Arc::new(TupleF::builder("t").attr("v", i).build()),
                )
            })
            .collect();
        let r = RelationF::from_sorted("big", &["id"], entries);
        let height = r.stored_map().unwrap().tree_height();
        for key in [0, 1, n / 3, n / 2, n - 1] {
            let t = TupleF::builder("t").attr("v", -1).build();
            let r2 = r.upsert(Value::Int(key), t).unwrap();
            let fresh = r2
                .stored_map()
                .unwrap()
                .fresh_nodes(r.stored_map().unwrap());
            assert!(
                (1..=height + 1).contains(&fresh),
                "key {key}: {fresh} fresh nodes for height {height}"
            );
            assert_eq!(r2.len(), n as usize);
        }
    }

    #[test]
    fn from_sorted_equals_insert_loop() {
        let entries: Vec<(Value, Arc<TupleF>)> = (0..100)
            .map(|i| {
                (
                    Value::Int(i),
                    Arc::new(TupleF::builder("t").attr("x", i * 2).build()),
                )
            })
            .collect();
        let bulk = RelationF::from_sorted("nums", &["n"], entries.clone());
        let mut reference = RelationF::new("nums", &["n"]);
        for (k, t) in entries {
            reference = reference.insert_arc(k, t).unwrap();
        }
        assert_eq!(bulk.len(), reference.len());
        for (k, t) in bulk.iter_stored() {
            assert!(t.eq_data(&reference.lookup(&k).unwrap()));
        }
        // bulk-built relations are first-class: point ops still work
        let bulk2 = bulk.delete(&Value::Int(50)).unwrap();
        assert_eq!(bulk2.len(), 99);
        assert!(bulk
            .insert(Value::Int(100), TupleF::builder("t").attr("x", 0).build())
            .is_ok());
    }

    #[test]
    fn build_with_constraints_validates_and_indexes_in_one_pass() {
        let mut b = RelationBuilder::new("people", &["id"]);
        b.push(Value::Int(1), alice());
        b.push(Value::Int(3), bob());
        let rel = b
            .build_with_constraints(&[
                Constraint::unique(&["name"]),
                Constraint::attr_domain("foo", Domain::IntRange(0, 100)),
            ])
            .unwrap();
        assert_eq!(rel.constraints().len(), 2);
        // the bulk-built unique index enforces exactly like with_constraint
        let dup = TupleF::builder("dup")
            .attr("name", "Alice")
            .attr("foo", 1)
            .build();
        let err = rel.insert(Value::Int(9), dup).unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
        // and deleting releases the indexed value
        let rel2 = rel.delete(&Value::Int(1)).unwrap();
        let ok = TupleF::builder("ok")
            .attr("name", "Alice")
            .attr("foo", 1)
            .build();
        assert!(rel2.insert(Value::Int(9), ok).is_ok());

        // equivalent to the incremental path
        let incremental = RelationF::new("people", &["id"])
            .insert(Value::Int(1), alice())
            .unwrap()
            .insert(Value::Int(3), bob())
            .unwrap()
            .with_constraint(Constraint::unique(&["name"]))
            .unwrap();
        let bad = TupleF::builder("b").attr("name", "Bob").build();
        assert_eq!(
            rel.insert(Value::Int(8), bad.clone())
                .unwrap_err()
                .to_string(),
            incremental
                .insert(Value::Int(8), bad)
                .unwrap_err()
                .to_string()
        );
    }

    #[test]
    fn build_with_constraints_rejects_violations() {
        // duplicate unique value in the loaded data
        let mut b = RelationBuilder::new("people", &["id"]);
        b.push(Value::Int(1), bob());
        b.push(Value::Int(2), thomas()); // same foo=25
        let err = b
            .build_with_constraints(&[Constraint::unique(&["foo"])])
            .unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
        // domain violation in the loaded data
        let mut b = RelationBuilder::new("people", &["id"]);
        b.push(Value::Int(1), alice());
        let err = b
            .build_with_constraints(&[Constraint::attr_domain("foo", Domain::IntRange(100, 200))])
            .unwrap_err();
        assert!(matches!(err, FdmError::ConstraintViolation { .. }));
        // duplicate primary keys still fail exactly like build()
        let mut b = RelationBuilder::new("people", &["id"]);
        b.push(Value::Int(1), alice());
        b.push(Value::Int(1), bob());
        let err = b.build_with_constraints(&[]).unwrap_err();
        assert!(matches!(err, FdmError::DuplicateKey { .. }));
    }

    #[test]
    fn from_groups_roundtrip() {
        let g = RelationF::from_groups(
            "by_age",
            &["age"],
            [
                (Value::Int(30), vec![Arc::new(alice())]),
                (Value::Int(40), vec![Arc::new(bob()), Arc::new(thomas())]),
            ],
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.lookup_all(&Value::Int(40)).len(), 2);
    }

    #[test]
    fn renamed_shares_data() {
        let r = r1().renamed("customers");
        assert_eq!(r.name(), "customers");
        assert_eq!(r.len(), 2);
    }
}
