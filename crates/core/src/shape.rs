//! Tuple shapes: the **domain** of a tuple function, stored once.
//!
//! In the paper a tuple is a function from attribute names to values, and
//! the tuples of a relation (mostly) share that domain. A [`Shape`] is the
//! domain — the attribute names in declaration order, which of them are
//! computed, the canonical name-sorted permutation and a hash of the
//! sorted names — and a [`TupleF`](crate::TupleF) is an `Arc<Shape>` plus
//! one definition per slot. Everything that used to be per-tuple name work
//! (sorting names for the fingerprint and the codec, cloning a `Name` per
//! attribute per output row) is done here once per shape.
//!
//! Shapes are shared where sharing is natural and nowhere else: a
//! replaced attribute keeps its tuple's shape, the bulk builders re-point
//! a pushed tuple at its predecessor's equal shape, and operators derive
//! output shapes through a per-call [`ShapeMemo`]. There is no global
//! intern table — two equal shapes built independently are simply two
//! allocations, and everything that compares shapes falls back from
//! pointer identity to name equality.

use crate::error::{FdmError, Name, Result};
use crate::fxhash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The domain of a tuple function. Immutable; share it with `Arc`.
///
/// # Examples
///
/// ```
/// use fdm_core::{Name, Shape, TupleF, Value};
///
/// let shape = Shape::new(["name", "age"].map(Name::from));
/// let alice = TupleF::from_shape("c1", shape.clone(), vec!["Alice".into(), 43.into()]);
/// let bob = TupleF::from_shape("c2", shape, vec!["Bob".into(), 30.into()]);
/// assert!(std::sync::Arc::ptr_eq(alice.shape(), bob.shape()));
/// assert_eq!(bob.get("age").unwrap(), Value::Int(30));
/// ```
pub struct Shape {
    /// Attribute names in declaration order (small: a linear scan wins
    /// over hashing for the typical < 32 attributes).
    pub(crate) names: Box<[Name]>,
    /// Slots ordered by name — the canonical order of the fingerprint and
    /// the codec. Stable, so a repeated name keeps declaration order.
    pub(crate) canon: Box<[usize]>,
    /// The computed slots, ascending. Empty for nearly every shape.
    pub(crate) computed: Box<[usize]>,
    /// `(later slot, earlier slot)` for every repeated name. `get` only
    /// ever reaches the first definition of a name, so tuple construction
    /// overwrites the later ones with it and every slot answers as `get`
    /// does. Empty for nearly every shape.
    pub(crate) shadowed: Box<[(usize, usize)]>,
    /// Hasher state after absorbing the sorted names; a fingerprint
    /// continues it with the values in canonical order.
    pub(crate) seed: FxHasher,
}

impl Shape {
    /// A shape of stored attributes, in the given declaration order.
    pub fn new(names: impl IntoIterator<Item = Name>) -> Arc<Shape> {
        Shape::build(names.into_iter().collect(), Vec::new())
    }

    pub(crate) fn build(names: Box<[Name]>, mut computed: Vec<usize>) -> Arc<Shape> {
        let mut canon: Box<[usize]> = (0..names.len()).collect();
        canon.sort_by(|&a, &b| names[a].cmp(&names[b]));
        let shadowed: Box<[(usize, usize)]> = canon
            .windows(2)
            .filter(|w| names[w[0]] == names[w[1]])
            .map(|w| (w[1], w[0]))
            .collect();
        if !shadowed.is_empty() {
            // a shadowed slot is whatever the definition it repeats is
            let mut flags = vec![false; names.len()];
            computed.iter().for_each(|&slot| flags[slot] = true);
            shadowed
                .iter()
                .for_each(|&(later, first)| flags[later] = flags[first]);
            computed = (0..names.len()).filter(|&slot| flags[slot]).collect();
        }
        let mut seed = FxHasher::default();
        seed.write_usize(names.len());
        canon.iter().for_each(|&slot| names[slot].hash(&mut seed));
        Arc::new(Shape {
            names,
            canon,
            computed: computed.into(),
            shadowed,
            seed,
        })
    }

    /// Attribute names in declaration order.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` for the empty domain.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot `attr` is answered from (its first declaration).
    pub fn position(&self, attr: &str) -> Option<usize> {
        self.names.iter().position(|n| n.as_ref() == attr)
    }

    /// The slots in canonical (name-sorted) order.
    pub fn canonical(&self) -> &[usize] {
        &self.canon
    }

    /// `true` if any attribute is computed.
    pub fn has_computed(&self) -> bool {
        !self.computed.is_empty()
    }

    pub(crate) fn is_computed_slot(&self, slot: usize) -> bool {
        self.computed.contains(&slot)
    }

    /// The shape keeping only `slots`, in that order.
    pub(crate) fn select(&self, slots: &[usize]) -> Arc<Shape> {
        let computed = (0..slots.len())
            .filter(|&at| self.is_computed_slot(slots[at]))
            .collect();
        Shape::build(
            slots.iter().map(|&s| self.names[s].clone()).collect(),
            computed,
        )
    }

    /// The shape of a projection onto `attrs` (in that order) and the
    /// slots it reads — what [`TupleF::select`](crate::TupleF::select)
    /// takes. Derive it once per input shape, not once per tuple.
    pub fn project(&self, attrs: &[&str]) -> Result<(Arc<Shape>, Vec<usize>)> {
        let slots = attrs
            .iter()
            .map(|want| {
                self.position(want)
                    .ok_or_else(|| FdmError::NoSuchAttribute {
                        attr: (*want).to_string(),
                    })
            })
            .collect::<Result<Vec<usize>>>()?;
        Ok((self.select(&slots), slots))
    }

    /// This shape followed by more stored attributes — what
    /// [`TupleF::appended`](crate::TupleF::appended) takes.
    pub fn with_names(&self, more: impl IntoIterator<Item = Name>) -> Arc<Shape> {
        Shape::build(
            self.names.iter().cloned().chain(more).collect(),
            self.computed.to_vec(),
        )
    }

    /// This shape with `slot` stored instead of computed.
    pub(crate) fn with_stored(&self, slot: usize) -> Arc<Shape> {
        let computed = self.computed.iter().copied().filter(|&c| c != slot);
        Shape::build(self.names.clone(), computed.collect())
    }
}

impl PartialEq for Shape {
    /// Same names in the same declaration order, same computed slots.
    fn eq(&self, other: &Shape) -> bool {
        self.names == other.names && self.computed == other.computed
    }
}

impl Eq for Shape {}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.names.iter()).finish()
    }
}

/// Derives something from input shapes **once per distinct combination**:
/// the per-operator-call memo `project`, key inlining and the joins use
/// so that a homogeneous input costs one derivation, not one per row.
///
/// Keyed by shape *address*; the memo keeps every input shape it has seen
/// alive, so an address cannot be reused for a different shape while the
/// memo lives. Two equal shapes at different addresses derive twice —
/// correct, merely not shared. Create one per operator call and drop it
/// with the call.
pub struct ShapeMemo<V> {
    index: FxHashMap<Box<[usize]>, usize>,
    derived: Vec<(Box<[Arc<Shape>]>, V)>,
    /// The key being looked up (reused), and the entry of the last hit —
    /// relations are overwhelmingly single-shaped.
    probe: Vec<usize>,
    last: usize,
}

impl<V> Default for ShapeMemo<V> {
    fn default() -> Self {
        ShapeMemo {
            index: FxHashMap::default(),
            derived: Vec::new(),
            probe: Vec::new(),
            last: 0,
        }
    }
}

impl<V> ShapeMemo<V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// What `derive` answered for this combination of input shapes (an
    /// array, or any iterator that can be walked twice), calling it only
    /// the first time the combination is seen.
    pub fn get_or_derive<'i>(
        &mut self,
        inputs: impl IntoIterator<Item = &'i Arc<Shape>> + Clone,
        derive: impl FnOnce() -> V,
    ) -> &V {
        self.probe.clear();
        let addresses = inputs.clone().into_iter().map(|s| Arc::as_ptr(s) as usize);
        self.probe.extend(addresses);
        let probe = self.probe.as_slice();
        let hit = self.derived.get(self.last).is_some_and(|(pins, _)| {
            pins.len() == probe.len()
                && pins
                    .iter()
                    .zip(probe)
                    .all(|(p, &a)| Arc::as_ptr(p) as usize == a)
        });
        if !hit {
            self.last = match self.index.get(probe) {
                Some(&at) => at,
                None => {
                    let value = derive();
                    self.index.insert(probe.into(), self.derived.len());
                    let pins = inputs.into_iter().cloned().collect();
                    self.derived.push((pins, value));
                    self.derived.len() - 1
                }
            };
        }
        &self.derived[self.last].1
    }

    /// Number of distinct input combinations derived so far.
    pub fn len(&self) -> usize {
        self.derived.len()
    }

    /// `true` if nothing has been derived yet.
    pub fn is_empty(&self) -> bool {
        self.derived.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(shape: &Shape) -> Vec<&str> {
        shape.names().iter().map(|n| n.as_ref()).collect()
    }

    #[test]
    fn canonical_order_sorts_names_and_keeps_repeats_in_declaration_order() {
        let s = Shape::new(["b", "a", "c", "a"].map(Name::from));
        assert_eq!(s.canonical(), &[1, 3, 0, 2]);
        assert_eq!(&*s.shadowed, &[(3, 1)]);
        assert_eq!(s.position("a"), Some(1));
        assert_eq!(s.position("z"), None);
    }

    #[test]
    fn equal_name_sets_share_a_seed_whatever_the_declaration_order() {
        let ab = Shape::new(["a", "b"].map(Name::from));
        let ba = Shape::new(["b", "a"].map(Name::from));
        assert_eq!(ab.seed.finish(), ba.seed.finish());
        assert_ne!(ab, ba, "declaration order is part of the shape");
        let ac = Shape::new(["a", "c"].map(Name::from));
        assert_ne!(ab.seed.finish(), ac.seed.finish());
    }

    #[test]
    fn derived_shapes_carry_their_computed_slots() {
        let s = Shape::build(["x", "y", "z"].map(Name::from).into(), vec![1]);
        assert!(s.has_computed());
        let (p, slots) = s.project(&["z", "y"]).unwrap();
        assert_eq!((names(&p), slots), (vec!["z", "y"], vec![2, 1]));
        assert_eq!(&*p.computed, &[1]);
        assert!(!s.project(&["x"]).unwrap().0.has_computed());
        assert!(s.project(&["nope"]).is_err());
        assert_eq!(&*s.with_names([Name::from("k")]).computed, &[1]);
        assert!(!s.with_stored(1).has_computed());
    }

    #[test]
    fn a_shadowed_slot_is_computed_iff_the_slot_it_repeats_is() {
        let s = Shape::build(["x", "x"].map(Name::from).into(), vec![1]);
        assert!(!s.has_computed(), "`get` never reaches the second x");
        let s = Shape::build(["x", "x"].map(Name::from).into(), vec![0]);
        assert_eq!(&*s.computed, &[0, 1]);
    }

    #[test]
    fn memo_derives_once_per_distinct_combination() {
        let a = Shape::new([Name::from("a")]);
        let b = Shape::new([Name::from("b")]);
        let mut memo: ShapeMemo<usize> = ShapeMemo::new();
        let mut calls = 0;
        for inputs in [[&a, &b], [&a, &b], [&b, &a], [&a, &b], [&b, &a]] {
            memo.get_or_derive(inputs, || {
                calls += 1;
                calls
            });
        }
        assert_eq!((calls, memo.len()), (2, 2));
        assert_eq!(*memo.get_or_derive([&b, &a], || unreachable!()), 2);
        assert_eq!(*memo.get_or_derive([&a], || 7), 7);
    }
}
