//! A persistent ordered multimap: `PMap<K, PSet<V>>`.
//!
//! This is the shape of a non-unique secondary index. In the paper's terms
//! (§2.4), a relation function `R3(foo) -> {TF}` mapping a non-key attribute
//! to a *set* of tuple functions "is exactly what indexes on attributes with
//! duplicates do" — the multimap realizes that conceptual structure.

use crate::pmap::PMap;
use crate::pset::PSet;
use std::borrow::Borrow;
use std::fmt;

/// A persistent multimap from keys to ordered sets of values.
///
/// `clone` is O(1); all mutating operations return a new multimap.
///
/// # Examples
///
/// ```
/// use fdm_storage::PMultiMap;
///
/// let m = PMultiMap::new().insert(25, "bob").0.insert(25, "thomas").0;
/// assert_eq!(m.get(&25).map(|s| s.len()), Some(2));
/// assert_eq!(m.total_len(), 2);
/// ```
pub struct PMultiMap<K, V> {
    map: PMap<K, PSet<V>>,
    total: usize,
}

impl<K, V> Clone for PMultiMap<K, V> {
    fn clone(&self) -> Self {
        PMultiMap {
            map: self.map.clone(),
            total: self.total,
        }
    }
}

impl<K, V> Default for PMultiMap<K, V> {
    fn default() -> Self {
        PMultiMap {
            map: PMap::default(),
            total: 0,
        }
    }
}

impl<K, V> PMultiMap<K, V> {
    /// Creates an empty multimap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys.
    pub fn key_len(&self) -> usize {
        self.map.len()
    }

    /// Total number of (key, value) pairs.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl<K: Ord + Clone, V: Ord + Clone> PMultiMap<K, V> {
    /// The set of values under `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<&PSet<V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.get(key)
    }

    /// Inserts a (key, value) pair; returns the new multimap and whether the
    /// pair was new.
    pub fn insert(&self, key: K, val: V) -> (Self, bool) {
        let set = self.map.get(&key).cloned().unwrap_or_default();
        let (set, was_new) = set.insert(val);
        let map = self.map.insert(key, set).0;
        (
            PMultiMap {
                map,
                total: self.total + usize::from(was_new),
            },
            was_new,
        )
    }

    /// Removes a specific (key, value) pair; empty value sets are dropped.
    pub fn remove(&self, key: &K, val: &V) -> (Self, bool) {
        match self.map.get(key) {
            None => (self.clone(), false),
            Some(set) => {
                let (set, removed) = set.remove(val);
                if !removed {
                    return (self.clone(), false);
                }
                let map = if set.is_empty() {
                    self.map.remove(key).0
                } else {
                    self.map.insert(key.clone(), set).0
                };
                (
                    PMultiMap {
                        map,
                        total: self.total - 1,
                    },
                    true,
                )
            }
        }
    }

    /// Removes all values under `key`; returns the new multimap and the
    /// removed set, if any.
    pub fn remove_key(&self, key: &K) -> (Self, Option<PSet<V>>) {
        let (map, old) = self.map.remove(key);
        match old {
            None => (self.clone(), None),
            Some(set) => (
                PMultiMap {
                    map,
                    total: self.total - set.len(),
                },
                Some(set),
            ),
        }
    }

    /// Builds a multimap in **O(n)** from `(key, value)` pairs sorted
    /// ascending by key, then value. Duplicate pairs collapse (set
    /// semantics, matching repeated [`Self::insert`]); ordering is checked
    /// by `debug_assert` only.
    pub fn from_sorted_vec(pairs: Vec<(K, V)>) -> Self {
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| (&w[0].0, &w[0].1) <= (&w[1].0, &w[1].1)),
            "from_sorted_vec: pairs must be sorted by (key, value)"
        );
        let mut groups: Vec<(K, PSet<V>)> = Vec::new();
        let mut total = 0usize;
        let mut pairs = pairs.into_iter().peekable();
        while let Some((key, first)) = pairs.next() {
            let mut vals = vec![first];
            while pairs.peek().is_some_and(|(k, _)| *k == key) {
                let (_, v) = pairs.next().expect("peeked");
                if vals.last() != Some(&v) {
                    vals.push(v);
                }
            }
            total += vals.len();
            groups.push((key, PSet::from_sorted_vec(vals)));
        }
        PMultiMap {
            map: PMap::from_sorted_vec(groups),
            total,
        }
    }

    /// **Merge union**: every key of either multimap, with the value sets
    /// of shared keys merged set-union-wise — equivalent to inserting
    /// every `(key, value)` pair of `other`, without the per-pair
    /// persistent-insert cost. Join-based like [`PMap::merge_union_with`]
    /// (O(m · log(n/m + 1)) key steps for m and n ≥ m distinct keys,
    /// sharing the larger side's untouched subtrees); `total_len` is kept
    /// by the shared-key combiner, not recounted.
    pub fn merge_union(&self, other: &Self) -> Self {
        let mut total = self.total + other.total;
        let map = self.map.merge_union_with(&other.map, |_, a, b| {
            let both = a.merge_union(b);
            total -= a.len() + b.len() - both.len();
            both
        });
        PMultiMap { map, total }
    }

    /// **Merge intersection** (join-based, see [`Self::merge_union`]): keys
    /// present in both multimaps, holding the intersection of their value
    /// sets; keys whose value sets share nothing are dropped.
    pub fn merge_intersection(&self, other: &Self) -> Self {
        let mut total = 0;
        let map = self.map.merge_intersection_with(&other.map, |_, a, b| {
            let s = a.merge_intersection(b);
            total += s.len();
            (!s.is_empty()).then_some(s)
        });
        PMultiMap { map, total }
    }

    /// **Merge difference** (join-based, see [`Self::merge_union`]): the
    /// `(key, value)` pairs of `self` not present in `other`; keys whose
    /// value sets empty out are dropped (matching repeated
    /// [`Self::remove`]).
    pub fn merge_difference(&self, other: &Self) -> Self {
        let mut total = self.total;
        let map = self.map.merge_difference_with(&other.map, |_, a, b| {
            let s = a.merge_difference(b);
            total -= a.len() - s.len();
            (!s.is_empty()).then_some(s)
        });
        PMultiMap { map, total }
    }

    /// [`Self::from_sorted_vec`] from any iterator of sorted pairs.
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Self {
        Self::from_sorted_vec(it.into_iter().collect())
    }

    /// Iterates `(key, value-set)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &PSet<V>)> + '_ {
        self.map.iter()
    }

    /// Iterates all `(key, value)` pairs, keys ascending, values ascending
    /// within each key.
    pub fn iter_flat(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.map
            .iter()
            .flat_map(|(k, set)| set.iter().map(move |v| (k, v)))
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Ord + Clone + fmt::Debug> fmt::Debug for PMultiMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_keys_accumulate() {
        let m = PMultiMap::new()
            .insert("foo", 1)
            .0
            .insert("foo", 2)
            .0
            .insert("bar", 3)
            .0;
        assert_eq!(m.key_len(), 2);
        assert_eq!(m.total_len(), 3);
        let foos: Vec<_> = m.get("foo").unwrap().iter().copied().collect();
        assert_eq!(foos, vec![1, 2]);
    }

    #[test]
    fn duplicate_pair_is_noop() {
        let m = PMultiMap::new().insert(1, 'a').0;
        let (m2, was_new) = m.insert(1, 'a');
        assert!(!was_new);
        assert_eq!(m2.total_len(), 1);
    }

    #[test]
    fn remove_pair_and_key() {
        let m = PMultiMap::new().insert(1, 'a').0.insert(1, 'b').0;
        let (m2, removed) = m.remove(&1, &'a');
        assert!(removed);
        assert_eq!(m2.total_len(), 1);
        assert!(m2.get(&1).unwrap().contains(&'b'));
        // removing the last value drops the key entirely
        let (m3, removed) = m2.remove(&1, &'b');
        assert!(removed);
        assert_eq!(m3.key_len(), 0);
        // snapshot semantics
        assert_eq!(m.total_len(), 2);
        // remove_key
        let (m4, set) = m.remove_key(&1);
        assert_eq!(set.unwrap().len(), 2);
        assert!(m4.is_empty());
    }

    #[test]
    fn merge_setops_on_value_sets() {
        let a = PMultiMap::from_sorted_vec(vec![(1, 'a'), (1, 'b'), (2, 'x')]);
        let b = PMultiMap::from_sorted_vec(vec![(1, 'b'), (1, 'c'), (3, 'z')]);
        let u = a.merge_union(&b);
        assert_eq!(u.total_len(), 5, "a,b,c under 1; x under 2; z under 3");
        assert_eq!(u.get(&1).unwrap().len(), 3);
        let i = a.merge_intersection(&b);
        assert_eq!(i.key_len(), 1);
        assert!(i.get(&1).unwrap().contains(&'b'));
        assert_eq!(i.total_len(), 1);
        let d = a.merge_difference(&b);
        assert_eq!(d.total_len(), 2, "1→a survives, 2→x survives");
        assert!(d.get(&1).unwrap().contains(&'a'));
        assert!(!d.get(&1).unwrap().contains(&'b'));
        // equivalence with the per-pair insert path
        let mut ref_union = a.clone();
        for (k, v) in b.iter_flat() {
            ref_union = ref_union.insert(*k, *v).0;
        }
        assert_eq!(u.total_len(), ref_union.total_len());
        let pairs: Vec<_> = u.iter_flat().map(|(k, v)| (*k, *v)).collect();
        let ref_pairs: Vec<_> = ref_union.iter_flat().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, ref_pairs);
    }

    #[test]
    fn iter_flat_orders_pairs() {
        let m = PMultiMap::new()
            .insert(2, 'x')
            .0
            .insert(1, 'b')
            .0
            .insert(1, 'a')
            .0;
        let pairs: Vec<_> = m.iter_flat().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(1, 'a'), (1, 'b'), (2, 'x')]);
    }
}
