//! A persistent ordered set, a thin wrapper over [`PMap`].

use crate::pmap::PMap;
use std::borrow::Borrow;
use std::fmt;

/// A persistent (immutable, structurally shared) ordered set.
///
/// All mutating operations return a new set; `clone` is O(1).
///
/// # Examples
///
/// ```
/// use fdm_storage::PSet;
///
/// let s = PSet::from_iter([3, 1, 2]);
/// assert!(s.contains(&2));
/// let s2 = s.insert(4).0;
/// assert_eq!(s.len(), 3);
/// assert_eq!(s2.len(), 4);
/// ```
pub struct PSet<T> {
    map: PMap<T, ()>,
}

impl<T> Clone for PSet<T> {
    fn clone(&self) -> Self {
        PSet {
            map: self.map.clone(),
        }
    }
}

impl<T> Default for PSet<T> {
    fn default() -> Self {
        PSet {
            map: PMap::default(),
        }
    }
}

impl<T> PSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<T: Ord + Clone> PSet<T> {
    /// `true` if `item` is a member.
    pub fn contains<Q>(&self, item: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.contains_key(item)
    }

    /// Inserts `item`; returns the new set and whether the item was new.
    pub fn insert(&self, item: T) -> (Self, bool) {
        let (map, old) = self.map.insert(item, ());
        (PSet { map }, old.is_none())
    }

    /// Removes `item`; returns the new set and whether it was present.
    pub fn remove<Q>(&self, item: &Q) -> (Self, bool)
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (map, old) = self.map.remove(item);
        (PSet { map }, old.is_some())
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.map.keys()
    }

    /// Smallest member.
    pub fn first(&self) -> Option<&T> {
        self.map.first().map(|(k, _)| k)
    }

    /// Largest member.
    pub fn last(&self) -> Option<&T> {
        self.map.last().map(|(k, _)| k)
    }

    /// Set union (elements of either).
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for item in other.iter() {
            out = out.insert(item.clone()).0;
        }
        out
    }

    /// Set intersection (elements of both).
    pub fn intersection(&self, other: &Self) -> Self {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = PSet::new();
        for item in small.iter() {
            if large.contains(item) {
                out = out.insert(item.clone()).0;
            }
        }
        out
    }

    /// Set difference (elements of `self` not in `other`).
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = PSet::new();
        for item in self.iter() {
            if !other.contains(item) {
                out = out.insert(item.clone()).0;
            }
        }
        out
    }

    /// **Merge union**, join-based ([`PMap::merge_union`]): O(m · log(n/m +
    /// 1)) for a small side of m and a large side of n — linear for
    /// comparable sides, logarithmic per member for a small delta — sharing
    /// the larger operand's untouched subtrees and taking subtrees both
    /// sets already share whole. Equivalent to the per-member
    /// [`Self::union`], which stays as its reference (property-tested in
    /// `tests/prop_pmap.rs`).
    pub fn merge_union(&self, other: &Self) -> Self {
        PSet {
            map: self.map.merge_union(&other.map),
        }
    }

    /// Join-based counterpart of [`Self::intersection`]; same bound and
    /// sharing as [`Self::merge_union`].
    pub fn merge_intersection(&self, other: &Self) -> Self {
        PSet {
            map: self.map.merge_intersection(&other.map),
        }
    }

    /// Join-based counterpart of [`Self::difference`]; same bound and
    /// sharing as [`Self::merge_union`].
    pub fn merge_difference(&self, other: &Self) -> Self {
        PSet {
            map: self.map.merge_difference(&other.map),
        }
    }

    /// Builds a set from an iterator.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = T>>(it: I) -> Self {
        PSet {
            map: PMap::from_iter(it.into_iter().map(|t| (t, ()))),
        }
    }

    /// Builds a set in **O(n)** from strictly ascending items (the bulk
    /// fast path; ordering checked by `debug_assert` only).
    pub fn from_sorted_vec(items: Vec<T>) -> Self {
        PSet {
            map: PMap::from_sorted_iter(items.into_iter().map(|t| (t, ()))),
        }
    }

    /// [`Self::from_sorted_vec`] from any iterator of strictly ascending
    /// items.
    pub fn from_sorted_iter<I: IntoIterator<Item = T>>(it: I) -> Self {
        Self::from_sorted_vec(it.into_iter().collect())
    }
}

impl<T: Ord + Clone> FromIterator<T> for PSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(it: I) -> Self {
        PSet::from_iter(it)
    }
}

impl<T: Ord + Clone + fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Ord + Clone> PartialEq for PSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Ord + Clone> Eq for PSet<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let s = PSet::new().insert(5).0;
        assert!(s.contains(&5));
        let (s2, was_new) = s.insert(5);
        assert!(!was_new);
        assert_eq!(s2.len(), 1);
        let (s3, removed) = s2.remove(&5);
        assert!(removed);
        assert!(s3.is_empty());
        assert!(s2.contains(&5), "old snapshot unaffected");
    }

    #[test]
    fn union_intersection_difference() {
        let a = PSet::from_iter([1, 2, 3, 4]);
        let b = PSet::from_iter([3, 4, 5]);
        assert_eq!(a.union(&b), PSet::from_iter([1, 2, 3, 4, 5]));
        assert_eq!(a.intersection(&b), PSet::from_iter([3, 4]));
        assert_eq!(a.difference(&b), PSet::from_iter([1, 2]));
        assert_eq!(b.difference(&a), PSet::from_iter([5]));
    }

    #[test]
    fn iteration_sorted_and_bounds() {
        let s = PSet::from_iter([9, 1, 5]);
        let v: Vec<_> = s.iter().copied().collect();
        assert_eq!(v, vec![1, 5, 9]);
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&9));
    }

    #[test]
    fn bulk_built_set_behaves_like_incremental() {
        let s = PSet::from_sorted_vec((0..20).collect());
        assert_eq!(s.len(), 20);
        assert!(s.contains(&19));
        let (s2, was_new) = s.insert(20);
        assert!(was_new);
        assert_eq!(s2.len(), 21);
    }

    #[test]
    fn merge_setops_match_per_element_versions() {
        let a = PSet::from_iter([1, 2, 3, 4, 9]);
        let b = PSet::from_iter([3, 4, 5, 8]);
        assert_eq!(a.merge_union(&b), a.union(&b));
        assert_eq!(a.merge_intersection(&b), a.intersection(&b));
        assert_eq!(a.merge_difference(&b), a.difference(&b));
        assert_eq!(b.merge_difference(&a), b.difference(&a));
        let e: PSet<i32> = PSet::new();
        assert_eq!(a.merge_union(&e), a);
        assert_eq!(e.merge_intersection(&a), e);
        assert_eq!(a.merge_difference(&e), a);
    }

    #[test]
    fn empty_set_ops() {
        let e: PSet<i32> = PSet::new();
        let a = PSet::from_iter([1]);
        assert_eq!(e.union(&a), a);
        assert_eq!(e.intersection(&a), e);
        assert_eq!(a.difference(&e), a);
    }
}
